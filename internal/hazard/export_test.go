package hazard

import "gfmap/internal/bexpr"

// AnalyzeReference is AnalyzeShared computed by the every-pair loop over
// the per-subset evaluator, the oracle the external tests compare library
// cells against.
func AnalyzeReference(f *bexpr.Function, shared uint64) (*Set, error) {
	s, err := NewSimulatorShared(f, shared)
	if err != nil {
		return nil, err
	}
	return newRefSim(s).analyze()
}
