package hazard

import (
	"fmt"
	"strings"

	"gfmap/internal/bexpr"
)

// Report bundles the results of the full hazard analysis of one expression
// structure: the compact records produced by the paper's algorithms plus,
// when the support is small enough, the exact transition-level Set used by
// the mapper's matching filter.
type Report struct {
	// Set is the exact transition-level characterisation, nil when the
	// function has more than MaxExhaustiveVars variables.
	Set *Set
	// Static1 are the records of the static_1_analysis procedure applied to
	// the hazard-preserving SOP flattening of the expression.
	Static1 []Static1Record
	// Static0 are the reconvergence-based static 0-hazards.
	Static0 []Static0Record
	// SicDyn are the single-input-change dynamic hazards.
	SicDyn []SicDynRecord
	// MicDyn are the verified multi-input-change dynamic hazards of the
	// multi-level structure (findMicDynHazMultiLevel).
	MicDyn []Transition
}

// AnalyzeFunction runs every hazard-analysis algorithm on the expression.
// This is the per-cell work the paper's mapper performed when a library
// was read in (§3.2.1). Library annotation here keeps to the exact Set
// within MaxExhaustiveVars, the only part the matching filter reads.
func AnalyzeFunction(f *bexpr.Function) (*Report, error) {
	return AnalyzeFunctionShared(f, 0)
}

// AnalyzeFunctionShared is AnalyzeFunction under the pass-transistor model:
// the masked variables' paths switch atomically (see NewSimulatorShared).
// The compact record algorithms assume independent paths and are therefore
// skipped for shared cells; the exact Set is authoritative.
func AnalyzeFunctionShared(f *bexpr.Function, shared uint64) (*Report, error) {
	if shared != 0 {
		r := &Report{}
		set, err := AnalyzeShared(f, shared)
		if err != nil {
			return nil, err
		}
		r.Set = set
		return r, nil
	}
	return analyzeFunctionFull(f)
}

func analyzeFunctionFull(f *bexpr.Function) (*Report, error) {
	r := &Report{}
	cov, err := f.Cover()
	if err != nil {
		return nil, err
	}
	r.Static1 = Static1Hazards(cov)
	if r.Static0, err = Static0Hazards(f); err != nil {
		return nil, err
	}
	if r.SicDyn, err = SicDynHazards(f); err != nil {
		return nil, err
	}
	if f.NumVars() <= MaxExhaustiveVars {
		if r.MicDyn, err = MicDynHazMultiLevel(f); err != nil {
			return nil, err
		}
		if r.Set, err = Analyze(f); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// HasHazards reports whether any algorithm found a logic hazard.
func (r *Report) HasHazards() bool {
	if r.Set != nil {
		return !r.Set.Empty()
	}
	return len(r.Static1) > 0 || len(r.Static0) > 0 || len(r.SicDyn) > 0 || len(r.MicDyn) > 0
}

// Summary renders a one-line summary of the report.
func (r *Report) Summary() string {
	if r.Set != nil {
		return r.Set.String()
	}
	return fmt.Sprintf("static-1:%d static-0:%d sic-dyn:%d mic-dyn:%d",
		len(r.Static1), len(r.Static0), len(r.SicDyn), len(r.MicDyn))
}

// Describe renders the full report with variable names.
func (r *Report) Describe(names []string) string {
	var b strings.Builder
	if len(r.Static1) > 0 {
		fmt.Fprintf(&b, "static-1 records (%d):\n", len(r.Static1))
		for _, rec := range r.Static1 {
			src := "uncovered adjacency"
			if rec.FromNonPrime {
				src = "non-prime cube"
			}
			fmt.Fprintf(&b, "  T = %s (%s)\n", rec.T.StringVars(names), src)
		}
	}
	if len(r.Static0) > 0 {
		fmt.Fprintf(&b, "static-0 records (%d):\n", len(r.Static0))
		for _, rec := range r.Static0 {
			fmt.Fprintf(&b, "  %s changing with %s\n", varName(rec.Var, names), rec.Side.StringVars(names))
		}
	}
	if len(r.SicDyn) > 0 {
		fmt.Fprintf(&b, "s.i.c. dynamic records (%d):\n", len(r.SicDyn))
		for _, rec := range r.SicDyn {
			from := 0
			if rec.FromValue {
				from = 1
			}
			fmt.Fprintf(&b, "  %s: %d->%d with %s\n", varName(rec.Var, names), from, 1-from, rec.Side.StringVars(names))
		}
	}
	if r.Set != nil {
		b.WriteString("exact transition sets:\n")
		b.WriteString(indent(r.Set.Describe(names), "  "))
	}
	if b.Len() == 0 {
		return "no logic hazards\n"
	}
	return b.String()
}

func varName(v int, names []string) string {
	if v < len(names) {
		return names[v]
	}
	return fmt.Sprintf("x%d", v)
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = pad + l
	}
	return strings.Join(lines, "\n") + "\n"
}
