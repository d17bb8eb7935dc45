package bench

// The benchmark regression gate: compares a fresh report against the
// newest checked-in trajectory file (benchdata/BENCH_*.json) and flags
// designs whose work counters changed, or whose wall time, allocation
// count or mapping quality regressed past the thresholds. The counters of
// core.Stats.Deterministic() are the same on every machine and at every
// worker count, so they gate by exact equality: a change that does more
// or less work updates the baseline in the same diff. Quality
// (area/delay/gates) and allocation counts are deterministic too, so they
// gate unconditionally; wall time is gated only between reports whose
// environment fingerprints are comparable — a baseline recorded on
// different hardware says nothing about speed.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

// The gate's limits. Ratios are fresh/baseline.
const (
	// maxWallRatio gates best-of-runs wall time; noise from shared CI
	// runners needs generous headroom.
	maxWallRatio = 1.5
	// wallFloorMS exempts designs from the wall gate while both sides map
	// in under this many milliseconds: scheduler noise dominates sub-floor
	// timings and a ratio on them is meaningless.
	wallFloorMS = 10
	// maxAllocRatio gates allocations per mapping.
	maxAllocRatio = 1.15
	// maxAreaRatio and maxDelayRatio gate mapped QoR. The mapper is
	// deterministic, so these are tight.
	maxAreaRatio  = 1.02
	maxDelayRatio = 1.05
)

// Regression is one gated metric that got worse than its threshold
// allows on one design, or one work counter that changed. Counters carry
// a zero Ratio and Limit: any difference fails.
type Regression struct {
	Design string  `json:"design"`
	Metric string  `json:"metric"` // "wall_ms", "allocs_per_op", "area", "delay" or "stats.<counter>"
	Base   float64 `json:"base"`
	Fresh  float64 `json:"fresh"`
	Ratio  float64 `json:"ratio"`
	Limit  float64 `json:"limit"`
}

func (r Regression) String() string {
	if r.Limit == 0 {
		return fmt.Sprintf("%s: %s %.0f -> %.0f (must be equal)", r.Design, r.Metric, r.Base, r.Fresh)
	}
	return fmt.Sprintf("%s: %s %.4g -> %.4g (%.2fx, limit %.2fx)",
		r.Design, r.Metric, r.Base, r.Fresh, r.Ratio, r.Limit)
}

// Comparable reports whether wall times from two fingerprints can be
// meaningfully compared: same platform and CPU count. Go version and
// git revision may differ — that is exactly what the trajectory tracks.
func Comparable(a, b Fingerprint) bool {
	return a.GOOS == b.GOOS && a.GOARCH == b.GOARCH && a.NumCPU == b.NumCPU
}

// CompareReports gates fresh against base, returning the regressions
// past threshold and human-readable notes on what was (and was not)
// compared. An empty regression list means the gate passes.
func CompareReports(base, fresh *Report) ([]Regression, []string) {
	var regs []Regression
	var notes []string

	if base.Fingerprint.Library != fresh.Fingerprint.Library {
		notes = append(notes, fmt.Sprintf(
			"libraries differ (%s vs %s): only wall/alloc trends are meaningless, skipping all gates",
			base.Fingerprint.Library, fresh.Fingerprint.Library))
		return nil, notes
	}
	wallOK := Comparable(base.Fingerprint, fresh.Fingerprint)
	if !wallOK {
		notes = append(notes, fmt.Sprintf(
			"fingerprints not comparable (%s/%s %d-cpu vs %s/%s %d-cpu): wall-time gate skipped",
			base.Fingerprint.GOOS, base.Fingerprint.GOARCH, base.Fingerprint.NumCPU,
			fresh.Fingerprint.GOOS, fresh.Fingerprint.GOARCH, fresh.Fingerprint.NumCPU))
	}

	baseBy := make(map[string]DesignReport, len(base.Designs))
	for _, d := range base.Designs {
		baseBy[d.Design] = d
	}
	compared := 0
	for _, f := range fresh.Designs {
		b, ok := baseBy[f.Design]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: new design, no baseline (skipped)", f.Design))
			continue
		}
		delete(baseBy, f.Design)
		compared++
		check := func(metric string, bv, fv, limit float64) {
			if bv <= 0 {
				return // nothing to ratio against
			}
			if ratio := fv / bv; ratio > limit {
				regs = append(regs, Regression{
					Design: f.Design, Metric: metric,
					Base: bv, Fresh: fv, Ratio: ratio, Limit: limit,
				})
			}
		}
		if bs, fs := b.Stats.Deterministic(), f.Stats.Deterministic(); bs != fs {
			bv, fv := reflect.ValueOf(bs), reflect.ValueOf(fs)
			for i := 0; i < bv.NumField(); i++ {
				if x, y := bv.Field(i).Int(), fv.Field(i).Int(); x != y {
					regs = append(regs, Regression{Design: f.Design,
						Metric: "stats." + bv.Type().Field(i).Name, Base: float64(x), Fresh: float64(y)})
				}
			}
		}
		check("area", b.Area, f.Area, maxAreaRatio)
		check("delay", b.Delay, f.Delay, maxDelayRatio)
		check("allocs_per_op", float64(b.AllocsPerOp), float64(f.AllocsPerOp), maxAllocRatio)
		if wallOK && (b.WallMS >= wallFloorMS || f.WallMS >= wallFloorMS) {
			check("wall_ms", b.WallMS, f.WallMS, maxWallRatio)
		}
	}
	for name := range baseBy {
		notes = append(notes, fmt.Sprintf("%s: in baseline but not in fresh report", name))
	}
	if compared == 0 {
		notes = append(notes, "no common designs: nothing was gated")
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Design != regs[j].Design {
			return regs[i].Design < regs[j].Design
		}
		return regs[i].Metric < regs[j].Metric
	})
	sort.Strings(notes)
	return regs, notes
}

// LoadReport reads one BENCH_*.json trajectory file.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if len(rep.Designs) == 0 {
		return nil, fmt.Errorf("bench: %s has no designs", path)
	}
	return &rep, nil
}

// NewestBenchFile finds the most recent BENCH_*.json in dir, ordered by
// the reports' CreatedAt stamps (file modification time breaks ties and
// covers reports that predate the stamp).
func NewestBenchFile(dir string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	if len(paths) == 0 {
		return "", fmt.Errorf("bench: no BENCH_*.json files in %s", dir)
	}
	type cand struct {
		path    string
		created string
		mod     int64
	}
	cands := make([]cand, 0, len(paths))
	for _, p := range paths {
		c := cand{path: p}
		if fi, err := os.Stat(p); err == nil {
			c.mod = fi.ModTime().UnixNano()
		}
		if rep, err := LoadReport(p); err == nil {
			c.created = rep.CreatedAt
		}
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].created != cands[j].created {
			return cands[i].created > cands[j].created // RFC3339 sorts lexically
		}
		if cands[i].mod != cands[j].mod {
			return cands[i].mod > cands[j].mod
		}
		return cands[i].path > cands[j].path
	})
	return cands[0].path, nil
}

// BenchFileName names a trajectory file for a report: BENCH_<rev>.json,
// where rev is the git describe string (path-safe) or the created-at
// stamp when the revision is unknown.
func BenchFileName(rep *Report) string {
	rev := rep.Fingerprint.GitDescribe
	if rev == "" {
		rev = strings.NewReplacer(":", "", "-", "", "+", "").Replace(rep.CreatedAt)
	}
	rev = strings.NewReplacer("/", "_", " ", "_").Replace(rev)
	return "BENCH_" + rev + ".json"
}
