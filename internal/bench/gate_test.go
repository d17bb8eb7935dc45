package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gfmap/internal/core"
)

func fakeReport(lib string, designs ...DesignReport) *Report {
	return &Report{
		Fingerprint: NewFingerprint(lib),
		CreatedAt:   "2026-08-07T00:00:00Z",
		Mode:        "async",
		Runs:        1,
		Designs:     designs,
	}
}

func findReg(regs []Regression, design, metric string) *Regression {
	for i := range regs {
		if regs[i].Design == design && regs[i].Metric == metric {
			return &regs[i]
		}
	}
	return nil
}

// A deliberate regression in a fixture must fail the gate; matching
// reports must pass it.
func TestCompareReportsCatchesRegressions(t *testing.T) {
	base := fakeReport("LSI9K",
		DesignReport{Design: "a", Area: 100, Delay: 10, WallMS: 20, AllocsPerOp: 1000},
		DesignReport{Design: "b", Area: 50, Delay: 8, WallMS: 5, AllocsPerOp: 400},
	)
	clean := fakeReport("LSI9K",
		DesignReport{Design: "a", Area: 100, Delay: 10, WallMS: 21, AllocsPerOp: 1010},
		DesignReport{Design: "b", Area: 49, Delay: 8, WallMS: 4, AllocsPerOp: 380},
	)
	if regs, _ := CompareReports(base, clean); len(regs) != 0 {
		t.Fatalf("clean report flagged: %v", regs)
	}

	bad := fakeReport("LSI9K",
		// area +10% (limit 2%), wall 3x (limit 1.5x)
		DesignReport{Design: "a", Area: 110, Delay: 10, WallMS: 60, AllocsPerOp: 1000},
		// allocs 1.2x (limit 1.15x)
		DesignReport{Design: "b", Area: 50, Delay: 8, WallMS: 5, AllocsPerOp: 480},
	)
	regs, _ := CompareReports(base, bad)
	for _, want := range []struct{ design, metric string }{
		{"a", "area"}, {"a", "wall_ms"}, {"b", "allocs_per_op"},
	} {
		if findReg(regs, want.design, want.metric) == nil {
			t.Errorf("missed regression %s/%s in %v", want.design, want.metric, regs)
		}
	}
	if r := findReg(regs, "b", "area"); r != nil {
		t.Errorf("false positive: %v", *r)
	}
	if r := findReg(regs, "a", "wall_ms"); r != nil && (r.Ratio < 2.9 || r.Limit != 1.5) {
		t.Errorf("wall regression ratio/limit wrong: %+v", *r)
	}
}

// The deterministic work counters gate by exact equality: one extra
// hazard check fails the gate. Counters outside Stats.Deterministic()
// (cache hits, phase times) are not gated.
func TestCompareReportsGatesWorkCounters(t *testing.T) {
	st := core.Stats{Cones: 3, ClustersEnumerated: 40, HazardChecks: 7, HazCacheHits: 2, CoverTime: time.Millisecond}
	base := fakeReport("LSI9K", DesignReport{Design: "a", Area: 10, Stats: st})
	noisy := st
	noisy.HazCacheHits, noisy.HazCacheMisses, noisy.CoverTime = 0, 9, time.Second
	if regs, _ := CompareReports(base, fakeReport("LSI9K", DesignReport{Design: "a", Area: 10, Stats: noisy})); len(regs) != 0 {
		t.Errorf("non-deterministic counters gated: %v", regs)
	}
	extra := st
	extra.HazardChecks++
	regs, _ := CompareReports(base, fakeReport("LSI9K", DesignReport{Design: "a", Area: 10, Stats: extra}))
	if r := findReg(regs, "a", "stats.HazardChecks"); len(regs) != 1 || r == nil || r.Base != 7 || r.Fresh != 8 {
		t.Errorf("one extra hazard check: regressions %v", regs)
	}
}

// Sub-floor wall times are scheduler noise: a 3x ratio between 1ms and
// 3ms is exempt, but a sub-floor baseline blowing past the floor is not.
func TestCompareReportsWallFloor(t *testing.T) {
	base := fakeReport("LSI9K",
		DesignReport{Design: "tiny", Area: 10, WallMS: 1},
		DesignReport{Design: "blown", Area: 10, WallMS: 1},
	)
	fresh := fakeReport("LSI9K",
		DesignReport{Design: "tiny", Area: 10, WallMS: 3},
		DesignReport{Design: "blown", Area: 10, WallMS: 50},
	)
	regs, _ := CompareReports(base, fresh)
	if findReg(regs, "tiny", "wall_ms") != nil {
		t.Errorf("sub-floor noise gated: %v", regs)
	}
	if findReg(regs, "blown", "wall_ms") == nil {
		t.Errorf("floor exempted a real blow-up: %v", regs)
	}
}

// Wall time is only gated between comparable fingerprints; QoR and
// allocation gates always apply.
func TestCompareReportsSkipsWallAcrossMachines(t *testing.T) {
	base := fakeReport("LSI9K", DesignReport{Design: "a", Area: 100, Delay: 10, WallMS: 1, AllocsPerOp: 100})
	base.Fingerprint.GOARCH = "otherarch"
	base.Fingerprint.NumCPU = 999
	fresh := fakeReport("LSI9K", DesignReport{Design: "a", Area: 300, Delay: 10, WallMS: 100, AllocsPerOp: 100})
	regs, notes := CompareReports(base, fresh)
	if findReg(regs, "a", "wall_ms") != nil {
		t.Errorf("wall gated across incomparable fingerprints: %v", regs)
	}
	if findReg(regs, "a", "area") == nil {
		t.Errorf("area regression not gated across machines: %v", regs)
	}
	found := false
	for _, n := range notes {
		if len(n) > 0 && (n[0] == 'f') { // "fingerprints not comparable..."
			found = true
		}
	}
	if !found {
		t.Errorf("no note about the skipped wall gate: %v", notes)
	}
}

// Different libraries are never gated against each other.
func TestCompareReportsDifferentLibraries(t *testing.T) {
	base := fakeReport("LSI9K", DesignReport{Design: "a", Area: 1})
	fresh := fakeReport("CMOS3", DesignReport{Design: "a", Area: 100})
	regs, notes := CompareReports(base, fresh)
	if len(regs) != 0 || len(notes) == 0 {
		t.Errorf("cross-library gate ran: regs=%v notes=%v", regs, notes)
	}
}

// Corpus drift is reported as notes, not failures: new designs have no
// baseline, removed designs are named.
func TestCompareReportsCorpusDrift(t *testing.T) {
	base := fakeReport("LSI9K",
		DesignReport{Design: "kept", Area: 10, WallMS: 1},
		DesignReport{Design: "removed", Area: 10, WallMS: 1},
	)
	fresh := fakeReport("LSI9K",
		DesignReport{Design: "kept", Area: 10, WallMS: 1},
		DesignReport{Design: "added", Area: 10, WallMS: 1},
	)
	regs, notes := CompareReports(base, fresh)
	if len(regs) != 0 {
		t.Fatalf("drift flagged as regression: %v", regs)
	}
	text := ""
	for _, n := range notes {
		text += n + "\n"
	}
	for _, want := range []string{"added", "removed"} {
		if !containsStr(text, want) {
			t.Errorf("notes missing %q:\n%s", want, text)
		}
	}
}

func containsStr(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

func writeReportFile(t *testing.T, dir, name string, rep *Report) string {
	t.Helper()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestNewestBenchFileAndLoad(t *testing.T) {
	dir := t.TempDir()
	old := fakeReport("LSI9K", DesignReport{Design: "a", Area: 1})
	old.CreatedAt = "2026-01-01T00:00:00Z"
	newer := fakeReport("LSI9K", DesignReport{Design: "a", Area: 2})
	newer.CreatedAt = "2026-08-01T00:00:00Z"
	writeReportFile(t, dir, "BENCH_zzz-old.json", old)
	want := writeReportFile(t, dir, "BENCH_aaa-new.json", newer)

	got, err := NewestBenchFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("NewestBenchFile = %s, want %s (CreatedAt beats name order)", got, want)
	}
	rep, err := LoadReport(got)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Designs[0].Area != 2 {
		t.Errorf("loaded wrong report: %+v", rep.Designs[0])
	}

	if _, err := NewestBenchFile(t.TempDir()); err == nil {
		t.Error("empty dir should error")
	}
	if _, err := LoadReport(filepath.Join(dir, "nope.json")); err == nil {
		t.Error("missing file should error")
	}
	bad := filepath.Join(dir, "BENCH_bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(bad); err == nil {
		t.Error("corrupt file should error")
	}
}

func TestBenchFileName(t *testing.T) {
	rep := fakeReport("LSI9K")
	rep.Fingerprint.GitDescribe = "be41b3d-dirty"
	if got := BenchFileName(rep); got != "BENCH_be41b3d-dirty.json" {
		t.Errorf("BenchFileName = %q", got)
	}
	rep.Fingerprint.GitDescribe = ""
	got := BenchFileName(rep)
	if got == "BENCH_.json" || containsStr(got, ":") {
		t.Errorf("rev-less name %q", got)
	}
}
