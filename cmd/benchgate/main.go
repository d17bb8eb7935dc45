// Command benchgate is the CI perf-regression gate. It compares a fresh
// benchmark report against the newest checked-in trajectory file
// (benchdata/BENCH_*.json) and exits nonzero when a design's work
// counters (core.Stats.Deterministic()) differ from the baseline's, or
// when wall time, allocation counts or mapping quality regressed past the
// thresholds.
//
// Usage:
//
//	benchgate [-baseline DIR] [-fresh FILE] [-lib NAME] [-runs N] [flags]
//
// With -fresh empty, benchgate runs the benchmark corpus itself (the
// same corpus paperbench -json produces). The counter, quality and
// allocation gates always apply; the wall-time gate only runs when the
// baseline's environment fingerprint (platform and CPU count) matches, so
// a baseline recorded on different hardware cannot flake the build.
// Exit status: 0 gate passed, 1 regressions found, 2 operational error.
package main

import (
	"flag"
	"fmt"
	"os"

	"gfmap/internal/bench"
)

func main() {
	baselineDir := flag.String("baseline", "benchdata", "directory holding the checked-in BENCH_*.json trajectory")
	baselineFile := flag.String("baseline-file", "", "compare against this exact report instead of the newest in -baseline")
	freshPath := flag.String("fresh", "", "fresh report to gate (from paperbench -json); empty means run the corpus now")
	lib := flag.String("lib", "LSI9K", "cell library when running the corpus (-fresh empty)")
	runs := flag.Int("runs", 3, "runs per design when running the corpus (best-of wall time)")
	wallRatio := flag.Float64("max-wall-ratio", 0, "wall-time regression limit (0 = default 1.5)")
	wallFloor := flag.Float64("wall-floor-ms", 0, "skip the wall gate when both sides are under this (0 = default 10ms)")
	allocRatio := flag.Float64("max-alloc-ratio", 0, "allocations regression limit (0 = default 1.3)")
	areaRatio := flag.Float64("max-area-ratio", 0, "mapped-area regression limit (0 = default 1.02)")
	delayRatio := flag.Float64("max-delay-ratio", 0, "mapped-delay regression limit (0 = default 1.05)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	basePath := *baselineFile
	if basePath == "" {
		p, err := bench.NewestBenchFile(*baselineDir)
		if err != nil {
			fail(err)
		}
		basePath = p
	}
	base, err := bench.LoadReport(basePath)
	if err != nil {
		fail(err)
	}
	fmt.Printf("baseline: %s (%s, %s/%s, %d designs)\n",
		basePath, base.Fingerprint.GitDescribe,
		base.Fingerprint.GOOS, base.Fingerprint.GOARCH, len(base.Designs))

	var fresh *bench.Report
	if *freshPath != "" {
		fresh, err = bench.LoadReport(*freshPath)
		if err != nil {
			fail(err)
		}
		fmt.Printf("fresh:    %s (%d designs)\n", *freshPath, len(fresh.Designs))
	} else {
		fmt.Printf("fresh:    mapping corpus on %s (%d runs per design)...\n", *lib, *runs)
		fresh, err = bench.JSONReport(*lib, bench.ReportOptions{Runs: *runs, NoSynthetic: !base.Synthetic})
		if err != nil {
			fail(err)
		}
	}

	regs, notes := bench.CompareReports(base, fresh, bench.GateThresholds{
		MaxWallRatio:  *wallRatio,
		WallFloorMS:   *wallFloor,
		MaxAllocRatio: *allocRatio,
		MaxAreaRatio:  *areaRatio,
		MaxDelayRatio: *delayRatio,
	})
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	if len(regs) > 0 {
		fmt.Printf("FAIL: %d regression(s) past threshold:\n", len(regs))
		for _, r := range regs {
			fmt.Println("  ", r)
		}
		os.Exit(1)
	}
	fmt.Println("benchgate: OK — no regressions past threshold")
}
