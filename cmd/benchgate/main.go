// Command benchgate is the CI perf-regression gate. It compares a fresh
// benchmark report (from paperbench -json) against the newest checked-in
// trajectory file (benchdata/BENCH_*.json) and exits nonzero when a
// design's work counters (core.Stats.Deterministic()) differ from the
// baseline's, or when wall time, allocation counts or mapping quality
// regressed past the limits fixed in internal/bench/gate.go.
//
// Usage:
//
//	benchgate [-baseline DIR | -baseline-file FILE] -fresh FILE
//
// The counter, quality and allocation gates always apply; the wall-time
// gate only runs when the baseline's environment fingerprint (platform
// and CPU count) matches, so a baseline recorded on different hardware
// cannot flake the build.
// Exit status: 0 gate passed, 1 regressions found, 2 operational error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"gfmap/internal/bench"
)

func main() {
	baselineDir := flag.String("baseline", "benchdata", "directory holding the checked-in BENCH_*.json trajectory")
	baselineFile := flag.String("baseline-file", "", "compare against this exact report instead of the newest in -baseline")
	freshPath := flag.String("fresh", "", "fresh report to gate, from paperbench -json (required)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if *freshPath == "" {
		fail(errors.New("-fresh is required (write the report with paperbench -json)"))
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

	fresh, err := bench.LoadReport(*freshPath)
	if err != nil {
		fail(err)
	}
	fmt.Printf("fresh:    %s (%d designs)\n", *freshPath, len(fresh.Designs))

	regs, notes := bench.CompareReports(base, fresh)
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
