package gfmap

// The benchmarks below regenerate each table of the paper's evaluation
// under `go test -bench`. One benchmark per table; Table 2's, the
// library build plus hazard annotation, is BenchmarkAnnotate in
// internal/bench. Figures are covered by deterministic tests in
// internal/hazard and internal/core. Run with:
//
//	go test -bench=. -benchmem
//
// The benchmark reports are the raw material of EXPERIMENTS.md.

import (
	"fmt"
	"runtime"
	"testing"

	"gfmap/internal/bench"
	"gfmap/internal/bexpr"
	"gfmap/internal/core"
	"gfmap/internal/hazard"
	"gfmap/internal/hazcache"
	"gfmap/internal/library"
)

// BenchmarkTable1LibraryCensus measures the Table 1 workload: computing
// the hazard census of all four (pre-annotated) libraries.
func BenchmarkTable1LibraryCensus(b *testing.B) {
	for _, name := range library.BuiltinNames {
		library.MustGet(name) // annotate outside the timed region
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("bad census")
		}
	}
}

// BenchmarkTable3QualityVsHand measures the Table 3 workload: the
// automatic asynchronous mapping of the ABCS controller onto the GDT
// library (the design the paper compares against a hand mapping).
func BenchmarkTable3QualityVsHand(b *testing.B) {
	d, err := bench.DesignByName("abcs")
	if err != nil {
		b.Fatal(err)
	}
	lib := library.MustGet("GDT")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.AsyncTmap(d.Net, lib, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Area <= 0 {
			b.Fatal("degenerate mapping")
		}
	}
}

// BenchmarkTable4MapperRuntime measures the Table 4 grid: sync vs async
// mapping of the SCSI and ABCS designs on every library.
func BenchmarkTable4MapperRuntime(b *testing.B) {
	for _, designName := range []string{"scsi", "abcs"} {
		d, err := bench.DesignByName(designName)
		if err != nil {
			b.Fatal(err)
		}
		for _, libName := range library.BuiltinNames {
			lib := library.MustGet(libName)
			for _, mode := range []core.Mode{core.Sync, core.Async} {
				b.Run(designName+"/"+libName+"/"+mode.String(), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := core.Map(d.Net, lib, core.Options{Mode: mode}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkTable5Benchmarks measures the Table 5 grid: asynchronous
// mapping of all eleven benchmarks on the Actel and CMOS3 libraries.
func BenchmarkTable5Benchmarks(b *testing.B) {
	ds, err := bench.Designs()
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range ds {
		for _, libName := range []string{"Actel", "CMOS3"} {
			lib := library.MustGet(libName)
			b.Run(d.Name+"/"+libName, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := core.AsyncTmap(d.Net, lib, core.Options{})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.Area, "area")
					b.ReportMetric(res.Delay, "delay_ns")
				}
			})
		}
	}
}

// BenchmarkParallelMapping measures the covering DP's worker scaling on
// the largest benchmark (dean-ctrl on Actel, the hazard-heaviest library):
// serial, half the CPUs, and one worker per CPU, all through a cold private
// hazard cache per iteration so runs are comparable.
func BenchmarkParallelMapping(b *testing.B) {
	d, err := bench.DesignByName("dean-ctrl")
	if err != nil {
		b.Fatal(err)
	}
	lib := library.MustGet("Actel")
	seen := map[int]bool{}
	for _, workers := range []int{1, runtime.NumCPU() / 2, runtime.NumCPU()} {
		if workers < 1 || seen[workers] {
			continue
		}
		seen[workers] = true
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.Options{Workers: workers, HazardCache: hazcache.New(0)}
				if _, err := core.AsyncTmap(d.Net, lib, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMapMatchIndex measures Boolean matching through the
// signature-keyed library index with symmetry pruning and the library's
// match memo. finds/op reports the candidate (cell, phase) pairs examined,
// whether searched or replayed — the Stats.FindInvocations counter — and
// pruned/op the bindings the symmetry classes collapsed, next to the wall
// time. The warm arm maps against one shared library, so after the first
// op every target replays from the memo, as in a long-lived server; the
// cold arm builds and annotates a fresh library outside the timer for
// every op, so the memo starts empty, as in one CLI run.
func BenchmarkMapMatchIndex(b *testing.B) {
	for _, designName := range []string{"scsi", "abcs"} {
		d, err := bench.DesignByName(designName)
		if err != nil {
			b.Fatal(err)
		}
		for _, arm := range []string{"warm", "cold"} {
			b.Run(designName+"/"+arm, func(b *testing.B) {
				lib := library.MustGet("Actel")
				var finds, pruned int
				for i := 0; i < b.N; i++ {
					if arm == "cold" {
						b.StopTimer()
						lib, err = library.Build("Actel")
						if err == nil {
							err = lib.Annotate()
						}
						if err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					opts := core.Options{Mode: core.Async, Workers: 1, HazardCache: hazcache.New(0)}
					res, err := core.Map(d.Net, lib, opts)
					if err != nil {
						b.Fatal(err)
					}
					finds = res.Stats.FindInvocations
					pruned = res.Stats.SymmetryPruned
				}
				b.ReportMetric(float64(finds), "finds/op")
				b.ReportMetric(float64(pruned), "pruned/op")
			})
		}
	}
}

// BenchmarkHazardCacheEffect isolates the shared cache: the same mapping
// with the cross-cone cache disabled (per-cone memo only), cold, and warm.
func BenchmarkHazardCacheEffect(b *testing.B) {
	d, err := bench.DesignByName("abcs")
	if err != nil {
		b.Fatal(err)
	}
	lib := library.MustGet("Actel")
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opts := core.Options{Workers: 1, DisableHazardCache: true}
			if _, err := core.AsyncTmap(d.Net, lib, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opts := core.Options{Workers: 1, HazardCache: hazcache.New(0)}
			if _, err := core.AsyncTmap(d.Net, lib, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		cache := hazcache.New(0)
		opts := core.Options{Workers: 1, HazardCache: cache}
		if _, err := core.AsyncTmap(d.Net, lib, opts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.AsyncTmap(d.Net, lib, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHazardAnalysisSuite measures the §4 algorithms on the canonical
// hazardous element (the 2:1 mux) and on the paper's running example
// (Figure 8's three-cube function) — the per-cell/per-subnetwork work the
// mapper performs during matching.
func BenchmarkHazardAnalysisSuite(b *testing.B) {
	mux := bexpr.MustParse("s'*a + s*b")
	fig8 := bexpr.MustParse("w'*x*z + w'*x*y + x*y*z")
	b.Run("AnalyzeMux", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hazard.Analyze(mux); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AnalyzeFig8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hazard.Analyze(fig8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FullReportFig8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hazard.AnalyzeFunction(fig8); err != nil {
				b.Fatal(err)
			}
		}
	})
}
