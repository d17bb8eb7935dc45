// Command paperbench regenerates every table of the paper's evaluation
// (§5, Tables 1–5) using the reproduced system: the four libraries, the
// hazard analyser, the synchronous and asynchronous mappers, and the
// benchmark suite.
//
// With -json PATH (or -json -) it instead emits a machine-readable
// benchmark report: every design mapped with the observability metrics
// registry attached, each row carrying the deterministic mapper
// statistics plus per-design histogram summaries (hazard-analysis
// latency, per-cone covering latency, cuts per node, cluster widths).
// Every JSON report is stamped with an environment fingerprint (go
// version, GOOS/GOARCH, CPU count, GOMAXPROCS, cell library, git
// describe) so bench trajectory files are comparable across machines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gfmap/internal/bench"
	"gfmap/internal/blif"
)

func main() {
	only := flag.String("table", "", "regenerate only one table (1-5, or \"cache\" for the cache study); default all")
	ablations := flag.Bool("ablations", false, "also run the design-choice ablations")
	figures := flag.Bool("figures", false, "also regenerate the conceptual figures")
	jsonOut := flag.String("json", "", "write a fingerprinted JSON benchmark report to this file (\"-\" for stdout) instead of the text tables")
	jsonLib := flag.String("lib", "LSI9K", "cell library for the -json report")
	runs := flag.Int("runs", 1, "map each design this many times in the -json report, keeping the fastest wall time")
	noSynth := flag.Bool("nosynth", false, "restrict the -json report to the paper suite (no synthetic scaling corpus)")
	dump := flag.String("dump", "", "write one benchmark design (by Table 5 name) as BLIF to stdout and exit; feeds the serving smoke tests")
	flag.Parse()

	want := func(n string) bool { return *only == "" || *only == n }
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}

	if *dump != "" {
		if err := dumpDesign(*dump); err != nil {
			fail(err)
		}
		return
	}

	if *jsonOut != "" {
		if err := writeJSONReport(*jsonOut, *jsonLib, bench.ReportOptions{Runs: *runs, NoSynthetic: *noSynth}); err != nil {
			fail(err)
		}
		return
	}

	if want("1") {
		rows, err := bench.Table1()
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatTable1(rows))
	}
	if want("2") {
		rows, err := bench.Table2()
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatTable2(rows))
	}
	if want("3") {
		rows, err := bench.Table3()
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatTable3(rows))
	}
	if want("4") {
		rows, err := bench.Table4()
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatTable4(rows))
	}
	if want("5") {
		rows, err := bench.Table5()
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatTable5(rows))
	}
	if want("cache") {
		rows, err := bench.CacheTable()
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatCacheTable(rows))
	}
	if *figures {
		text, err := bench.Figures()
		if err != nil {
			fail(err)
		}
		fmt.Println(text)
	}
	if *ablations {
		runAblations(fail)
	}
	fmt.Println(strings.Repeat("-", 60))
	fmt.Println("All requested tables regenerated.")
}

// dumpDesign writes one benchmark design as BLIF to stdout — the bridge
// between the synthesized suite and anything that speaks the serving
// API, like the CI fleet smoke test (see docs/SERVING.md).
func dumpDesign(name string) error {
	d, err := bench.DesignByName(name)
	if err != nil {
		return fmt.Errorf("%w (known: %s)", err, strings.Join(bench.DesignNames(), ", "))
	}
	src, err := blif.WriteString(d.Net)
	if err != nil {
		return err
	}
	_, err = io.WriteString(os.Stdout, src)
	return err
}

// writeJSONReport runs the benchmark corpus with metrics enabled and
// writes the fingerprinted report to path ("-" = stdout).
func writeJSONReport(path, libName string, opts bench.ReportOptions) error {
	rep, err := bench.JSONReport(libName, opts)
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func runAblations(fail func(error)) {
	rows, err := bench.AblationDepth("abcs", "GDT")
	if err != nil {
		fail(err)
	}
	fmt.Println(bench.FormatAblation("cluster depth bound (abcs on GDT)", rows))
	rows, err = bench.AblationFilter("scsi", "Actel")
	if err != nil {
		fail(err)
	}
	fmt.Println(bench.FormatAblation("hazard filter and burst don't-cares (scsi on Actel)", rows))
	rows, err = bench.AblationObjective("dean-ctrl", "CMOS3")
	if err != nil {
		fail(err)
	}
	fmt.Println(bench.FormatAblation("covering objective (dean-ctrl on CMOS3)", rows))
}
