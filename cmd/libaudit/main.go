// Command libaudit prints the hazard census of a cell library — the
// paper's Table 1 — and optionally the full per-cell hazard reports.
//
// Usage:
//
//	libaudit                   # census of all four built-in libraries
//	libaudit -lib Actel -v     # per-cell reports for one library
//	libaudit -libfile my.genlib
package main

import (
	"flag"
	"fmt"
	"os"

	"gfmap/internal/bench"
	"gfmap/internal/hazard"
	"gfmap/internal/library"
)

func main() {
	libName := flag.String("lib", "", "audit one built-in library (default: census of all)")
	libFile := flag.String("libfile", "", "audit a library file in the GATE format")
	verbose := flag.Bool("v", false, "print the hazard report of every hazardous cell")
	flag.Parse()

	switch {
	case *libFile != "":
		f, err := os.Open(*libFile)
		if err != nil {
			fatal(err)
		}
		lib, err := library.Parse(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if err := lib.Annotate(); err != nil {
			fatal(err)
		}
		audit(lib, *verbose)
	case *libName != "":
		lib, err := library.Get(*libName)
		if err != nil {
			fatal(err)
		}
		audit(lib, *verbose)
	default:
		rows, err := bench.Table1()
		if err != nil {
			fatal(err)
		}
		fmt.Print(bench.FormatTable1(rows))
	}
}

func audit(lib *library.Library, verbose bool) {
	c := lib.Census()
	fmt.Printf("library %s: %d cells, %d hazardous (%d%%)\n",
		c.Library, c.Total, c.Hazardous, c.PercentHazardous())
	for _, cell := range lib.HazardousCells() {
		fmt.Printf("  %-10s %-30s %s\n", cell.Name, cell.Fn.String(), cell.Report.Summary())
		if verbose {
			// Annotation keeps only the exact set; the report prints the
			// paper's compact records too.
			rep, err := hazard.AnalyzeFunctionShared(cell.Fn, cell.SharedMask())
			if err != nil {
				fatal(err)
			}
			fmt.Print(indent(rep.Describe(cell.Fn.Vars)))
		}
	}
}

func indent(s string) string {
	out := ""
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if i > start {
				out += "      " + s[start:i] + "\n"
			}
			start = i + 1
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "libaudit:", err)
	os.Exit(1)
}
