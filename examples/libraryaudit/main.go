// Libraryaudit reproduces the paper's Table 1 programmatically: it loads
// each of the four cell libraries, runs the hazard-analysis suite over
// every cell's Boolean factored form — the asynchronous mapper's extra
// initialisation step — and reports which elements are hazardous and why.
//
// Run with: go run ./examples/libraryaudit
package main

import (
	"fmt"
	"log"

	"gfmap/internal/hazard"
	"gfmap/internal/library"
)

func main() {
	for _, name := range library.BuiltinNames {
		lib, err := library.Get(name)
		if err != nil {
			log.Fatal(err)
		}
		c := lib.Census()
		fmt.Printf("== %s: %d/%d cells hazardous (%d%%)\n",
			name, c.Hazardous, c.Total, c.PercentHazardous())
		for _, cell := range lib.HazardousCells() {
			fmt.Printf("   %-10s %-32s -> %s\n", cell.Name, cell.Fn.String(), cell.Report.Summary())
		}
		// Show one full report per library as an illustration: the
		// paper's compact records beside the exact transition sets.
		if cells := lib.HazardousCells(); len(cells) > 0 {
			cell := cells[0]
			rep, err := hazard.AnalyzeFunctionShared(cell.Fn, cell.SharedMask())
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\n   detailed report for %s:\n", cell.Name)
			fmt.Print(indent(rep.Describe(cell.Fn.Vars), "   | "))
		}
		fmt.Println()
	}
}

func indent(s, pad string) string {
	out := ""
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if i > start {
				out += pad + s[start:i] + "\n"
			}
			start = i + 1
		}
	}
	return out
}
