package core_test

import (
	"fmt"
	"testing"

	"gfmap/internal/bench"
	"gfmap/internal/core"
	"gfmap/internal/diffcheck"
	"gfmap/internal/eqn"
	"gfmap/internal/library"
	"gfmap/internal/network"
)

// TestDPMatchesReference solves every cone with the production covering
// DP and with the allocating reference DP kept in dp_ref_test.go, and
// requires the same cuts, costs and choice at every node, the same
// netlist, and the same deterministic statistics. Where probeAll is set,
// the reference runs a second time with the matcher that searches every
// binding of every same-pin-count cell, and must make the same choices.
// The corpus: the 15 benchmark designs on LSI9K and Actel in both modes
// and with wide clusters on CMOS3 (depth and leaves of 8); the 11 paper
// designs with hazard don't-cares on Actel (MaxBurst 1 and 2, which only
// the hazard filter sees, so the production matcher suffices); a library
// whose mux cell is hazardous only under multi-input changes, where
// MaxBurst decides the cover; and 100 generated designs, each on one
// library and mode in turn.
func TestDPMatchesReference(t *testing.T) {
	paper, err := bench.Designs()
	if err != nil {
		t.Fatal(err)
	}
	synthetic, err := bench.SynthDesigns()
	if err != nil {
		t.Fatal(err)
	}
	lsi, actel, cmos := library.MustGet("LSI9K"), library.MustGet("Actel"), library.MustGet("CMOS3")
	check := func(name string, net *network.Network, lib *library.Library, opts core.Options, probeAll bool) {
		t.Helper()
		core.CompareDPWithReference(t, fmt.Sprintf("%s/%s/%v", name, lib.Name, opts.Mode), net, lib, opts, probeAll)
	}
	modes := []core.Mode{core.Sync, core.Async}
	for _, d := range append(paper, synthetic...) {
		for _, lib := range []*library.Library{lsi, actel} {
			for _, mode := range modes {
				check(d.Name, d.Net, lib, core.Options{Mode: mode, Workers: 1}, true)
			}
		}
		check(d.Name+"/depth8", d.Net, cmos, core.Options{Mode: core.Async, Workers: 1, MaxDepth: 8, MaxLeaves: 8}, true)
	}
	for _, d := range paper {
		for _, burst := range []int{1, 2} {
			check(fmt.Sprintf("%s/burst%d", d.Name, burst), d.Net, actel,
				core.Options{Mode: core.Async, Workers: 1, MaxBurst: burst}, false)
		}
	}
	// The builtin libraries give MaxBurst nothing to decide. A
	// consensus-completed mux has only 2-input-change dynamic hazards, so
	// MaxBurst 1 admits it where MaxBurst 0 and 2 reject it.
	dc := library.New("dontcare")
	dc.MustAdd("INV", "a'", 0.3)
	dc.MustAdd("AND2", "a*b", 0.5)
	dc.MustAdd("OR2", "a + b", 0.5)
	dc.MustAdd("SAFEMUX", "s'*a + s*b + a*b", 0.8)
	muxes, err := eqn.ParseString(`
INPUT(s, a, b, t, c, d)
OUTPUT(f, g)
f = s'*a + s*b + a*b;
g = t'*c + t*d + c*d + f*s;
`, "muxes")
	if err != nil {
		t.Fatal(err)
	}
	for _, burst := range []int{0, 1, 2} {
		check(fmt.Sprintf("muxes/burst%d", burst), muxes, dc, core.Options{Mode: core.Async, Workers: 1, MaxBurst: burst}, true)
	}
	for seed := uint64(1); seed <= 100; seed++ {
		lib := []*library.Library{lsi, actel}[seed%2]
		mode := modes[seed/2%2]
		check(fmt.Sprintf("seed%d", seed), diffcheck.Generate(seed, diffcheck.GenConfig{}), lib,
			core.Options{Mode: mode, Workers: 1}, true)
	}
}
