package core

import (
	"errors"
	"strings"
	"testing"

	"gfmap/internal/blif"
	"gfmap/internal/eqn"
	"gfmap/internal/library"
	"gfmap/internal/network"
)

// fuzzLib is shared across fuzz iterations; library.Get caches and
// annotates once.
func fuzzLib(tb testing.TB) *library.Library {
	lib, err := library.Get("LSI9K")
	if err != nil {
		tb.Fatal(err)
	}
	return lib
}

// fuzzable bounds a parsed design so one fuzz iteration stays cheap and
// the exhaustive oracles stay exact.
func fuzzable(net *network.Network) bool {
	if len(net.Inputs) == 0 || len(net.Inputs) > 10 {
		return false
	}
	if net.NumNodes() == 0 || net.NumNodes() > 30 {
		return false
	}
	lits := 0
	for _, name := range net.NodeNames() {
		lits += net.Node(name).Expr.NumLiterals()
	}
	return lits <= 120
}

// FuzzMapEqn feeds arbitrary eqn text through parse → Map in both modes
// and asserts the crash and correctness invariants: no panic ever escapes
// (ErrInternal counts as one), and every successful mapping is
// well-formed and functionally equivalent to its source.
func FuzzMapEqn(f *testing.F) {
	f.Add("INPUT(a,b,c)\nOUTPUT(f)\nf = a*b + a'*c + b*c;\n")
	f.Add("INPUT(a,b)\nOUTPUT(f,g)\nh = a*b;\nf = h + a';\ng = h*b';\n")
	f.Add("INPUT(a)\nOUTPUT(f)\nf = !(a);\n")
	f.Add("INPUT(a,b,c,d,e,g,h,i,j,k,l)\nOUTPUT(z)\nz = a*b*c*d*e*g*h*i*j*k*l;\n")
	lib := fuzzLib(f)
	f.Fuzz(func(t *testing.T, src string) {
		net, err := eqn.ParseString(src, "fuzz")
		if err != nil {
			return // malformed input must yield an error, never a crash
		}
		if !fuzzable(net) {
			return
		}
		for _, mode := range []Mode{Sync, Async} {
			res, err := Map(net, lib, Options{Mode: mode, Workers: 1})
			if err != nil {
				if errors.Is(err, ErrInternal) {
					t.Fatalf("mode %v: internal panic: %v", mode, err)
				}
				continue // unmappable is acceptable; crashing is not
			}
			if verr := res.Netlist.Validate(); verr != nil {
				t.Fatalf("mode %v: malformed netlist: %v\n%s", mode, verr, src)
			}
			if eerr := VerifyEquivalence(net, res.Netlist); eerr != nil {
				t.Fatalf("mode %v: %v\n%s", mode, eerr, src)
			}
		}
	})
}

// FuzzRoundTrip exercises the full blif/eqn → map → emit → reparse loop:
// the mapped netlist, re-expressed as a network and re-serialised in both
// formats, must stay equivalent to the design we started from.
func FuzzRoundTrip(f *testing.F) {
	f.Add(".model m\n.inputs a b c\n.outputs f\n.names a b c f\n11- 1\n0-1 1\n.end\n")
	f.Add(".model m\n.inputs a b\n.outputs f g\n.names a b h\n11 1\n.names h a f\n10 1\n.names h b g\n01 1\n.end\n")
	f.Add("INPUT(a,b,c)\nOUTPUT(f)\nf = (a + b')*(c + a');\n")
	lib := fuzzLib(f)
	f.Fuzz(func(t *testing.T, src string) {
		var net *network.Network
		var err error
		if strings.Contains(src, ".model") || strings.Contains(src, ".names") {
			net, err = blif.Parse(strings.NewReader(src), "fuzz")
		} else {
			net, err = eqn.ParseString(src, "fuzz")
		}
		if err != nil {
			return
		}
		if !fuzzable(net) {
			return
		}
		res, err := Map(net, lib, Options{Mode: Async, Workers: 1})
		if err != nil {
			if errors.Is(err, ErrInternal) {
				t.Fatalf("internal panic: %v", err)
			}
			return
		}
		mapped, err := res.Netlist.ToNetwork()
		if err != nil {
			t.Fatalf("netlist does not convert back to a network: %v\n%s", err, src)
		}
		// eqn round trip of the mapped structure.
		esrc := eqn.WriteString(mapped)
		re, err := eqn.ParseString(esrc, "rt")
		if err != nil {
			t.Fatalf("mapped netlist does not reparse as eqn: %v\n%s", err, esrc)
		}
		if eq, err := network.Equivalent(net, re); err != nil {
			t.Fatalf("equivalence: %v", err)
		} else if !eq {
			t.Fatalf("eqn round trip changed the function\nsource:\n%s\nmapped:\n%s", src, esrc)
		}
		// blif round trip of the mapped structure.
		bsrc, err := blif.WriteString(mapped)
		if err != nil {
			t.Fatalf("mapped netlist does not serialise as blif: %v", err)
		}
		rb, err := blif.Parse(strings.NewReader(bsrc), "rt")
		if err != nil {
			t.Fatalf("mapped netlist does not reparse as blif: %v\n%s", err, bsrc)
		}
		if eq, err := network.Equivalent(net, rb); err != nil {
			t.Fatalf("equivalence: %v", err)
		} else if !eq {
			t.Fatalf("blif round trip changed the function\nsource:\n%s\nmapped:\n%s", src, bsrc)
		}
	})
}
