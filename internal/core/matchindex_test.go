package core

import (
	"fmt"
	"strings"
	"testing"

	"gfmap/internal/bexpr"
	"gfmap/internal/library"
	"gfmap/internal/network"
)

// The match index and symmetry pruning are pure accelerations: every DP
// choice and the mapped netlist must be those of the reference matcher
// that searches every binding of every same-pin-count cell, in both
// mapping modes, serial and parallel.
func TestMatchIndexBitIdentity(t *testing.T) {
	srcs := map[string]string{
		"simple": simpleSrc,
		"fig3": `
INPUT(a, b, c)
OUTPUT(f)
f = a*b + a'*c + b*c;
`,
		"mixed": `
INPUT(a, b, c, d, e, f)
OUTPUT(x, y, z)
u = a*b + c;
x = u*d' + e;
y = u + a'*f;
z = (u*e)' + d*f;
`,
	}
	for name, src := range srcs {
		for _, libName := range []string{"LSI9K", "Actel"} {
			lib := library.MustGet(libName)
			for _, mode := range []Mode{Sync, Async} {
				for _, workers := range []int{1, 8} {
					id := fmt.Sprintf("%s/%s/%v/w%d", name, libName, mode, workers)
					on, off := compareDP(t, id, parseNet(t, src, name), lib, Options{Mode: mode, Workers: workers}, true)
					if on.IndexProbes == 0 || off.IndexProbes != 0 {
						t.Errorf("%s: index-probe accounting wrong: on=%d off=%d", id, on.IndexProbes, off.IndexProbes)
					}
					if on.FindInvocations >= off.FindInvocations {
						t.Errorf("%s: index did not reduce Find invocations: %d vs %d",
							id, on.FindInvocations, off.FindInvocations)
					}
				}
			}
		}
	}
}

// MaxBindings bounds hazard-rejected bindings only: a hazard-free cell
// must have its whole binding space enumerated, even when the cheapest
// input-phase assignment appears far past the 32nd binding. The cell's
// XOR head matches the target under inv(a,b) ∈ {00, 11}; the 00 family is
// enumerated first and, with the 5! orderings of the AND tail interleaved,
// the first 11-family binding is number 121. Leaf costs are rigged so the
// 11 family is cheaper. The unpruned half runs the reference search of
// every binding; the pruned half is the production replay of the memo.
func TestMaxBindingsCountsOnlyRejectedBindings(t *testing.T) {
	lib := library.New("maxbind")
	cell := lib.MustAdd("XA7", "(a*b' + a'*b)*c*d*e*f*g", 1)
	rm := newRefMatch(lib, true)
	for _, pruned := range []bool{false, true} {
		m := &mapper{lib: lib, opts: Options{Mode: Sync}.withDefaults(), sc: new(coneScratch)}
		cm := &coneMapper{m: m, sc: m.sc}
		cm.nodes = make([]tnode, 8)
		varNodes := make([]int, 7)
		for v := 0; v < 7; v++ {
			cm.nodes[v] = tnode{op: bexpr.OpVar, signal: fmt.Sprintf("s%d", v)}
			if v < 2 {
				// Vars bound to the XOR pins: inverted inputs are cheap, so
				// only the late 11 family reaches the minimal cost.
				cm.nodes[v].cost = [2]cost{{area: 10}, {area: 1}}
			} else {
				cm.nodes[v].cost = [2]cost{{area: 0}, {area: 10}}
			}
			varNodes[v] = v
		}
		root := 7
		cm.nodes[root] = tnode{op: bexpr.OpAnd, cost: [2]cost{infCost, infCost}}
		fn := cell.Fn
		tsig := cell.TT.SigVec()
		if pruned {
			idx := lib.MatchIndex()
			list, err := idx.Matches(nil, idx.Candidates(tsig.AppendCanonKey(nil)), cell.TT, tsig, &m.sc.fill)
			if err != nil {
				t.Fatal(err)
			}
			cm.replay(root, phasePos, fn, list, varNodes)
		} else {
			cm.tryCellSlow(root, phasePos, fn, cell.TT, tsig, cell, varNodes, rm)
		}
		ch := cm.nodes[root].choice[phasePos]
		if ch == nil {
			t.Fatalf("pruned=%v: no choice recorded", pruned)
		}
		if ch.binding.InvIn != 0b11 {
			t.Errorf("pruned=%v: chose InvIn=%b, want the cheap 11 family — MaxBindings truncated a hazard-free cell",
				pruned, ch.binding.InvIn)
		}
		if want := cell.Area + 2; cm.nodes[root].cost[phasePos].area != want {
			t.Errorf("pruned=%v: best area %.1f, want %.1f", pruned, cm.nodes[root].cost[phasePos].area, want)
		}
		if !pruned && m.stats.MatchesFound <= m.opts.MaxBindings {
			t.Errorf("enumeration stopped after %d bindings without any rejection (limit %d misapplied)",
				m.stats.MatchesFound, m.opts.MaxBindings)
		}
	}
}

// enumCuts must keep the cut cross-product bounded for pathological
// fanins: the overflow break has to abandon the whole combination loop,
// not just one base, and the truncation must be recorded.
func TestEnumCutsCombinationBound(t *testing.T) {
	var terms []string
	for i := 0; i < 40; i++ {
		terms = append(terms, fmt.Sprintf("(x%d + y%d)", i, i))
	}
	fn := bexpr.MustParse(strings.Join(terms, "*"))
	m := &mapper{lib: library.MustGet("LSI9K"), opts: Options{Mode: Sync}.withDefaults(), sc: new(coneScratch)}
	cm, root := newConeMapper(t, m, network.Cone{Root: "y", Expr: fn})
	cuts := cm.enumCuts(root)
	if len(cuts) > maxCutsPerNode {
		t.Errorf("enumCuts returned %d cuts, bound is %d", len(cuts), maxCutsPerNode)
	}
	if m.stats.CutTruncations == 0 {
		t.Error("combo explosion not recorded in CutTruncations")
	}
}

// The symmetry classes must never be trusted blindly: every binding the
// pruned matcher returns has to reproduce the target exactly (the leaf
// check), including on multi-word tables, and the choices must be those
// of the reference search of every binding.
func TestPrunedMatchingWideCells(t *testing.T) {
	src := `
INPUT(a, b, c, d, e, f, g, h)
OUTPUT(y)
y = a*b*c*d*e*f*g*h;
`
	net := parseNet(t, src, "wide")
	lib := library.MustGet("CMOS3")
	opts := Options{Mode: Async, MaxDepth: 8, MaxLeaves: 8}
	if st, _ := compareDP(t, "wide", net, lib, opts, true); st.SymmetryPruned == 0 {
		t.Errorf("mapping an AND8 cone pruned no symmetric bindings: %+v", st)
	}
	on, err := Map(net, lib, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyEquivalence(net, on.Netlist); err != nil {
		t.Errorf("equivalence: %v", err)
	}
}
