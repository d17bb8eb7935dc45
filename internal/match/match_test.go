package match

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gfmap/internal/bexpr"
	"gfmap/internal/hazard"
	"gfmap/internal/truthtab"
)

func tt(t testing.TB, expr string) truthtab.TT {
	t.Helper()
	out, err := truthtab.FromExpr(bexpr.MustParse(expr))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// visitFunc adapts a closure to Visitor.
type visitFunc func(hazard.Binding) bool

func (f visitFunc) Visit(b hazard.Binding) bool { return f(b) }

// find runs a search of m against goal, handing fn a copy of each binding.
func find(m *Matcher, goal truthtab.TT, fn func(hazard.Binding) bool) {
	m.FindScratch(goal, goal.SigVec(), visitFunc(func(b hazard.Binding) bool {
		b.Perm = append([]int(nil), b.Perm...)
		return fn(b)
	}), new(Scratch))
}

// all collects every binding of cell to target, up to limit (<= 0 means
// no bound), from a matcher without symmetry classes. With allowInvOut it
// also matches the target's complement, reporting those bindings with
// InvOut set.
func all(target, cell truthtab.TT, allowInvOut bool, limit int) []hazard.Binding {
	if target.N != cell.N {
		return nil
	}
	var out []hazard.Binding
	m := NewMatcher(cell)
	collect := func(invOut bool) func(hazard.Binding) bool {
		return func(b hazard.Binding) bool {
			b.InvOut = invOut
			out = append(out, b)
			return limit <= 0 || len(out) < limit
		}
	}
	find(m, target, collect(false))
	if allowInvOut && (limit <= 0 || len(out) < limit) {
		find(m, target.Not(), collect(true))
	}
	return out
}

// first returns the first binding all finds, if any.
func first(target, cell truthtab.TT, allowInvOut bool) (hazard.Binding, bool) {
	bs := all(target, cell, allowInvOut, 1)
	if len(bs) == 0 {
		return hazard.Binding{}, false
	}
	return bs[0], true
}

// verify checks that a reported binding really transforms cell into target.
func verify(t *testing.T, target, cell truthtab.TT, b hazard.Binding) {
	t.Helper()
	got := cell.Transform(b.Perm, b.InvIn, b.InvOut, target.N)
	if !got.Equal(target) {
		t.Errorf("binding %+v does not reproduce target: %v vs %v", b, got, target)
	}
}

func TestIdentityMatch(t *testing.T) {
	and2 := tt(t, "a*b")
	b, ok := first(and2, and2, false)
	if !ok {
		t.Fatal("AND2 must match itself")
	}
	verify(t, and2, and2, b)
}

func TestPermutationMatch(t *testing.T) {
	target := tt(t, "a*b'") // target over (a,b)
	cell := tt(t, "a'*b")   // same function with inputs swapped
	bindings := all(target, cell, false, 0)
	if len(bindings) == 0 {
		t.Fatal("expected a permutation match")
	}
	for _, b := range bindings {
		verify(t, target, cell, b)
	}
}

func TestPhaseMatch(t *testing.T) {
	target := tt(t, "a'*b'")
	cell := tt(t, "a*b")
	bindings := all(target, cell, false, 0)
	if len(bindings) == 0 {
		t.Fatal("expected phase-assignment matches")
	}
	for _, b := range bindings {
		verify(t, target, cell, b)
		if b.InvIn == 0 {
			t.Error("match must invert both inputs")
		}
	}
}

func TestOutputPhaseMatch(t *testing.T) {
	target := tt(t, "(a*b)'")
	cell := tt(t, "a*b")
	if _, ok := first(target, cell, false); ok {
		t.Fatal("NAND must not match AND without output inversion")
	}
	b, ok := first(target, cell, true)
	if !ok {
		t.Fatal("NAND should match AND with output inversion")
	}
	if !b.InvOut {
		t.Error("binding should carry InvOut")
	}
	verify(t, target, cell, b)
}

func TestSymmetricCellEnumeratesAllPerms(t *testing.T) {
	target := tt(t, "a*b*c")
	cell := tt(t, "a*b*c")
	bindings := all(target, cell, false, 0)
	if len(bindings) != 6 {
		t.Errorf("AND3 self-match should yield 3! = 6 bindings, got %d", len(bindings))
	}
	for _, b := range bindings {
		verify(t, target, cell, b)
	}
}

func TestMuxMatch(t *testing.T) {
	// Matching a mux against a mux with data pins swapped requires the
	// select to be inverted.
	target := tt(t, "s'*a + s*b")
	cell := tt(t, "s'*b + s*a")
	bindings := all(target, cell, false, 0)
	if len(bindings) == 0 {
		t.Fatal("mux variants must match")
	}
	for _, b := range bindings {
		verify(t, target, cell, b)
	}
}

func TestNoMatchDifferentFunctions(t *testing.T) {
	target := tt(t, "a*b + c")
	cell := tt(t, "a + b + c")
	if _, ok := first(target, cell, true); ok {
		t.Error("functions with different NPN classes must not match")
	}
}

func TestNoMatchDifferentArity(t *testing.T) {
	target := tt(t, "a*b")
	cell := tt(t, "a*b*c")
	if _, ok := first(target, cell, true); ok {
		t.Error("different arities must not match")
	}
}

func TestAOIMatch(t *testing.T) {
	target := tt(t, "(a*b + c)'")
	cell := tt(t, "(x*y + z)'")
	b, ok := first(target, cell, false)
	if !ok {
		t.Fatal("AOI21 must match itself across naming")
	}
	verify(t, target, cell, b)
}

func TestXorMatchWithPhases(t *testing.T) {
	target := tt(t, "a*b' + a'*b")
	xnor := tt(t, "a*b + a'*b'")
	// XOR matches XNOR with one input inverted.
	bindings := all(target, xnor, false, 0)
	if len(bindings) == 0 {
		t.Fatal("XOR should match XNOR via an input phase flip")
	}
	for _, b := range bindings {
		verify(t, target, xnor, b)
	}
}

func BenchmarkMatchMux4(b *testing.B) {
	target := tt(b, "s'*t'*a + s*t'*b + s'*t*c + s*t*d")
	cell := tt(b, "x'*y'*p + x*y'*q + x'*y*r + x*y*w")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := first(target, cell, false); !ok {
			b.Fatal("mux4 should match")
		}
	}
}

// TestFindRecoversRandomTransform is the matching completeness property:
// for a random cell function and a random (permutation, phase) transform,
// the search must recover at least one binding reproducing the
// transformed target.
func TestFindRecoversRandomTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cfg := &quick.Config{MaxCount: 150, Rand: rng}
	prop := func(bits uint16, permSeed uint8, inv uint8) bool {
		n := 3
		cell, err := truthtab.FromFunc(n, func(p uint64) bool {
			return bits&(1<<p) != 0
		})
		if err != nil {
			return false
		}
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		r := rand.New(rand.NewSource(int64(permSeed)))
		r.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		target := cell.Transform(perm, uint64(inv)&0b111, false, n)
		found := false
		find(NewMatcher(cell), target, func(b hazard.Binding) bool {
			if cell.Transform(b.Perm, b.InvIn, b.InvOut, n).Equal(target) {
				found = true
			}
			return !found
		})
		return found
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
