package match

import (
	"testing"

	"gfmap/internal/hazard"
)

// oneClass returns the pin classes "every pin in one class" for a totally
// symmetric function.
func oneClass(n int) []int { return make([]int, n) }

// A visitor returning false stops the search at once.
func TestAllLimitOne(t *testing.T) {
	and3 := tt(t, "a*b*c")
	got := all(and3, and3, false, 1)
	if len(got) != 1 {
		t.Fatalf("all with limit=1 returned %d bindings, want 1", len(got))
	}
	verify(t, and3, and3, got[0])
}

func TestAllLimitNonPositiveMeansUnbounded(t *testing.T) {
	and3 := tt(t, "a*b*c")
	for _, limit := range []int{0, -1, -100} {
		got := all(and3, and3, false, limit)
		if len(got) != 6 {
			t.Fatalf("all with limit=%d returned %d bindings, want all 6", limit, len(got))
		}
	}
}

func TestSymMatcherCollapsesOrbit(t *testing.T) {
	and6 := tt(t, "a*b*c*d*e*f")
	m := NewSymMatcher(and6, oneClass(6))
	if m.Orbit() != 720 {
		t.Fatalf("AND6 orbit=%d, want 6!=720", m.Orbit())
	}
	var pruned, full []hazard.Binding
	find(m, and6, func(b hazard.Binding) bool {
		pruned = append(pruned, b)
		return true
	})
	find(NewMatcher(and6), and6, func(b hazard.Binding) bool {
		full = append(full, b)
		return true
	})
	if len(pruned) != 1 {
		t.Fatalf("pruned search found %d bindings, want 1 representative", len(pruned))
	}
	if len(full) != 720 {
		t.Fatalf("unpruned search found %d bindings, want 720", len(full))
	}
	verify(t, and6, and6, pruned[0])
	// Exactly one member of the orbit is the canonical representative, and
	// it is the one the pruned search yields.
	reps := 0
	for _, b := range full {
		if m.Representative(b.Perm) {
			reps++
		}
	}
	if reps != 1 {
		t.Fatalf("%d representatives in a single orbit, want 1", reps)
	}
	if !m.Representative(pruned[0].Perm) {
		t.Fatal("pruned search yielded a non-representative binding")
	}
}

// A partially symmetric cell: pins a,b are interchangeable, c is not.
func TestSymMatcherPartialClasses(t *testing.T) {
	fn := tt(t, "(a+b)*c")
	m := NewSymMatcher(fn, []int{0, 0, 1})
	if m.Orbit() != 2 {
		t.Fatalf("orbit=%d, want 2!=2", m.Orbit())
	}
	var pruned, full int
	find(m, fn, func(hazard.Binding) bool { pruned++; return true })
	find(NewMatcher(fn), fn, func(hazard.Binding) bool { full++; return true })
	if full != 2*pruned {
		t.Fatalf("unpruned=%d pruned=%d: want exactly orbit x representatives", full, pruned)
	}
}

// The pruned search must not lose matches when the target's variable order
// differs from the cell's.
func TestSymMatcherFindsPermutedTargets(t *testing.T) {
	cell := tt(t, "(a*b)+c")
	targets := []string{"(a*b)+c", "(a*c)+b", "(b*c)+a", "(a'*b')+c", "(c*a)+b'"}
	m := NewSymMatcher(cell, []int{0, 0, 1})
	for _, src := range targets {
		target := tt(t, src)
		found := 0
		find(m, target, func(b hazard.Binding) bool {
			verify(t, target, cell, b)
			found++
			return true
		})
		if found == 0 {
			t.Fatalf("pruned matcher missed target %q", src)
		}
	}
}

func TestMatcherSigAllocFree(t *testing.T) {
	m := NewMatcher(tt(t, "a*b+c*d"))
	if a := testing.AllocsPerRun(100, func() {
		_ = m.Sig()
	}); a != 0 {
		t.Fatalf("Matcher.Sig allocates %.1f times per run, want 0 (memoized)", a)
	}
}
