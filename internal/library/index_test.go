package library

import (
	"testing"

	"gfmap/internal/hazard"
	"gfmap/internal/match"
	"gfmap/internal/truthtab"
)

// candidates returns the index bucket of a signature key.
func candidates(l *Library, key string) []*IndexedCell {
	return l.MatchIndex().Candidates([]byte(key))
}

// matchInfo returns cell c's indexed matcher from the bucket of its own
// signature key.
func matchInfo(l *Library, c *Cell) *IndexedCell {
	for _, ic := range candidates(l, c.TT.SigVec().CanonKey()) {
		if ic.Cell == c {
			return ic
		}
	}
	return nil
}

type visitFunc func(hazard.Binding) bool

func (f visitFunc) Visit(b hazard.Binding) bool { return f(b) }

// matches reports whether cell realises target under some input
// permutation, input phase and output phase.
func matches(target, cell truthtab.TT) bool {
	found := false
	stop := visitFunc(func(hazard.Binding) bool { found = true; return false })
	m := match.NewMatcher(cell)
	for _, goal := range []truthtab.TT{target, target.Not()} {
		m.FindScratch(goal, goal.SigVec(), stop, new(match.Scratch))
	}
	return found
}

// The match index must be exact as a filter: every cell that matches a
// target (in any permutation, input phase or output phase) must be in the
// target's candidate bucket. Here every cell plays the target role, so
// each must at minimum find itself, and any cross-cell match must stay
// within one bucket.
func TestIndexBucketsAreExactFilters(t *testing.T) {
	for _, name := range []string{"LSI9K", "CMOS3", "GDT", "Actel"} {
		lib, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%s): %v", name, err)
		}
		for _, target := range lib.Cells {
			key := target.TT.SigVec().CanonKey()
			cands := candidates(lib, key)
			inBucket := make(map[*Cell]bool, len(cands))
			for _, ic := range cands {
				inBucket[ic.Cell] = true
			}
			if !inBucket[target] {
				t.Fatalf("%s: cell %s missing from its own candidate bucket", name, target.Name)
			}
			for _, cell := range lib.Cells {
				if cell.NumPins() != target.NumPins() || inBucket[cell] {
					continue
				}
				if matches(target.TT, cell.TT) {
					t.Fatalf("%s: cell %s matches %s but is not in its bucket",
						name, cell.Name, target.Name)
				}
			}
		}
	}
}

func TestIndexCandidateOrderIsLibraryOrder(t *testing.T) {
	lib, err := Get("LSI9K")
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[*Cell]int, len(lib.Cells))
	for i, c := range lib.Cells {
		pos[c] = i
	}
	seen := map[string]bool{}
	for _, c := range lib.Cells {
		key := c.TT.SigVec().CanonKey()
		if seen[key] {
			continue
		}
		seen[key] = true
		cands := candidates(lib, key)
		for i := 1; i < len(cands); i++ {
			if pos[cands[i-1].Cell] >= pos[cands[i].Cell] {
				t.Fatalf("bucket %q not in library order: %s before %s",
					key, cands[i-1].Cell.Name, cands[i].Cell.Name)
			}
		}
	}
}

func TestNumCellsWithPins(t *testing.T) {
	lib, err := Get("CMOS3")
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= 8; n++ {
		want := 0
		for _, c := range lib.Cells {
			if c.NumPins() == n {
				want++
			}
		}
		if got := lib.MatchIndex().CellsWithPins(n); got != want {
			t.Fatalf("CellsWithPins(%d)=%d, want %d", n, got, want)
		}
	}
}

// Symmetry classes must collapse totally symmetric cells to one
// representative ordering and keep provably asymmetric pins apart.
func TestSymmetryClasses(t *testing.T) {
	lib := New("test")
	and4 := lib.MustAdd("AND4", "a*b*c*d", 1)
	mux := lib.MustAdd("MUX21", "s*a + s'*b", 1)
	if err := lib.Annotate(); err != nil {
		t.Fatal(err)
	}
	if got := matchInfo(lib, and4).Matcher.Orbit(); got != 24 {
		t.Fatalf("AND4 orbit=%d, want 4!=24", got)
	}
	// MUX21's select pin is not interchangeable with the data pins; the
	// data pins themselves are not functionally symmetric either (a is
	// selected by s, b by s').
	if got := matchInfo(lib, mux).Matcher.Orbit(); got != 1 {
		t.Fatalf("MUX21 orbit=%d, want 1", got)
	}
}

// Adding a cell after an index has been built must invalidate it.
func TestIndexRebuildsAfterAdd(t *testing.T) {
	lib := New("test")
	lib.MustAdd("AND2", "a*b", 1)
	key := lib.Cells[0].TT.SigVec().CanonKey()
	if got := len(candidates(lib, key)); got != 1 {
		t.Fatalf("initial bucket size=%d, want 1", got)
	}
	lib.MustAdd("NAND2", "(a*b)'", 1)
	// NAND2 is AND2's complement, so it shares the phase-folded key.
	if got := len(candidates(lib, key)); got != 2 {
		t.Fatalf("bucket size after Add=%d, want 2 (index not rebuilt?)", got)
	}
}
