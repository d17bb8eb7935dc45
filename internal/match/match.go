// Package match implements Boolean matching of cluster functions against
// library cells, in the style of the CERES mapper: equivalence is detected
// up to input permutation, input phase assignment and output phase, with
// cofactor-signature pruning. The returned bindings are exactly what the
// asynchronous matching filter of the paper needs: they say which cell pin
// drives which subnetwork input, so the cell's hazard set can be translated
// into the subnetwork's space and compared (§3.2.2).
//
// A Matcher wraps one side of a match (typically a library cell) with its
// signature vector memoized and, optionally, symmetry classes over its
// pins. Symmetric pins are interchangeable both functionally and in their
// hazard behaviour, so the permutation search enumerates one canonical
// representative per symmetry orbit instead of the whole orbit —
// collapsing e.g. AND6's 720 pin orderings to 1. A matcher without
// classes (NewMatcher) enumerates every binding.
package match

import (
	"gfmap/internal/hazard"
	"gfmap/internal/truthtab"
)

// Matcher carries a match subject with memoized pruning data: the
// signature vector (computed once, shared across every probe) and the
// pin symmetry classes. A Matcher is read-only after construction and
// safe for concurrent use.
type Matcher struct {
	tt  truthtab.TT
	sig truthtab.SigVector
	// prev[i] is the previous pin in pin i's symmetry class, or -1. A
	// binding is its orbit's canonical representative iff the bound target
	// variables ascend along every class chain.
	prev  []int
	orbit int // bindings per orbit: product of class-size factorials
}

// NewMatcher builds a matcher with no symmetry information: every pin is
// its own class, so its search enumerates every binding.
func NewMatcher(tt truthtab.TT) *Matcher {
	m := &Matcher{tt: tt, sig: tt.SigVec(), orbit: 1, prev: make([]int, tt.N)}
	for i := range m.prev {
		m.prev[i] = -1
	}
	return m
}

// NewSymMatcher builds a matcher with pin symmetry classes. classOf[i]
// names pin i's class; pins sharing a class value must be provably
// interchangeable — the function and (for hazardous cells) the hazard set
// invariant under every swap within the class. The caller vouches for
// that; library.Annotate derives the classes from TT.SymmetricPair plus a
// hazard-set swap-invariance check.
func NewSymMatcher(tt truthtab.TT, classOf []int) *Matcher {
	m := NewMatcher(tt)
	last := make(map[int]int, tt.N)
	size := make(map[int]int, tt.N)
	for i := 0; i < tt.N; i++ {
		c := classOf[i]
		if p, ok := last[c]; ok {
			m.prev[i] = p
		}
		last[c] = i
		size[c]++
	}
	for _, s := range size {
		for k := 2; k <= s; k++ {
			m.orbit *= k
		}
	}
	return m
}

// Sig returns the memoized signature vector. The caller must not mutate
// the shared C0/C1 slices.
func (m *Matcher) Sig() truthtab.SigVector { return m.sig }

// Orbit returns the number of bindings in each symmetry orbit (1 when the
// matcher has no symmetry classes).
func (m *Matcher) Orbit() int { return m.orbit }

// Representative reports whether perm is the canonical representative of
// its symmetry orbit: target variables ascend along every symmetry-class
// chain. With no symmetry classes every binding is a representative.
// Bindings yielded by FindScratch are always representatives; of a whole
// orbit, as a matcher without classes enumerates it, exactly one binding
// satisfies this predicate.
func (m *Matcher) Representative(perm []int) bool {
	for i, p := range m.prev {
		if p >= 0 && perm[i] < perm[p] {
			return false
		}
	}
	return true
}

// Visitor receives bindings from a search. The Binding passed to Visit
// aliases search-owned scratch: Perm is valid only for the duration of
// the call and must be copied if retained. Returning false stops the
// enumeration.
type Visitor interface {
	Visit(hazard.Binding) bool
}

// Scratch holds the permutation-search state: the search frame, the
// perm/usedVar working arrays, and a transform destination table. One
// Scratch serves any number of sequential searches with zero steady-state
// allocation; it must not be shared between concurrent searches.
type Scratch struct {
	s       search
	perm    []int
	usedVar []bool
	tmp     truthtab.TT
}

// Scrub zeroes the request-derived contents of the scratch — the last
// search's permutation and transform words — while keeping the buffers
// for reuse. Pools that recycle a Scratch across requests call this so a
// recycled scratch carries no data from the request that filled it. (The
// search frame itself is already dropped at the end of every run.)
func (sc *Scratch) Scrub() {
	clear(sc.perm)
	clear(sc.usedVar)
	sc.tmp.N = 0
	clear(sc.tmp.Bits)
}

// FindScratch enumerates one representative binding per symmetry orbit
// under which the matcher's function equals goal (direct output phase;
// the mapper handles output inversion by dual-phase covering). goalSig
// must be goal's signature vector — passed in so the caller can compute
// it once per cluster and share it across cells and phases. Search state
// is drawn from sc, and bindings are delivered through v with Perm
// aliasing scratch (copy to retain). Enumeration stops when v returns
// false. Steady state allocates nothing.
func (m *Matcher) FindScratch(goal truthtab.TT, goalSig truthtab.SigVector, v Visitor, sc *Scratch) {
	if m.tt.N != goal.N || m.sig.Ones != goalSig.Ones {
		return
	}
	n := m.tt.N
	if cap(sc.perm) < n {
		sc.perm = make([]int, n)
		sc.usedVar = make([]bool, n)
	}
	clear(sc.usedVar[:n])
	s := &sc.s
	*s = search{
		cell:    m.tt,
		goal:    goal,
		cellSig: m.sig,
		goalSig: goalSig,
		prev:    m.prev,
		n:       n,
		v:       v,
		perm:    sc.perm[:n],
		usedVar: sc.usedVar[:n],
		tmp:     &sc.tmp,
	}
	s.assign(0)
	// Drop every reference to caller-owned data before the scratch goes
	// back to a pool: a canceled request's tables, signatures and visitor
	// must not stay reachable from reused worker state.
	*s = search{}
}

// Phase-candidate slices are shared read-only constants so phasesFor never
// allocates on the hot path.
var (
	phBoth = []bool{false, true}
	phPos  = []bool{false}
	phNeg  = []bool{true}
)

type search struct {
	cell, goal       truthtab.TT
	cellSig, goalSig truthtab.SigVector
	prev             []int
	n                int
	v                Visitor
	tmp              *truthtab.TT // transform destination
	perm             []int
	inv              uint64
	usedVar          []bool
}

// assign binds cell input i onward; returns false when enumeration should
// stop entirely.
func (s *search) assign(i int) bool {
	if i == s.n {
		// goal already accounts for the output phase, so transform without it.
		s.cell.TransformInto(s.perm, s.inv, false, s.n, s.tmp)
		if !s.tmp.Equal(s.goal) {
			return true
		}
		return s.v.Visit(hazard.Binding{Perm: s.perm, InvIn: s.inv})
	}
	cs := s.cellSig.Var(i)
	// Symmetry pruning: pins of one class are interchangeable, so any
	// binding with descending target variables along a class chain is a
	// duplicate of the representative with them ascending — skip the
	// variables below the previous class member's assignment.
	minV := 0
	if s.prev[i] >= 0 {
		minV = s.perm[s.prev[i]] + 1
	}
	for v := minV; v < s.n; v++ {
		if s.usedVar[v] {
			continue
		}
		if cs != s.goalSig.Var(v) {
			continue
		}
		s.usedVar[v] = true
		s.perm[i] = v
		// Try both phases when the signature is symmetric, otherwise the
		// phase is forced by cofactor alignment; a full check happens at the
		// leaf anyway, so phase pruning is purely an optimisation.
		phases := s.phasesFor(i, v)
		for _, ph := range phases {
			if ph {
				s.inv |= 1 << uint(i)
			} else {
				s.inv &^= 1 << uint(i)
			}
			if !s.assign(i + 1) {
				s.usedVar[v] = false
				return false
			}
		}
		s.inv &^= 1 << uint(i)
		s.usedVar[v] = false
	}
	return true
}

// phasesFor decides which input phases are worth trying for binding cell
// input i to goal variable v, using the ordered cofactor ON-set sizes from
// the memoized signature vectors (no truth-table work).
func (s *search) phasesFor(i, v int) []bool {
	c0, c1 := s.cellSig.C0[i], s.cellSig.C1[i]
	g0, g1 := s.goalSig.C0[v], s.goalSig.C1[v]
	switch {
	case c0 == c1:
		return phBoth
	case c0 == g0 && c1 == g1:
		return phPos
	case c0 == g1 && c1 == g0:
		return phNeg
	default:
		return nil
	}
}
