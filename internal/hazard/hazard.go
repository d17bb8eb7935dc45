// Package hazard implements the hazard-analysis algorithms of
// Siegel/De Micheli/Dill (DAC'93, §4): static logic 1-hazard analysis via
// cube adjacencies, static 0-hazard and single-input-change dynamic hazard
// analysis via path-labelled SOP, the multi-input-change dynamic hazard
// procedure findMicDynHaz2level with its multi-level extension, and
// Eichelberger ternary simulation as a verification oracle.
//
// Two granularities coexist:
//
//   - The compact algorithms mirror the paper and return hazard *records*
//     (cubes, transition-space families). They scale to wide functions and
//     drive the annotation of cells past the exact bound, the libaudit
//     reports and the hazardcheck CLI.
//   - Set is the exact transition-level characterisation used by the
//     mapper's matching filter (§3.2.2): for the small support sizes of
//     library cells and match clusters it enumerates every input transition
//     and classifies it, so the subset test "hazards(cell) ⊆
//     hazards(subnetwork)" of asyncmatchingroutine is exact.
package hazard

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"gfmap/internal/bexpr"
	"gfmap/internal/cube"
)

// Kind distinguishes the classes of logic hazards tracked by a Set.
type Kind int

// Hazard kinds.
const (
	KindStatic1 Kind = iota // output 1→0→1 glitch while it should stay 1
	KindStatic0             // output 0→1→0 glitch while it should stay 0
	KindDynamic             // extra glitch during an expected output change
)

func (k Kind) String() string {
	switch k {
	case KindStatic1:
		return "static-1"
	case KindStatic0:
		return "static-0"
	case KindDynamic:
		return "dynamic"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Transition is one multi-input-change transition between two input points.
// For static hazards the pair is stored unordered (From < To numerically).
// For dynamic hazards From is the point where the output is 0 and To the
// point where it is 1; the logic-hazard condition of Theorem 4.1 depends on
// which endpoint is the 1-point, not on the direction of travel, so one
// record covers both the rise From→To and the fall To→From.
type Transition struct {
	From uint64
	To   uint64
}

// MaxExhaustiveVars bounds the support size accepted by the exact
// transition-level analysis. Library cells and match clusters are ≤ 6
// inputs in the paper's libraries, far below the bound.
const MaxExhaustiveVars = 10

// Set is the exact logic-hazard characterisation of a single-output
// function implementation over n input variables.
type Set struct {
	N       int
	Static1 map[Transition]struct{}
	Static0 map[Transition]struct{}
	Dynamic map[Transition]struct{}
}

// NewSet returns an empty hazard set over n variables.
func NewSet(n int) *Set {
	return &Set{
		N:       n,
		Static1: make(map[Transition]struct{}),
		Static0: make(map[Transition]struct{}),
		Dynamic: make(map[Transition]struct{}),
	}
}

func (s *Set) add(k Kind, tr Transition) {
	switch k {
	case KindStatic1:
		s.Static1[normStatic(tr)] = struct{}{}
	case KindStatic0:
		s.Static0[normStatic(tr)] = struct{}{}
	case KindDynamic:
		s.Dynamic[tr] = struct{}{}
	}
}

func normStatic(tr Transition) Transition {
	if tr.From > tr.To {
		tr.From, tr.To = tr.To, tr.From
	}
	return tr
}

// Empty reports whether the set records no logic hazards at all.
func (s *Set) Empty() bool {
	return len(s.Static1) == 0 && len(s.Static0) == 0 && len(s.Dynamic) == 0
}

// Count returns the total number of hazardous transitions.
func (s *Set) Count() int { return len(s.Static1) + len(s.Static0) + len(s.Dynamic) }

// CountKind returns the number of hazardous transitions of one kind.
func (s *Set) CountKind(k Kind) int {
	switch k {
	case KindStatic1:
		return len(s.Static1)
	case KindStatic0:
		return len(s.Static0)
	case KindDynamic:
		return len(s.Dynamic)
	}
	return 0
}

// SubsetOf reports whether every hazardous transition of s is also a
// hazardous transition (of the same kind) of t — the acceptance condition
// of the paper's asyncmatchingroutine.
func (s *Set) SubsetOf(t *Set) bool {
	for tr := range s.Static1 {
		if _, ok := t.Static1[tr]; !ok {
			return false
		}
	}
	for tr := range s.Static0 {
		if _, ok := t.Static0[tr]; !ok {
			return false
		}
	}
	for tr := range s.Dynamic {
		if _, ok := t.Dynamic[tr]; !ok {
			return false
		}
	}
	return true
}

// Equal reports whether two sets record exactly the same hazards.
func (s *Set) Equal(t *Set) bool { return s.SubsetOf(t) && t.SubsetOf(s) }

// Binding describes how a library cell's inputs map onto a subnetwork's
// inputs during Boolean matching: cell input i connects to subnetwork
// variable Perm[i], complemented when InvIn bit i is set; InvOut records an
// inverted output match.
type Binding struct {
	Perm   []int
	InvIn  uint64
	InvOut bool
}

// mapPoint translates a point of the cell's input space into the
// subnetwork's input space.
func (b Binding) mapPoint(p uint64) uint64 {
	var out uint64
	for i, v := range b.Perm {
		bit := (p >> uint(i)) & 1
		if b.InvIn&(1<<uint(i)) != 0 {
			bit ^= 1
		}
		out |= bit << uint(v)
	}
	return out
}

// Translate maps the hazard set of a cell through a matching binding into
// the subnetwork's variable space. An inverted output exchanges static-1
// and static-0 hazards and swaps the endpoint roles of dynamic hazards: a
// glitch on the cell's output is observed, after the inversion, as the
// complementary glitch.
func (s *Set) Translate(b Binding, n int) *Set {
	out := NewSet(n)
	for tr := range s.Static1 {
		mapped := Transition{From: b.mapPoint(tr.From), To: b.mapPoint(tr.To)}
		if b.InvOut {
			out.add(KindStatic0, mapped)
		} else {
			out.add(KindStatic1, mapped)
		}
	}
	for tr := range s.Static0 {
		mapped := Transition{From: b.mapPoint(tr.From), To: b.mapPoint(tr.To)}
		if b.InvOut {
			out.add(KindStatic1, mapped)
		} else {
			out.add(KindStatic0, mapped)
		}
	}
	for tr := range s.Dynamic {
		mapped := Transition{From: b.mapPoint(tr.From), To: b.mapPoint(tr.To)}
		if b.InvOut {
			mapped.From, mapped.To = mapped.To, mapped.From
		}
		out.add(KindDynamic, mapped)
	}
	return out
}

// TranslatedSubsetOf reports whether the receiver's hazards, translated
// through binding b and restricted to transitions flipping at most
// maxBurst inputs (maxBurst <= 0 keeps all), are a subset of t. It is
// equivalent to s.Translate(b, n).FilterMaxBurst(maxBurst).SubsetOf(t)
// but never materialises the intermediate sets: each transition is
// mapped, filtered and looked up in t directly, so the matching filter's
// accept test allocates nothing.
func (s *Set) TranslatedSubsetOf(b Binding, maxBurst int, t *Set) bool {
	for tr := range s.Static1 {
		m := Transition{From: b.mapPoint(tr.From), To: b.mapPoint(tr.To)}
		if maxBurst > 0 && popcount64(m.From^m.To) > maxBurst {
			continue
		}
		m = normStatic(m)
		if b.InvOut {
			if _, ok := t.Static0[m]; !ok {
				return false
			}
		} else if _, ok := t.Static1[m]; !ok {
			return false
		}
	}
	for tr := range s.Static0 {
		m := Transition{From: b.mapPoint(tr.From), To: b.mapPoint(tr.To)}
		if maxBurst > 0 && popcount64(m.From^m.To) > maxBurst {
			continue
		}
		m = normStatic(m)
		if b.InvOut {
			if _, ok := t.Static1[m]; !ok {
				return false
			}
		} else if _, ok := t.Static0[m]; !ok {
			return false
		}
	}
	for tr := range s.Dynamic {
		m := Transition{From: b.mapPoint(tr.From), To: b.mapPoint(tr.To)}
		if b.InvOut {
			m.From, m.To = m.To, m.From
		}
		if maxBurst > 0 && popcount64(m.From^m.To) > maxBurst {
			continue
		}
		if _, ok := t.Dynamic[m]; !ok {
			return false
		}
	}
	return true
}

// String renders a short summary such as "static-1:2 static-0:0 dynamic:5".
func (s *Set) String() string {
	return fmt.Sprintf("static-1:%d static-0:%d dynamic:%d",
		len(s.Static1), len(s.Static0), len(s.Dynamic))
}

// Transitions returns the hazardous transitions of one kind in
// deterministic order.
func (s *Set) Transitions(k Kind) []Transition {
	m := s.kind(k)
	out := make([]Transition, 0, len(m))
	for tr := range m {
		out = append(out, tr)
	}
	slices.SortFunc(out, func(a, b Transition) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
	return out
}

// kind returns the set's transitions of kind k.
func (s *Set) kind(k Kind) map[Transition]struct{} {
	switch k {
	case KindStatic1:
		return s.Static1
	case KindStatic0:
		return s.Static0
	case KindDynamic:
		return s.Dynamic
	}
	return nil
}

// AppendTransitionKeys appends the transitions of kind k to dst as packed
// keys From<<32 | To, ascending — the order of Transitions — for sets over
// at most 32 variables, the only ones whose points fit. Sorting integers
// instead of pairs makes it the cheap way to walk a set in order.
func (s *Set) AppendTransitionKeys(dst []uint64, k Kind) []uint64 {
	if s.N > 32 {
		panic(fmt.Sprintf("hazard: transition keys of a %d-variable set", s.N))
	}
	n := len(dst)
	for tr := range s.kind(k) {
		dst = append(dst, tr.From<<32|tr.To)
	}
	slices.Sort(dst[n:])
	return dst
}

// Describe renders the hazardous transitions with variable names, for
// reports and the hazardcheck CLI.
func (s *Set) Describe(names []string) string {
	var b strings.Builder
	for _, k := range []Kind{KindStatic1, KindStatic0, KindDynamic} {
		trs := s.Transitions(k)
		if len(trs) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s hazards (%d):\n", k, len(trs))
		for _, tr := range trs {
			fmt.Fprintf(&b, "  %s <-> %s  (T = %s)\n",
				pointString(tr.From, s.N, names),
				pointString(tr.To, s.N, names),
				cube.Supercube(cube.Minterm(s.N, tr.From), cube.Minterm(s.N, tr.To)).StringVars(names))
		}
	}
	if b.Len() == 0 {
		return "no logic hazards\n"
	}
	return b.String()
}

func pointString(p uint64, n int, names []string) string {
	parts := make([]string, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("x%d", i)
		if i < len(names) {
			name = names[i]
		}
		parts[i] = fmt.Sprintf("%s=%d", name, (p>>uint(i))&1)
	}
	return strings.Join(parts, " ")
}

// FunctionHazardFree reports whether the multi-input-change transition
// between points a and b is free of function hazards: along every monotone
// path from a to b the function changes value at most once. The
// characterisation used: for every point x of T[a,b] with f(x) = f(b), f
// must be constant f(b) on T[x,b].
func FunctionHazardFree(f func(uint64) bool, n int, a, b uint64) bool {
	t := cube.Supercube(cube.Minterm(n, a), cube.Minterm(n, b))
	fb := f(b)
	var pts []uint64
	pts = t.Minterms(n, pts[:0])
	mb := cube.Minterm(n, b)
	var inner []uint64
	for _, x := range pts {
		if f(x) != fb {
			continue
		}
		txb := cube.Supercube(cube.Minterm(n, x), mb)
		inner = txb.Minterms(n, inner[:0])
		for _, y := range inner {
			if f(y) != fb {
				return false
			}
		}
	}
	return true
}

// Analyze computes the exact logic-hazard set of a multi-level expression
// by enumerating every input transition and classifying it with the
// path-skew interleaving model of the Simulator. The function's structure
// matters: two structures for the same function generally yield different
// sets (Figure 4). Supports up to MaxExhaustiveVars variables.
func Analyze(f *bexpr.Function) (*Set, error) {
	sim, err := NewSimulator(f)
	if err != nil {
		return nil, err
	}
	return sim.Analyze()
}

// MustAnalyze is Analyze that panics on error.
func MustAnalyze(f *bexpr.Function) *Set {
	s, err := Analyze(f)
	if err != nil {
		panic(err)
	}
	return s
}

// FilterMaxBurst returns a copy of the set keeping only hazards whose
// transition flips at most k input variables. In generalized
// fundamental-mode operation the environment issues bursts of bounded
// width, so hazards on wider multi-input changes are don't-cares: they can
// never be exercised. k <= 0 keeps every hazard. The result is always a
// fresh set, never the receiver: callers mutate filtered sets, and with
// cached analyses the receiver may be shared across goroutines.
func (s *Set) FilterMaxBurst(k int) *Set {
	out := NewSet(s.N)
	keep := func(tr Transition) bool {
		return k <= 0 || popcount64(tr.From^tr.To) <= k
	}
	for tr := range s.Static1 {
		if keep(tr) {
			out.Static1[tr] = struct{}{}
		}
	}
	for tr := range s.Static0 {
		if keep(tr) {
			out.Static0[tr] = struct{}{}
		}
	}
	for tr := range s.Dynamic {
		if keep(tr) {
			out.Dynamic[tr] = struct{}{}
		}
	}
	return out
}

func popcount64(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
