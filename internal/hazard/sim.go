package hazard

import (
	"fmt"
	"math/bits"

	"gfmap/internal/bexpr"
)

// MaxSkewPaths bounds the number of simultaneously changing signal paths
// the interleaving simulation will enumerate exactly (2^k states). Library
// cells and match clusters stay far below this; wider cases return an
// error rather than a silently approximate answer.
const MaxSkewPaths = 20

// maxAnalyzeWork bounds the total number of interleaving states a full
// Analyze enumeration may visit, summed over all transition pairs. An
// expression with many repeated literals can be cheap per call but
// astronomically expensive in aggregate (the per-pair state count is
// exponential in the repeated-leaf count); past this budget Analyze
// returns an error and callers treat the cone as too wide for exact
// analysis, exactly like a support wider than MaxExhaustiveVars.
const maxAnalyzeWork = 1 << 27

// Node opcodes of the compiled expression program.
const (
	opConst = iota
	opVar
	opNot
	opAnd
	opOr
)

// simNode is one expression node of the compiled program, stored in
// postorder (kids before parents, root last).
type simNode struct {
	op   uint8
	cval bool  // opConst: the constant value
	aux  int32 // opVar: leaf index; opAnd/opOr: kid count
}

// laneMasks[g] marks the lanes j of a word whose bit g is set: the subsets
// in which group g has switched, for the six groups that vary within one
// word. Groups 6 and up are constant across a word and select the word.
var laneMasks = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// Simulator classifies input transitions of a multi-level expression under
// the standard asynchronous delay model: every path from an input leaf to
// the output has its own arbitrary delay, so during a multi-input change
// the leaf values flip one at a time in an arbitrary order. The output
// glitches for some delay assignment iff it changes value more than
// permitted along some interleaving.
//
// The intermediate states of a transition are the subsets S of its
// independently switching path groups; v(S) is the output with the groups
// in S at their new value. One word-parallel kernel evaluates the compiled
// expression on 64 subsets per uint64 and decides the question directly:
// a static transition glitches iff v is not constant, a dynamic one iff
// some S1 ⊆ S2 has v(S1) = v(end) and v(S2) = v(start). The function-hazard
// test is the same kernel with one group per changing variable.
//
// On two-level SOP structures the model coincides with the cube conditions
// of Theorem 4.1 (a cube intersecting the transition space without
// containing the 1-endpoint can pulse); on multi-level structures it
// additionally accounts for shared paths, which is what makes, for
// example, (w+x)*y cleaner than w*y + x*y (Figure 4).
type Simulator struct {
	f        *bexpr.Function
	n        int
	leafVar  []int    // variable index of each leaf, in DFS order
	varPaths []uint64 // for each variable, bitmask of its leaf indices
	tt       []uint64 // truth table bitset, point p at bit p
	// shared marks variables whose leaf occurrences ride one physical
	// wire and therefore switch atomically — the pass-transistor (Actel
	// Act2) select model of the paper's §6: in a transmission-gate mux
	// tree the reconvergent select literals are not independent paths.
	shared uint64
	// multiPath marks variables that contribute more than one independent
	// path group. A transition flipping none of them has its interleaving
	// behaviour fully determined by the function's truth table, so the
	// path analysis can be skipped.
	multiPath uint64

	nodes []simNode

	// Kernel scratch: the switching groups of the current transition, the
	// value word of every leaf, the evaluation stack, and the 2^k-bit set
	// of subsets whose value equals the end value.
	groups []uint64
	leaves []uint64
	stack  []uint64
	ends   []uint64
}

// NewSimulator prepares a simulator for the expression. It requires at
// most MaxExhaustiveVars variables and MaxSkewPaths leaves per variable
// group involved in any transition (checked per call).
func NewSimulator(f *bexpr.Function) (*Simulator, error) {
	return NewSimulatorShared(f, 0)
}

// NewSimulatorShared prepares a simulator in which the variables of the
// given bitmask have shared (atomically switching) paths.
func NewSimulatorShared(f *bexpr.Function, shared uint64) (*Simulator, error) {
	n := f.NumVars()
	if n > MaxExhaustiveVars {
		return nil, fmt.Errorf("hazard: %d variables exceed the exact-analysis bound %d", n, MaxExhaustiveVars)
	}
	s := &Simulator{f: f, n: n, varPaths: make([]uint64, n), shared: shared}
	var compile func(e *bexpr.Expr) error
	compile = func(e *bexpr.Expr) error {
		switch e.Op {
		case bexpr.OpConst:
			s.nodes = append(s.nodes, simNode{op: opConst, cval: e.Val})
		case bexpr.OpVar:
			idx := len(s.leafVar)
			if idx >= 64 {
				return fmt.Errorf("hazard: expression has more than 64 leaves")
			}
			v := s.f.VarIndex(e.Name)
			s.leafVar = append(s.leafVar, v)
			s.varPaths[v] |= 1 << uint(idx)
			s.nodes = append(s.nodes, simNode{op: opVar, aux: int32(idx)})
		case bexpr.OpNot, bexpr.OpAnd, bexpr.OpOr:
			for _, k := range e.Kids {
				if err := compile(k); err != nil {
					return err
				}
			}
			op := uint8(opNot)
			switch e.Op {
			case bexpr.OpAnd:
				op = opAnd
			case bexpr.OpOr:
				op = opOr
			}
			s.nodes = append(s.nodes, simNode{op: op, aux: int32(len(e.Kids))})
		default:
			return fmt.Errorf("hazard: bad op %v", e.Op)
		}
		return nil
	}
	if err := compile(f.Root); err != nil {
		return nil, err
	}
	s.leaves = make([]uint64, len(s.leafVar))
	s.stack = make([]uint64, 0, len(s.nodes))
	for v := 0; v < n; v++ {
		if s.groupCount(v) > 1 {
			s.multiPath |= 1 << uint(v)
		}
	}
	// The truth table is the kernel run from the all-zero point with one
	// group per variable: subset S is then the point S itself.
	s.tt = make([]uint64, words(n))
	s.scan(0, s.varPaths, func(w int, x uint64) bool {
		s.tt[w] = x
		return false
	})
	return s, nil
}

// groupCount returns the number of independently switching path groups of
// a variable: one per leaf occurrence, or one in total if the variable's
// paths are shared.
func (s *Simulator) groupCount(v int) int {
	if s.varPaths[v] == 0 {
		return 0
	}
	if s.shared&(1<<uint(v)) != 0 {
		return 1
	}
	return bits.OnesCount64(s.varPaths[v])
}

// value returns the function's value at a point.
func (s *Simulator) value(p uint64) bool { return s.tt[p>>6]>>(p&63)&1 != 0 }

// words returns the number of uint64 words holding one bit per subset of
// k groups.
func words(k int) int {
	if k <= 6 {
		return 1
	}
	return 1 << uint(k-6)
}

// scan evaluates the expression on every subset of the switching groups
// of a transition from point a, 64 subsets per word: lane j of word w is
// the subset with bits j (groups 0–5) and w (groups 6 and up). Words are
// visited in Gray-code order, so each step complements the leaves of one
// group. visit receives the word index and the root values; it returns
// true to stop the scan early. With fewer than six groups the lanes past
// 2^k repeat the valid ones.
func (s *Simulator) scan(a uint64, groups []uint64, visit func(w int, x uint64) bool) {
	for i, v := range s.leafVar {
		s.leaves[i] = -(a >> uint(v) & 1)
	}
	for g, leaves := range groups[:min(len(groups), 6)] {
		s.complement(leaves, laneMasks[g])
	}
	nw, gray := words(len(groups)), 0
	for i := 1; ; i++ {
		if visit(gray, s.eval()) || i == nw {
			return
		}
		j := bits.TrailingZeros(uint(i))
		s.complement(groups[6+j], ^uint64(0))
		gray ^= 1 << uint(j)
	}
}

// complement flips the given leaves in the lanes of mask.
func (s *Simulator) complement(leaves, mask uint64) {
	for ; leaves != 0; leaves &= leaves - 1 {
		s.leaves[bits.TrailingZeros64(leaves)] ^= mask
	}
}

// eval runs the compiled program on the current leaf words and returns
// the root word.
func (s *Simulator) eval() uint64 {
	st := s.stack[:0]
	for _, nd := range s.nodes {
		switch nd.op {
		case opConst:
			var x uint64
			if nd.cval {
				x = ^x
			}
			st = append(st, x)
		case opVar:
			st = append(st, s.leaves[nd.aux])
		case opNot:
			st[len(st)-1] = ^st[len(st)-1]
		case opAnd:
			m := len(st) - int(nd.aux)
			x := st[m]
			for _, y := range st[m+1:] {
				x &= y
			}
			st = append(st[:m], x)
		case opOr:
			m := len(st) - int(nd.aux)
			x := st[m]
			for _, y := range st[m+1:] {
				x |= y
			}
			st = append(st[:m], x)
		}
	}
	return st[0]
}

// glitches reports whether the transition from point a, switching the
// given groups, changes the output more often than its endpoint values
// start and end require under some interleaving. A static transition
// (start == end) glitches iff some subset's value differs from the
// endpoints': every subset lies on a monotone chain, so one deviation is
// two output changes. A dynamic one glitches iff some S1 ⊆ S2 has
// v(S1) = end and v(S2) = start — the chain ∅ ⊂ S1 ⊂ S2 ⊂ all then
// changes at least three times. Such a pair exists iff the set E of
// end-valued subsets is not closed under supersets, and E is closed under
// supersets iff adding any single group to a member stays in E; the kernel
// checks that one group at a time, within each word by shifting lanes and
// across words in the 2^k-bit bitset.
func (s *Simulator) glitches(a uint64, groups []uint64, start, end bool) bool {
	k := len(groups)
	lanes := ^uint64(0)
	if k < 6 {
		lanes = 1<<(1<<uint(k)) - 1
	}
	var endWord uint64
	if end {
		endWord = ^endWord
	}
	hazard := false
	if start == end {
		s.scan(a, groups, func(_ int, x uint64) bool {
			hazard = (x^endWord)&lanes != 0
			return hazard
		})
		return hazard
	}
	nw := words(k)
	if cap(s.ends) < nw {
		s.ends = make([]uint64, nw)
	}
	ends := s.ends[:nw]
	s.scan(a, groups, func(w int, x uint64) bool {
		e := ^(x ^ endWord) & lanes
		for g := 0; g < min(k, 6); g++ {
			if (e&^laneMasks[g])<<(1<<uint(g))&^e != 0 {
				hazard = true
				return true
			}
		}
		ends[w] = e
		return false
	})
	if hazard {
		return true
	}
	for j := 0; j < k-6; j++ {
		bit := 1 << uint(j)
		for w := range ends {
			if w&bit == 0 && ends[w]&^ends[w|bit] != 0 {
				return true
			}
		}
	}
	return false
}

// changingGroups collects the independently switching groups of leaf
// indices for the transition a→b: one group per leaf for ordinary
// variables, one group per variable for shared ones.
func (s *Simulator) changingGroups(a, b uint64) ([]uint64, error) {
	changing := a ^ b
	groups := s.groups[:0]
	for v := 0; v < s.n; v++ {
		if changing&(1<<uint(v)) == 0 {
			continue
		}
		if s.shared&(1<<uint(v)) != 0 {
			if s.varPaths[v] != 0 {
				groups = append(groups, s.varPaths[v])
			}
			continue
		}
		paths := s.varPaths[v]
		for paths != 0 {
			bit := paths & -paths
			paths &^= bit
			groups = append(groups, bit)
		}
	}
	s.groups = groups
	if k := len(groups); k > MaxSkewPaths {
		return nil, fmt.Errorf("hazard: transition flips %d paths, exceeding the %d-path bound", k, MaxSkewPaths)
	}
	return groups, nil
}

// functionHazard reports whether the function itself — every changing
// variable one group, all its leaves switching together — changes more
// often along some monotone path from a to b than the endpoints require.
// Variables without leaves cannot move the value and are left out.
func (s *Simulator) functionHazard(a, b uint64) bool {
	groups := s.groups[:0]
	for v := 0; v < s.n; v++ {
		if (a^b)&(1<<uint(v)) != 0 && s.varPaths[v] != 0 {
			groups = append(groups, s.varPaths[v])
		}
	}
	s.groups = groups
	return s.glitches(a, groups, s.value(a), s.value(b))
}

// Classify determines whether the transition between points a and b is
// logic-hazardous in this implementation, returning the hazard kind and
// whether a logic hazard is present. Function-hazardous transitions are
// never logic hazards (ok=false, hazard=false).
func (s *Simulator) Classify(a, b uint64) (kind Kind, hazardous bool, err error) {
	fa, fb := s.value(a), s.value(b)
	if s.functionHazard(a, b) {
		return 0, false, nil
	}
	switch {
	case fa != fb:
		kind = KindDynamic
	case fa:
		kind = KindStatic1
	default:
		kind = KindStatic0
	}
	// When every changing variable contributes at most one independent
	// path group, leaf-subset evaluation coincides with truth-table
	// evaluation: the interleaving behaviour is exactly the function's, so
	// a function-hazard-free transition cannot be logic-hazardous.
	if (a^b)&s.multiPath == 0 {
		return kind, false, nil
	}
	groups, err := s.changingGroups(a, b)
	if err != nil {
		return 0, false, err
	}
	return kind, s.glitches(a, groups, fa, fb), nil
}

// AnalyzeShared computes the exact hazard set of an expression in which
// the masked variables have shared paths (the pass-transistor model).
func AnalyzeShared(f *bexpr.Function, shared uint64) (*Set, error) {
	sim, err := NewSimulatorShared(f, shared)
	if err != nil {
		return nil, err
	}
	return sim.Analyze()
}

// analyzeWorkEstimate bounds the total interleaving-state count of a full
// pair enumeration: summed over all ordered endpoint pairs, each changing
// variable multiplies the per-pair state count by 2^groups, so the total
// is the product over variables of (2 + 2·2^groups) — halved for
// unordered pairs. Floating point keeps wide cases from overflowing.
func (s *Simulator) analyzeWorkEstimate() float64 {
	est := 0.5
	for v := 0; v < s.n; v++ {
		est *= 2 + 2*float64(uint64(1)<<uint(s.groupCount(v)))
	}
	return est
}

// Analyze builds the exact hazard set of the implementation. Only the
// unordered endpoint pairs that flip a multi-path variable are
// classified: every other pair is hazard-free by Classify's truth-table
// rule. Pairs are visited in ascending (a, b) order, so the first pair to
// exceed MaxSkewPaths is the same as in a full enumeration.
func (s *Simulator) Analyze() (*Set, error) {
	if est := s.analyzeWorkEstimate(); est > maxAnalyzeWork {
		return nil, fmt.Errorf("hazard: exact analysis needs ~%.2g interleaving states, exceeding the %d budget (expression repeats too many literals)", est, int64(maxAnalyzeWork))
	}
	set := NewSet(s.n)
	if s.multiPath == 0 {
		return set, nil
	}
	size := uint64(1) << uint(s.n)
	for a := uint64(0); a < size; a++ {
		for b := a + 1; b < size; b++ {
			if (a^b)&s.multiPath == 0 {
				continue
			}
			kind, hazardous, err := s.Classify(a, b)
			if err != nil {
				return nil, err
			}
			if !hazardous {
				continue
			}
			tr := Transition{From: a, To: b}
			if kind == KindDynamic && s.value(a) {
				tr = Transition{From: b, To: a} // From is the 0-endpoint
			}
			set.add(kind, tr)
		}
	}
	return set, nil
}

// DynamicTransitionHazardous reports whether the specific
// function-hazard-free transition from the 0-point zero to the 1-point one
// exhibits a dynamic logic hazard in this implementation.
func (s *Simulator) DynamicTransitionHazardous(zero, one uint64) (bool, error) {
	if (zero^one)&s.multiPath == 0 {
		// Single-path-per-variable: interleavings reproduce exactly the
		// function's own behaviour.
		return s.functionHazard(zero, one), nil
	}
	groups, err := s.changingGroups(zero, one)
	if err != nil {
		return false, err
	}
	return s.glitches(zero, groups, s.value(zero), s.value(one)), nil
}
