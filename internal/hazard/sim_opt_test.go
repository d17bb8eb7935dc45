package hazard

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"gfmap/internal/bexpr"
)

// refSim is the per-subset interleaving evaluator the word-parallel kernel
// replaced, kept as its oracle. It walks the path subsets of a transition
// in Gray-code order, toggling one group's leaves per step and updating
// the ancestors incrementally (AND nodes count their false kids, OR nodes
// their true kids, so propagation stops at the first unchanged node), and
// decides hazards with a subset dynamic program over the changing paths.
// Its truth table comes from bexpr's own evaluator, not from the kernel.
type refSim struct {
	*Simulator
	val      []bool // truth table
	nodes    []refNode
	leafNode []int32 // postorder node index of each leaf
	stack    []bool  // scratch for evalInit
	vals     []bool  // root value per path subset
	mc       []int8  // DP table over path subsets
	// functionMaxChanges' tables, separate from vals and mc because
	// classify runs it before the path analyses that reuse those.
	fmcVals []bool
	fmcMC   []int8
}

// refNode is a compiled node with the incremental evaluator's state.
type refNode struct {
	simNode
	val    bool  // current value
	parent int32 // postorder index of the parent; -1 at the root
	count  int32 // opAnd: false kids; opOr: true kids
}

func newRefSim(s *Simulator) *refSim {
	r := &refSim{
		Simulator: s,
		val:       make([]bool, 1<<uint(s.n)),
		nodes:     make([]refNode, len(s.nodes)),
		leafNode:  make([]int32, len(s.leafVar)),
	}
	for p := range r.val {
		r.val[p] = s.f.Eval(uint64(p))
	}
	// Wire parents: walk the postorder with an explicit stack of pending
	// subtree roots.
	var kids []int32
	for i, nd := range s.nodes {
		r.nodes[i].simNode = nd
		switch nd.op {
		case opConst:
		case opVar:
			r.leafNode[nd.aux] = int32(i)
		case opNot:
			r.nodes[kids[len(kids)-1]].parent = int32(i)
			kids = kids[:len(kids)-1]
		case opAnd, opOr:
			m := int(nd.aux)
			for _, k := range kids[len(kids)-m:] {
				r.nodes[k].parent = int32(i)
			}
			kids = kids[:len(kids)-m]
		}
		kids = append(kids, int32(i))
	}
	r.nodes[len(r.nodes)-1].parent = -1
	return r
}

// evalInit initialises every node value (and the AND/OR kid counters) for
// an explicit value per leaf, given as a bitmask over DFS leaf indices,
// and returns the root value.
func (r *refSim) evalInit(leafBits uint64) bool {
	st := r.stack[:0]
	for i := range r.nodes {
		nd := &r.nodes[i]
		var v bool
		switch nd.op {
		case opConst:
			v = nd.cval
		case opVar:
			v = leafBits&(1<<uint(nd.aux)) != 0
		case opNot:
			v = !st[len(st)-1]
			st = st[:len(st)-1]
		case opAnd:
			m := int(nd.aux)
			f := int32(0)
			for _, kv := range st[len(st)-m:] {
				if !kv {
					f++
				}
			}
			st = st[:len(st)-m]
			nd.count = f
			v = f == 0
		case opOr:
			m := int(nd.aux)
			tc := int32(0)
			for _, kv := range st[len(st)-m:] {
				if kv {
					tc++
				}
			}
			st = st[:len(st)-m]
			nd.count = tc
			v = tc > 0
		}
		nd.val = v
		st = append(st, v)
	}
	r.stack = st[:0]
	return st[len(st)-1]
}

// flipLeaf toggles one leaf and incrementally re-evaluates the ancestors,
// stopping at the first node whose value does not change.
func (r *refSim) flipLeaf(leaf int) {
	i := r.leafNode[leaf]
	nd := &r.nodes[i]
	nd.val = !nd.val
	childVal := nd.val
	p := nd.parent
	for p >= 0 {
		pn := &r.nodes[p]
		var nv bool
		switch pn.op {
		case opNot:
			nv = !pn.val
		case opAnd:
			if childVal {
				pn.count--
			} else {
				pn.count++
			}
			nv = pn.count == 0
		case opOr:
			if childVal {
				pn.count++
			} else {
				pn.count--
			}
			nv = pn.count > 0
		}
		if nv == pn.val {
			return
		}
		pn.val = nv
		childVal = nv
		p = pn.parent
	}
}

// rootVal returns the current incrementally maintained root value.
func (r *refSim) rootVal() bool { return r.nodes[len(r.nodes)-1].val }

// leafBitsAt returns the leaf-value bitmask corresponding to a static
// input point.
func (r *refSim) leafBitsAt(p uint64) uint64 {
	var out uint64
	for i, v := range r.leafVar {
		if p&(1<<uint(v)) != 0 {
			out |= 1 << uint(i)
		}
	}
	return out
}

// fillVals enumerates every subset of the changing groups in Gray-code
// order — each step toggles the leaves of exactly one group — and records
// the root value per subset in r.vals.
func (r *refSim) fillVals(a uint64, groups []uint64) []bool {
	size := 1 << uint(len(groups))
	if cap(r.vals) < size {
		r.vals = make([]bool, size)
	}
	vals := r.vals[:size]
	vals[0] = r.evalInit(r.leafBitsAt(a))
	gray := 0
	for i := 1; i < size; i++ {
		j := bits.TrailingZeros64(uint64(i))
		for leaves := groups[j]; leaves != 0; {
			bit := leaves & -leaves
			leaves &^= bit
			r.flipLeaf(bits.TrailingZeros64(bit))
		}
		gray ^= 1 << uint(j)
		vals[gray] = r.rootVal()
	}
	return vals
}

// maxChangesDP runs the subset-lattice dynamic program over the filled
// vals table: mc[sub] = max changes along any monotone chain from the
// empty set to sub. If limit >= 0 the scan returns early with limit+1 as
// soon as any subset exceeds it.
func (r *refSim) maxChangesDP(vals []bool, limit int) int {
	size := len(vals)
	if cap(r.mc) < size {
		r.mc = make([]int8, size)
	}
	mc := r.mc[:size]
	mc[0] = 0
	for sub := 1; sub < size; sub++ {
		best := int8(-1)
		rest := sub
		for rest != 0 {
			j := bits.TrailingZeros64(uint64(rest))
			rest &^= 1 << uint(j)
			prev := sub &^ (1 << uint(j))
			c := mc[prev]
			if vals[sub] != vals[prev] {
				c++
			}
			if c > best {
				best = c
			}
		}
		mc[sub] = best
		if limit >= 0 && int(best) > limit {
			return limit + 1
		}
	}
	return int(mc[size-1])
}

// MaxOutputChanges returns the largest number of output value changes over
// all interleavings of the changing paths for the transition a→b.
func (r *refSim) MaxOutputChanges(a, b uint64) (int, error) {
	groups, err := r.changingGroups(a, b)
	if err != nil {
		return 0, err
	}
	return r.maxChangesDP(r.fillVals(a, groups), -1), nil
}

// staticPathHazard reports whether some path subset of the static
// transition a→b yields a root value different from the endpoints'.
func (r *refSim) staticPathHazard(a, b uint64) (bool, error) {
	groups, err := r.changingGroups(a, b)
	if err != nil {
		return false, err
	}
	want := r.evalInit(r.leafBitsAt(a))
	gray := 0
	for i := 1; i < 1<<uint(len(groups)); i++ {
		j := bits.TrailingZeros64(uint64(i))
		for leaves := groups[j]; leaves != 0; {
			bit := leaves & -leaves
			leaves &^= bit
			r.flipLeaf(bits.TrailingZeros64(bit))
		}
		gray ^= 1 << uint(j)
		if r.rootVal() != want {
			return true, nil
		}
	}
	return false, nil
}

// dynamicPathHazard reports whether the dynamic transition a→b changes the
// output more than once under some interleaving.
func (r *refSim) dynamicPathHazard(a, b uint64) (bool, error) {
	groups, err := r.changingGroups(a, b)
	if err != nil {
		return false, err
	}
	return r.maxChangesDP(r.fillVals(a, groups), 1) > 1, nil
}

// functionMaxChanges returns the largest number of value changes of the
// function along any monotone path of input points from a to b, by a DP
// over subsets of the changing variables.
func (r *refSim) functionMaxChanges(a, b uint64) int {
	var cv []uint64
	for v := 0; v < r.n; v++ {
		if (a^b)&(1<<uint(v)) != 0 {
			cv = append(cv, 1<<uint(v))
		}
	}
	size := 1 << uint(len(cv))
	if cap(r.fmcVals) < size {
		r.fmcVals = make([]bool, size)
		r.fmcMC = make([]int8, size)
	}
	vals, mc := r.fmcVals[:size], r.fmcMC[:size]
	for sub := range vals {
		p := a
		for j, m := range cv {
			if sub&(1<<uint(j)) != 0 {
				p = (p &^ m) | (b & m)
			}
		}
		vals[sub] = r.val[p]
	}
	mc[0] = 0
	for sub := 1; sub < size; sub++ {
		best := int8(-1)
		for rest := sub; rest != 0; rest &= rest - 1 {
			prev := sub &^ (rest & -rest)
			c := mc[prev]
			if vals[sub] != vals[prev] {
				c++
			}
			if c > best {
				best = c
			}
		}
		mc[sub] = best
	}
	return int(mc[size-1])
}

// classify is Classify as the per-subset evaluator computed it.
func (r *refSim) classify(a, b uint64) (Kind, bool, error) {
	fa, fb := r.val[a], r.val[b]
	fmc := r.functionMaxChanges(a, b)
	pure := (a^b)&r.multiPath == 0
	if fa == fb {
		if fmc > 0 {
			return 0, false, nil
		}
		kind := KindStatic0
		if fa {
			kind = KindStatic1
		}
		if pure {
			return kind, false, nil
		}
		hz, err := r.staticPathHazard(a, b)
		return kind, hz, err
	}
	if fmc > 1 {
		return 0, false, nil
	}
	if pure {
		return KindDynamic, false, nil
	}
	hz, err := r.dynamicPathHazard(a, b)
	return KindDynamic, hz, err
}

// analyze is the every-pair Analyze loop over the per-subset evaluator.
func (r *refSim) analyze() (*Set, error) {
	if est := r.analyzeWorkEstimate(); est > maxAnalyzeWork {
		return nil, fmt.Errorf("hazard: exact analysis needs ~%.2g interleaving states, exceeding the %d budget (expression repeats too many literals)", est, int64(maxAnalyzeWork))
	}
	set := NewSet(r.n)
	size := uint64(1) << uint(r.n)
	for a := uint64(0); a < size; a++ {
		for b := a + 1; b < size; b++ {
			kind, hazardous, err := r.classify(a, b)
			if err != nil {
				return nil, err
			}
			if !hazardous {
				continue
			}
			tr := Transition{From: a, To: b}
			if kind == KindDynamic && r.val[a] {
				tr = Transition{From: b, To: a}
			}
			set.add(kind, tr)
		}
	}
	return set, nil
}

// refMaxOutputChanges is the original, direct implementation of the
// interleaving analysis: full recursive re-evaluation of the expression
// per path subset, then the complete subset DP. The Gray-code evaluator
// and the word-parallel kernel must agree with it transition for
// transition.
func refMaxOutputChanges(r *refSim, a, b uint64) (int, error) {
	groups, err := r.changingGroups(a, b)
	if err != nil {
		return 0, err
	}
	k := len(groups)
	evalLeaves := func(leafBits uint64) bool {
		idx := 0
		var rec func(e *bexpr.Expr) bool
		rec = func(e *bexpr.Expr) bool {
			switch e.Op {
			case bexpr.OpConst:
				return e.Val
			case bexpr.OpVar:
				v := leafBits&(1<<uint(idx)) != 0
				idx++
				return v
			case bexpr.OpNot:
				return !rec(e.Kids[0])
			case bexpr.OpAnd:
				out := true
				for _, kk := range e.Kids {
					if !rec(kk) {
						out = false
					}
				}
				return out
			case bexpr.OpOr:
				out := false
				for _, kk := range e.Kids {
					if rec(kk) {
						out = true
					}
				}
				return out
			}
			panic("bad op")
		}
		return rec(r.f.Root)
	}
	base := r.leafBitsAt(a)
	target := r.leafBitsAt(b)
	vals := make([]bool, 1<<uint(k))
	for sub := 0; sub < 1<<uint(k); sub++ {
		bitsMask := base
		for j := 0; j < k; j++ {
			if sub&(1<<uint(j)) != 0 {
				leaves := groups[j]
				bitsMask = (bitsMask &^ leaves) | (target & leaves)
			}
		}
		vals[sub] = evalLeaves(bitsMask)
	}
	mc := make([]int8, 1<<uint(k))
	for sub := 1; sub < 1<<uint(k); sub++ {
		best := int8(-1)
		rest := sub
		for rest != 0 {
			j := bits.TrailingZeros64(uint64(rest))
			rest &^= 1 << uint(j)
			prev := sub &^ (1 << uint(j))
			c := mc[prev]
			if vals[sub] != vals[prev] {
				c++
			}
			if c > best {
				best = c
			}
		}
		mc[sub] = best
	}
	return int(mc[len(mc)-1]), nil
}

// refClassify mirrors the original Classify on top of the reference
// path analysis.
func refClassify(r *refSim, a, b uint64) (Kind, bool, error) {
	fa, fb := r.val[a], r.val[b]
	fmc := r.functionMaxChanges(a, b)
	if fa == fb {
		if fmc > 0 {
			return 0, false, nil
		}
		mc, err := refMaxOutputChanges(r, a, b)
		if err != nil {
			return 0, false, err
		}
		if fa {
			return KindStatic1, mc > 0, nil
		}
		return KindStatic0, mc > 0, nil
	}
	if fmc > 1 {
		return 0, false, nil
	}
	mc, err := refMaxOutputChanges(r, a, b)
	if err != nil {
		return 0, false, err
	}
	return KindDynamic, mc > 1, nil
}

// randExprDup builds a random expression over nVars variables with
// deliberately repeated literals, the structure that exercises the
// multi-path machinery.
func randExprDup(rng *rand.Rand, nVars, depth int) *bexpr.Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		e := bexpr.Var(fmt.Sprintf("v%d", rng.Intn(nVars)))
		if rng.Intn(2) == 0 {
			e = bexpr.Not(e)
		}
		return e
	}
	k := 2 + rng.Intn(2)
	kids := make([]*bexpr.Expr, k)
	for i := range kids {
		kids[i] = randExprDup(rng, nVars, depth-1)
	}
	if rng.Intn(2) == 0 {
		return bexpr.And(kids...)
	}
	return bexpr.Or(kids...)
}

func TestSimulatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := 60
	if testing.Short() {
		cases = 15
	}
	for c := 0; c < cases; c++ {
		nVars := 2 + rng.Intn(3)
		expr := randExprDup(rng, nVars, 2+rng.Intn(2))
		fn := bexpr.New(expr)
		sim, err := NewSimulator(fn)
		if err != nil {
			t.Fatalf("case %d (%s): %v", c, expr, err)
		}
		ref := newRefSim(sim)
		n := uint(fn.NumVars())
		for a := uint64(0); a < 1<<n; a++ {
			if got, want := sim.value(a), ref.val[a]; got != want {
				t.Fatalf("case %d (%s) f(%b) = %v, reference %v", c, expr, a, got, want)
			}
			for b := a + 1; b < 1<<n; b++ {
				wantMC, err1 := refMaxOutputChanges(ref, a, b)
				gotMC, err2 := ref.MaxOutputChanges(a, b)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("case %d (%s) %b->%b: error mismatch %v vs %v", c, expr, a, b, err1, err2)
				}
				if err1 == nil && wantMC != gotMC {
					t.Fatalf("case %d (%s) %b->%b: MaxOutputChanges %d, reference %d", c, expr, a, b, gotMC, wantMC)
				}
				wantKind, wantHz, err1 := refClassify(ref, a, b)
				gotKind, gotHz, err2 := sim.Classify(a, b)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("case %d (%s) %b->%b: classify error mismatch %v vs %v", c, expr, a, b, err1, err2)
				}
				if err1 == nil && (wantHz != gotHz || (wantHz && wantKind != gotKind)) {
					t.Fatalf("case %d (%s) %b->%b: classify (%v,%v), reference (%v,%v)",
						c, expr, a, b, gotKind, gotHz, wantKind, wantHz)
				}
				wantDyn, err1 := ref.dynamicPathHazard(a, b)
				if (a^b)&sim.multiPath == 0 {
					wantDyn, err1 = ref.functionMaxChanges(a, b) > 1, nil
				}
				gotDyn, err2 := sim.DynamicTransitionHazardous(a, b)
				if (err1 == nil) != (err2 == nil) || wantDyn != gotDyn {
					t.Fatalf("case %d (%s) %b->%b: DynamicTransitionHazardous (%v,%v), reference (%v,%v)",
						c, expr, a, b, gotDyn, err2, wantDyn, err1)
				}
			}
		}
	}
}

// checkAnalyzeMatches requires Analyze and the every-pair reference to
// return the same hazard set, kind by kind, or the same error.
func checkAnalyzeMatches(t *testing.T, name string, fn *bexpr.Function, shared uint64) (*Set, error) {
	t.Helper()
	got, gotErr := AnalyzeShared(fn, shared)
	want, wantErr := AnalyzeReference(fn, shared)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s (%s): error %v, reference %v", name, fn, gotErr, wantErr)
	}
	if wantErr != nil {
		return nil, wantErr
	}
	for _, k := range []Kind{KindStatic1, KindStatic0, KindDynamic} {
		g, w := got.Transitions(k), want.Transitions(k)
		if fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("%s (%s): %v hazards %v, reference %v", name, fn, k, g, w)
		}
	}
	return got, nil
}

// groupExpr builds a random AND/OR tree whose leaves are the given
// literal occurrences — reps[v] occurrences of variable v, each in a
// random phase — so a transition flipping every variable switches
// exactly sum(reps) path groups.
func groupExpr(rng *rand.Rand, reps []int) *bexpr.Expr {
	var lits []*bexpr.Expr
	for v, r := range reps {
		for i := 0; i < r; i++ {
			e := bexpr.Var(fmt.Sprintf("v%d", v))
			if rng.Intn(2) == 0 {
				e = bexpr.Not(e)
			}
			lits = append(lits, e)
		}
	}
	rng.Shuffle(len(lits), func(i, j int) { lits[i], lits[j] = lits[j], lits[i] })
	for len(lits) > 1 {
		k := min(len(lits), 2+rng.Intn(2))
		i := rng.Intn(len(lits) - k + 1)
		kids := append([]*bexpr.Expr(nil), lits[i:i+k]...)
		e := bexpr.Or(kids...)
		if rng.Intn(2) == 0 {
			e = bexpr.And(kids...)
		}
		lits = append(lits[:i], append([]*bexpr.Expr{e}, lits[i+k:]...)...)
	}
	return lits[0]
}

// TestAnalyzeMatchesReference pins the pair-skipping, word-parallel
// Analyze to the every-pair loop over the per-subset evaluator: random
// repeated-literal expressions of 2–10 variables, transitions of 7–20
// path groups that span several bitset words (with and without a shared
// variable), the 21-group MaxSkewPaths rejection, and the work-budget
// rejection.
func TestAnalyzeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cases := 27
	if testing.Short() {
		cases = 9
	}
	hazardous := 0
	for c := 0; c < cases; c++ {
		// Every width 2–10 once, then the cheaper widths up to 8: the
		// every-pair reference spends about a second on a 10-variable
		// function.
		nVars := 2 + c%9
		if c >= 9 {
			nVars = 2 + c%7
		}
		expr := randExprDup(rng, nVars, 2+rng.Intn(3))
		if expr.NumLiterals() > 64 {
			continue
		}
		fn, err := bexpr.NewWithVars(expr, varNames(nVars))
		if err != nil {
			t.Fatal(err)
		}
		var shared uint64
		if c%3 == 0 {
			shared = 1 << uint(rng.Intn(nVars))
		}
		if set, err := checkAnalyzeMatches(t, fmt.Sprintf("random case %d", c), fn, shared); err == nil && !set.Empty() {
			hazardous++
		}
	}
	if hazardous == 0 {
		t.Error("no random case had a logic hazard; the comparison is vacuous")
	}

	multiWord := 0
	for k := 7; k <= MaxSkewPaths; k++ {
		reps := []int{k / 3, k / 3, k - 2*(k/3)}
		fn := bexpr.New(groupExpr(rng, reps))
		var shared uint64
		if k%4 == 0 {
			shared = 1 // v0's occurrences switch as one group
		}
		set, err := checkAnalyzeMatches(t, fmt.Sprintf("%d groups", k), fn, shared)
		if err != nil {
			t.Fatalf("%d groups (%s): %v", k, fn, err)
		}
		if set.Count() > 0 && k > 6 {
			multiWord++
		}
	}
	if multiWord == 0 {
		t.Error("no multi-word case had a logic hazard; the comparison is vacuous")
	}

	// 21 groups: x, y and z seven times each. The all-flip rise of x*y*z is
	// function-hazard-free, so the path analysis must reject it.
	var terms []*bexpr.Expr
	for i := 0; i < 7; i++ {
		terms = append(terms, bexpr.And(bexpr.Var("x"), bexpr.Var("y"), bexpr.Var("z")))
	}
	if _, err := checkAnalyzeMatches(t, "21 groups", bexpr.New(bexpr.Or(terms...)), 0); err == nil {
		t.Errorf("a 21-group transition must exceed MaxSkewPaths (%d)", MaxSkewPaths)
	}

	if _, err := checkAnalyzeMatches(t, "work budget", workBudgetFunction(), 0); err == nil {
		t.Error("the work-budget input must be rejected")
	}
}

func varNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("v%d", i)
	}
	return out
}

// workBudgetFunction has 10 variables, each appearing 4 times: the pair
// enumeration would need ~(2+2*16)^10/2 ≈ 1e15 interleaving states.
func workBudgetFunction() *bexpr.Function {
	var terms []*bexpr.Expr
	for rep := 0; rep < 4; rep++ {
		var lits []*bexpr.Expr
		for v := 0; v < 10; v++ {
			lits = append(lits, bexpr.Var(fmt.Sprintf("v%d", v)))
		}
		terms = append(terms, bexpr.And(lits...))
	}
	return bexpr.New(bexpr.Or(terms...))
}

// TestAnalyzeWorkBudget: an expression whose repeated literals make the
// full enumeration astronomically expensive must be rejected up front,
// not ground through.
func TestAnalyzeWorkBudget(t *testing.T) {
	if _, err := Analyze(workBudgetFunction()); err == nil {
		t.Fatal("expected a work-budget error for a massively repeated expression")
	}
}
