// Package truthtab provides truth tables for the modest support sizes of
// library cells and match clusters (up to 12 inputs, bit-packed) and the
// cofactor/unateness signatures used to prune Boolean matching, in the
// style of the CERES matcher the paper builds on.
package truthtab

import (
	"fmt"
	"math/bits"

	"gfmap/internal/bexpr"
	"gfmap/internal/cube"
)

// MaxVars is the largest supported input count. 2^12 = 4096 minterms = 64
// words; the paper's libraries top out at 9 inputs.
const MaxVars = 12

// TT is a truth table over N variables: bit p of the packed Bits array is
// the function value at input point p (bit i of p = value of variable i).
type TT struct {
	N    int
	Bits []uint64
}

func words(n int) int {
	if n <= 6 {
		return 1
	}
	return 1 << uint(n-6)
}

// NewTT returns an all-zero table over n variables.
func NewTT(n int) (TT, error) {
	if n < 0 || n > MaxVars {
		return TT{}, fmt.Errorf("truthtab: %d variables out of range", n)
	}
	return TT{N: n, Bits: make([]uint64, words(n))}, nil
}

// lastMask masks the valid bits of the last word.
func (t TT) lastMask() uint64 {
	if t.N >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << (1 << uint(t.N))) - 1
}

// FromFunc builds a truth table by evaluating f at every point.
func FromFunc(n int, f func(uint64) bool) (TT, error) {
	t, err := NewTT(n)
	if err != nil {
		return TT{}, err
	}
	for p := uint64(0); p < 1<<uint(n); p++ {
		if f(p) {
			t.Set(p, true)
		}
	}
	return t, nil
}

// FromCover builds a truth table from a cover.
func FromCover(c cube.Cover) (TT, error) {
	return FromFunc(c.N, c.Eval)
}

// FromExpr builds a truth table from a BFF function with the
// word-parallel kernel of FromExprInto.
func FromExpr(f *bexpr.Function) (TT, error) {
	var t TT
	if err := FromExprInto(f, &t); err != nil {
		return TT{}, err
	}
	return t, nil
}

// reserve resizes t to n variables reusing the Bits backing array when it
// is large enough, zeroing the live words.
func (t *TT) reserve(n int) {
	w := words(n)
	if cap(t.Bits) < w {
		t.Bits = make([]uint64, w)
	} else {
		t.Bits = t.Bits[:w]
		clear(t.Bits)
	}
	t.N = n
}

// FromExprInto is FromExpr into caller-owned storage: t is resized over
// the function's variables, reusing its Bits array when capacity allows,
// so steady-state construction allocates nothing.
//
// The expression is evaluated one 64-point word at a time: a variable
// below 6 is its lane mask within the word, a higher variable is all ones
// or all zeros depending on the word index, and the operators are word
// AND, OR and NOT. A leaf therefore costs one variable lookup per word
// instead of one per point. The last word is masked, so Equal and
// anything keyed by the words never see bits past 2^N.
func FromExprInto(f *bexpr.Function, t *TT) error {
	n := f.NumVars()
	if n < 0 || n > MaxVars {
		return fmt.Errorf("truthtab: %d variables out of range", n)
	}
	t.reserve(n)
	for w := range t.Bits {
		x, err := evalWord(f, f.Root, w)
		if err != nil {
			return err
		}
		t.Bits[w] = x
	}
	t.Bits[len(t.Bits)-1] &= t.lastMask()
	return nil
}

// evalWord evaluates e on the 64 points of word w: bit i of the result is
// the value at point 64*w + i.
func evalWord(f *bexpr.Function, e *bexpr.Expr, w int) (uint64, error) {
	switch e.Op {
	case bexpr.OpConst:
		if e.Val {
			return ^uint64(0), nil
		}
		return 0, nil
	case bexpr.OpVar:
		v := f.VarIndex(e.Name)
		switch {
		case v < 0:
			return 0, fmt.Errorf("truthtab: variable %q outside the function's order", e.Name)
		case v < 6:
			return ^loMask[v], nil
		case w>>uint(v-6)&1 != 0:
			return ^uint64(0), nil
		}
		return 0, nil
	case bexpr.OpNot:
		x, err := evalWord(f, e.Kids[0], w)
		return ^x, err
	case bexpr.OpAnd, bexpr.OpOr:
		acc := uint64(0)
		if e.Op == bexpr.OpAnd {
			acc = ^uint64(0)
		}
		for _, k := range e.Kids {
			x, err := evalWord(f, k, w)
			if err != nil {
				return 0, err
			}
			if e.Op == bexpr.OpAnd {
				acc &= x
			} else {
				acc |= x
			}
		}
		return acc, nil
	}
	return 0, fmt.Errorf("truthtab: bad expression op %d", e.Op)
}

// Set assigns the value at an input point.
func (t TT) Set(p uint64, v bool) {
	if v {
		t.Bits[p>>6] |= 1 << (p & 63)
	} else {
		t.Bits[p>>6] &^= 1 << (p & 63)
	}
}

// Eval returns the value at an input point.
func (t TT) Eval(p uint64) bool { return t.Bits[p>>6]&(1<<(p&63)) != 0 }

// Ones returns the ON-set size.
func (t TT) Ones() int {
	n := 0
	for i, w := range t.Bits {
		if i == len(t.Bits)-1 {
			w &= t.lastMask()
		}
		n += bits.OnesCount64(w)
	}
	return n
}

// Not returns the complemented function.
func (t TT) Not() TT {
	out, _ := NewTT(t.N)
	for i, w := range t.Bits {
		out.Bits[i] = ^w
	}
	out.Bits[len(out.Bits)-1] &= t.lastMask()
	return out
}

// NotInto writes the complemented function into caller-owned storage,
// reusing out's Bits array when capacity allows.
func (t TT) NotInto(out *TT) {
	w := len(t.Bits)
	if cap(out.Bits) < w {
		out.Bits = make([]uint64, w)
	} else {
		out.Bits = out.Bits[:w]
	}
	out.N = t.N
	for i, x := range t.Bits {
		out.Bits[i] = ^x
	}
	out.Bits[w-1] &= t.lastMask()
}

// Equal reports functional equality.
func (t TT) Equal(o TT) bool {
	if t.N != o.N {
		return false
	}
	for i := range t.Bits {
		a, b := t.Bits[i], o.Bits[i]
		if i == len(t.Bits)-1 {
			m := t.lastMask()
			a &= m
			b &= m
		}
		if a != b {
			return false
		}
	}
	return true
}

// loMask[v] marks, within one 64-point word, the points where variable v
// is 0. Variables 6 and up select whole words instead of bits, so the
// word-parallel kernels below split every operation into an in-word case
// (v < 6, mask arithmetic) and a word-stride case (v >= 6, block moves).
var loMask = [6]uint64{
	0x5555555555555555,
	0x3333333333333333,
	0x0F0F0F0F0F0F0F0F,
	0x00FF00FF00FF00FF,
	0x0000FFFF0000FFFF,
	0x00000000FFFFFFFF,
}

func (t TT) clone() TT {
	out := TT{N: t.N, Bits: make([]uint64, len(t.Bits))}
	copy(out.Bits, t.Bits)
	return out
}

// Cofactor returns the cofactor with variable v fixed to val, kept over N
// variables (the result ignores variable v).
func (t TT) Cofactor(v int, val bool) TT {
	out, _ := NewTT(t.N)
	if v < 6 {
		s := uint(1) << uint(v)
		if val {
			m := ^loMask[v]
			for i, w := range t.Bits {
				h := w & m
				out.Bits[i] = h | h>>s
			}
		} else {
			m := loMask[v]
			for i, w := range t.Bits {
				h := w & m
				out.Bits[i] = h | h<<s
			}
		}
	} else {
		stride := 1 << uint(v-6)
		for i := range t.Bits {
			src := i &^ stride
			if val {
				src |= stride
			}
			out.Bits[i] = t.Bits[src]
		}
	}
	out.Bits[len(out.Bits)-1] &= t.lastMask()
	return out
}

// CofactorOnes counts the ON-set points with variable v fixed to val — the
// cofactor's ON-set size over the 2^(N-1) points of the remaining
// variables — without materialising the cofactor.
func (t TT) CofactorOnes(v int, val bool) int {
	last := len(t.Bits) - 1
	n := 0
	if v < 6 {
		m := loMask[v]
		if val {
			m = ^m
		}
		for i, w := range t.Bits {
			if i == last {
				w &= t.lastMask()
			}
			n += bits.OnesCount64(w & m)
		}
		return n
	}
	want := 0
	if val {
		want = 1
	}
	for i, w := range t.Bits {
		if (i>>uint(v-6))&1 != want {
			continue
		}
		n += bits.OnesCount64(w)
	}
	return n
}

// DependsOn reports whether the function actually depends on variable v.
func (t TT) DependsOn(v int) bool {
	last := len(t.Bits) - 1
	if v < 6 {
		s := uint(1) << uint(v)
		m := loMask[v]
		for i, w := range t.Bits {
			if i == last {
				w &= t.lastMask()
			}
			if (w^(w>>s))&m != 0 {
				return true
			}
		}
		return false
	}
	stride := 1 << uint(v-6)
	for i, w := range t.Bits {
		if i&stride != 0 {
			continue
		}
		if w != t.Bits[i|stride] {
			return true
		}
	}
	return false
}

// Support returns the number of variables the function depends on.
func (t TT) Support() int {
	n := 0
	for v := 0; v < t.N; v++ {
		if t.DependsOn(v) {
			n++
		}
	}
	return n
}

// Transform applies an input binding: result(p) = t(q) where bit i of q is
// bit perm[i] of p, XORed with bit i of inv. perm must have length t.N and
// map cell inputs to result variables over nOut variables. When invOut is
// set the output is complemented.
//
// Bijective same-width bindings — the only kind Boolean matching produces —
// run word-parallel: input inversions are in-word/word-pair exchanges and
// the permutation decomposes into variable swaps, so the whole transform is
// O(words) mask arithmetic instead of a per-point evaluation loop.
func (t TT) Transform(perm []int, inv uint64, invOut bool, nOut int) TT {
	if nOut == t.N && isPermutation(perm, t.N) {
		out := t.clone()
		for i := 0; i < t.N; i++ {
			if inv&(1<<uint(i)) != 0 {
				out.flipVar(i)
			}
		}
		out.applyPerm(perm)
		if invOut {
			for i := range out.Bits {
				out.Bits[i] = ^out.Bits[i]
			}
		}
		out.Bits[len(out.Bits)-1] &= out.lastMask()
		return out
	}
	// General fallback (width change or non-bijective binding): the
	// per-point definition.
	out, err := NewTT(nOut)
	if err != nil {
		panic(err)
	}
	for p := uint64(0); p < 1<<uint(nOut); p++ {
		var q uint64
		for i, v := range perm {
			bit := (p >> uint(v)) & 1
			if inv&(1<<uint(i)) != 0 {
				bit ^= 1
			}
			q |= bit << uint(i)
		}
		val := t.Eval(q)
		if invOut {
			val = !val
		}
		if val {
			out.Set(p, true)
		}
	}
	return out
}

// TransformInto is Transform into caller-owned storage: on the bijective
// word-parallel path out's Bits array is reused when capacity allows, so
// steady-state transforms allocate nothing. The general fallback (width
// change or non-bijective binding) delegates to Transform.
func (t TT) TransformInto(perm []int, inv uint64, invOut bool, nOut int, out *TT) {
	if nOut == t.N && isPermutation(perm, t.N) {
		w := len(t.Bits)
		if cap(out.Bits) < w {
			out.Bits = make([]uint64, w)
		} else {
			out.Bits = out.Bits[:w]
		}
		out.N = t.N
		copy(out.Bits, t.Bits)
		for i := 0; i < t.N; i++ {
			if inv&(1<<uint(i)) != 0 {
				out.flipVar(i)
			}
		}
		out.applyPerm(perm)
		if invOut {
			for i := range out.Bits {
				out.Bits[i] = ^out.Bits[i]
			}
		}
		out.Bits[len(out.Bits)-1] &= out.lastMask()
		return
	}
	*out = t.Transform(perm, inv, invOut, nOut)
}

func isPermutation(perm []int, n int) bool {
	if len(perm) != n {
		return false
	}
	var seen uint32
	for _, v := range perm {
		if v < 0 || v >= n || seen&(1<<uint(v)) != 0 {
			return false
		}
		seen |= 1 << uint(v)
	}
	return true
}

// flipVar complements variable v in place: f'(p) = f(p ^ 1<<v).
func (t TT) flipVar(v int) {
	if v < 6 {
		s := uint(1) << uint(v)
		m := loMask[v]
		for i, w := range t.Bits {
			t.Bits[i] = (w&m)<<s | (w>>s)&m
		}
		return
	}
	stride := 1 << uint(v-6)
	for i := range t.Bits {
		if i&stride == 0 {
			j := i | stride
			t.Bits[i], t.Bits[j] = t.Bits[j], t.Bits[i]
		}
	}
}

// applyPerm rearranges variables in place so that the result reads its
// bit-perm[i] input where the old table read variable i: out(p) = old(q)
// with q_i = bit perm[i] of p. perm must be a permutation of 0..N-1. The
// permutation is decomposed into at most N-1 variable swaps.
func (t TT) applyPerm(perm []int) {
	n := t.N
	var posBuf, atBuf [MaxVars]int
	pos, at := posBuf[:n], atBuf[:n]
	for i := 0; i < n; i++ {
		pos[i], at[i] = i, i
	}
	for i := 0; i < n; i++ {
		cur, tgt := pos[i], perm[i]
		if cur == tgt {
			continue
		}
		t.swapVars(cur, tgt)
		j := at[tgt]
		at[cur], at[tgt] = j, i
		pos[i], pos[j] = tgt, cur
	}
}

// swapVars exchanges variables u and v in place: f'(p) = f(p with bits u
// and v swapped).
func (t TT) swapVars(u, v int) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	switch {
	case v < 6:
		// Both in-word: delta-swap the (u=1, v=0) bits with their (u=0,
		// v=1) partners, which sit a fixed distance d up the word.
		d := uint(1)<<uint(v) - uint(1)<<uint(u)
		a := ^loMask[u] & loMask[v]
		for i, w := range t.Bits {
			x := (w >> d) & a
			y := (w & a) << d
			t.Bits[i] = w&^(a|a<<d) | x | y
		}
	case u >= 6:
		// Both word-indexed: swap whole words across the two index bits.
		bu, bv := 1<<uint(u-6), 1<<uint(v-6)
		for i := range t.Bits {
			if i&bu != 0 && i&bv == 0 {
				j := i ^ bu ^ bv
				t.Bits[i], t.Bits[j] = t.Bits[j], t.Bits[i]
			}
		}
	default:
		// Mixed: u lives in-word, v selects word pairs. Exchange the u=1
		// half of each v=0 word with the u=0 half of its v=1 partner.
		s := uint(1) << uint(u)
		m0 := loMask[u]
		bv := 1 << uint(v-6)
		for i := range t.Bits {
			if i&bv != 0 {
				continue
			}
			lo, hi := t.Bits[i], t.Bits[i|bv]
			t.Bits[i] = lo&m0 | (hi&m0)<<s
			t.Bits[i|bv] = hi&^m0 | (lo&^m0)>>s
		}
	}
}

// VarSignature is an input-inversion-invariant per-variable invariant used
// to prune matching: the ON-set sizes of the two cofactors, sorted.
type VarSignature struct {
	Lo, Hi int
}

// Signature computes the per-variable signatures of the function.
func (t TT) Signature() []VarSignature {
	sv := t.SigVec()
	out := make([]VarSignature, t.N)
	for v := range out {
		out[v] = sv.Var(v)
	}
	return out
}

// SigVector carries the ON-set size and the per-variable cofactor ON-set
// counts of a function — every quantity the Boolean matcher's pruning
// consults — computed once with the word-parallel kernels so it can be
// memoized per cell and shared across phases, cells and bindings.
type SigVector struct {
	N    int
	Ones int
	// C0[v] and C1[v] are the ON-set sizes of the v=0 and v=1 cofactors,
	// each counted over the 2^(N-1) points of the remaining variables.
	C0, C1 []int
}

// SigVec computes the signature vector of the function.
func (t TT) SigVec() SigVector {
	s := SigVector{N: t.N, Ones: t.Ones()}
	s.C0 = make([]int, t.N)
	s.C1 = make([]int, t.N)
	for v := 0; v < t.N; v++ {
		c0 := t.CofactorOnes(v, false)
		s.C0[v] = c0
		s.C1[v] = s.Ones - c0
	}
	return s
}

// SigVecInto is SigVec into caller-owned storage: s's C0/C1 slices are
// reused when capacity allows, so steady-state computation allocates
// nothing.
func (t TT) SigVecInto(s *SigVector) {
	s.N = t.N
	s.Ones = t.Ones()
	s.C0 = growInts(s.C0, t.N)
	s.C1 = growInts(s.C1, t.N)
	for v := 0; v < t.N; v++ {
		c0 := t.CofactorOnes(v, false)
		s.C0[v] = c0
		s.C1[v] = s.Ones - c0
	}
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// Complement returns the signature vector of the complemented function
// without touching a truth table.
func (s SigVector) Complement() SigVector {
	out := SigVector{
		N:    s.N,
		Ones: 1<<uint(s.N) - s.Ones,
		C0:   make([]int, s.N),
		C1:   make([]int, s.N),
	}
	if s.N > 0 {
		half := 1 << uint(s.N-1)
		for v := range s.C0 {
			out.C0[v] = half - s.C0[v]
			out.C1[v] = half - s.C1[v]
		}
	}
	return out
}

// ComplementInto is Complement into caller-owned storage, reusing out's
// C0/C1 slices when capacity allows.
func (s SigVector) ComplementInto(out *SigVector) {
	out.N = s.N
	out.Ones = 1<<uint(s.N) - s.Ones
	out.C0 = growInts(out.C0, s.N)
	out.C1 = growInts(out.C1, s.N)
	if s.N > 0 {
		half := 1 << uint(s.N-1)
		for v := range s.C0 {
			out.C0[v] = half - s.C0[v]
			out.C1[v] = half - s.C1[v]
		}
	}
}

// Var returns the input-inversion-invariant signature of one variable.
func (s SigVector) Var(v int) VarSignature {
	c0, c1 := s.C0[v], s.C1[v]
	if c0 > c1 {
		c0, c1 = c1, c0
	}
	return VarSignature{Lo: c0, Hi: c1}
}

// sortSigs orders signatures by (Lo, Hi). Insertion sort on a stack-backed
// slice of at most MaxVars elements: no sort.Slice interface boxing or
// reflection-based swapper on the hot path.
func sortSigs(sigs []VarSignature) {
	for i := 1; i < len(sigs); i++ {
		x := sigs[i]
		j := i - 1
		for j >= 0 && (sigs[j].Lo > x.Lo || (sigs[j].Lo == x.Lo && sigs[j].Hi > x.Hi)) {
			sigs[j+1] = sigs[j]
			j--
		}
		sigs[j+1] = x
	}
}

// appendSigsKey appends the serialised (ON-set size, sorted per-variable
// signatures) key to dst; all values fit in 16 bits for N <= MaxVars.
// sigs is sorted in place.
func appendSigsKey(dst []byte, ones int, sigs []VarSignature) []byte {
	sortSigs(sigs)
	dst = append(dst, byte(ones>>8), byte(ones))
	for _, sg := range sigs {
		dst = append(dst, byte(sg.Lo>>8), byte(sg.Lo), byte(sg.Hi>>8), byte(sg.Hi))
	}
	return dst
}

// sigsKey serialises (ON-set size, sorted per-variable signatures) as a
// compact byte string; sigs is sorted in place.
func sigsKey(ones int, sigs []VarSignature) string {
	var buf [2 + 4*MaxVars]byte
	return string(appendSigsKey(buf[:0], ones, sigs))
}

// CanonKey returns the match-index key of the function: the ON-set size
// and signature multiset, folded so that a function and its complement
// share one key. Two functions equal up to input permutation, input
// phases and output phase always agree on CanonKey, and two functions
// with different keys can never match — the key is a necessary condition,
// so an index bucketed by it returns a superset of the true matches.
// The complement's key is derived arithmetically without materialising
// the complement signature vector; the whole computation allocates only
// the two candidate key strings.
func (s SigVector) CanonKey() string {
	var buf [2 + 4*MaxVars]byte
	return string(s.AppendCanonKey(buf[:0]))
}

// AppendCanonKey appends the CanonKey bytes to dst and returns the
// extended slice. Byte-for-byte identical to CanonKey without the string
// allocations: the mapper probes the match index once per cut with a
// reusable buffer, and library.MatchIndex.Candidates converts the bytes in
// place.
func (s SigVector) AppendCanonKey(dst []byte) []byte {
	var rawBuf, cplBuf [2 + 4*MaxVars]byte
	var sigBuf [MaxVars]VarSignature
	sigs := sigBuf[:s.N]
	for v := range sigs {
		sigs[v] = s.Var(v)
	}
	a := appendSigsKey(rawBuf[:0], s.Ones, sigs)
	half := 0
	if s.N > 0 {
		half = 1 << uint(s.N-1)
	}
	for v := range sigs {
		c0, c1 := half-s.C0[v], half-s.C1[v]
		if c0 > c1 {
			c0, c1 = c1, c0
		}
		sigs[v] = VarSignature{Lo: c0, Hi: c1}
	}
	b := appendSigsKey(cplBuf[:0], 1<<uint(s.N)-s.Ones, sigs)
	if string(b) < string(a) {
		return append(dst, b...)
	}
	return append(dst, a...)
}

// SymmetricPair reports whether variables u and v are interchangeable in
// the function (first-order NE symmetry).
func (t TT) SymmetricPair(u, v int) bool {
	for p := uint64(0); p < 1<<uint(t.N); p++ {
		bu := (p >> uint(u)) & 1
		bv := (p >> uint(v)) & 1
		if bu == bv {
			continue
		}
		q := p ^ (1 << uint(u)) ^ (1 << uint(v))
		if t.Eval(p) != t.Eval(q) {
			return false
		}
	}
	return true
}

// String renders the table as hex words annotated with the input count.
func (t TT) String() string {
	if len(t.Bits) == 1 {
		return fmt.Sprintf("0x%x/%d", t.Bits[0]&t.lastMask(), t.N)
	}
	return fmt.Sprintf("%x/%d", t.Bits, t.N)
}
