package truthtab

import (
	"fmt"
	"math/rand"
	"testing"

	"gfmap/internal/bexpr"
)

// The word-parallel kernels are checked against straightforward per-point
// reference implementations over random tables at every width the mapper
// can produce (N = 0..MaxVars).

func randTT(t *testing.T, r *rand.Rand, n int) TT {
	t.Helper()
	tt, err := NewTT(n)
	if err != nil {
		t.Fatalf("NewTT(%d): %v", n, err)
	}
	for p := uint64(0); p < 1<<uint(n); p++ {
		if r.Intn(2) == 1 {
			tt.Set(p, true)
		}
	}
	return tt
}

func refCofactor(t TT, v int, val bool) TT {
	out, _ := NewTT(t.N)
	for p := uint64(0); p < 1<<uint(t.N); p++ {
		q := p &^ (1 << uint(v))
		if val {
			q |= 1 << uint(v)
		}
		if t.Eval(q) {
			out.Set(p, true)
		}
	}
	return out
}

func refCofactorOnes(t TT, v int, val bool) int {
	n := 0
	want := uint64(0)
	if val {
		want = 1
	}
	for p := uint64(0); p < 1<<uint(t.N); p++ {
		if (p>>uint(v))&1 == want && t.Eval(p) {
			n++
		}
	}
	return n
}

func refDependsOn(t TT, v int) bool {
	for p := uint64(0); p < 1<<uint(t.N); p++ {
		if t.Eval(p) != t.Eval(p^(1<<uint(v))) {
			return true
		}
	}
	return false
}

func refTransform(t TT, perm []int, inv uint64, invOut bool, nOut int) TT {
	out, _ := NewTT(nOut)
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

func TestCofactorKernelsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n <= MaxVars; n++ {
		for trial := 0; trial < 4; trial++ {
			tt := randTT(t, r, n)
			for v := 0; v < n; v++ {
				for _, val := range []bool{false, true} {
					got := tt.Cofactor(v, val)
					want := refCofactor(tt, v, val)
					if !got.Equal(want) {
						t.Fatalf("N=%d v=%d val=%v: Cofactor mismatch", n, v, val)
					}
					if co, ref := tt.CofactorOnes(v, val), refCofactorOnes(tt, v, val); co != ref {
						t.Fatalf("N=%d v=%d val=%v: CofactorOnes=%d want %d", n, v, val, co, ref)
					}
				}
				if got, want := tt.DependsOn(v), refDependsOn(tt, v); got != want {
					t.Fatalf("N=%d v=%d: DependsOn=%v want %v", n, v, got, want)
				}
			}
		}
	}
}

func TestTransformKernelMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for n := 0; n <= MaxVars; n++ {
		for trial := 0; trial < 6; trial++ {
			tt := randTT(t, r, n)
			perm := r.Perm(n)
			inv := r.Uint64() & (1<<uint(n) - 1)
			invOut := trial%2 == 1
			got := tt.Transform(perm, inv, invOut, n)
			want := refTransform(tt, perm, inv, invOut, n)
			if !got.Equal(want) {
				t.Fatalf("N=%d perm=%v inv=%b invOut=%v: Transform mismatch", n, perm, inv, invOut)
			}
		}
	}
}

// Transform must still take the general per-point path for width-changing
// (non-bijective) bindings.
func TestTransformWideningBinding(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for n := 1; n <= 6; n++ {
		tt := randTT(t, r, n)
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i + 1 // embed into n+1 variables, leaving var 0 unused
		}
		got := tt.Transform(perm, 0, false, n+1)
		want := refTransform(tt, perm, 0, false, n+1)
		if !got.Equal(want) {
			t.Fatalf("N=%d: widening Transform mismatch", n)
		}
	}
}

func TestSigVecMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for n := 0; n <= MaxVars; n++ {
		for trial := 0; trial < 4; trial++ {
			tt := randTT(t, r, n)
			sv := tt.SigVec()
			if sv.Ones != tt.Ones() {
				t.Fatalf("N=%d: SigVec.Ones=%d want %d", n, sv.Ones, tt.Ones())
			}
			for v := 0; v < n; v++ {
				if sv.C0[v] != refCofactorOnes(tt, v, false) || sv.C1[v] != refCofactorOnes(tt, v, true) {
					t.Fatalf("N=%d v=%d: SigVec cofactor counts wrong", n, v)
				}
			}
			// Complement is derived arithmetically; it must agree with the
			// vector computed from the complemented table.
			nc := tt.Not().SigVec()
			cc := sv.Complement()
			if nc.Ones != cc.Ones {
				t.Fatalf("N=%d: Complement.Ones=%d want %d", n, cc.Ones, nc.Ones)
			}
			for v := 0; v < n; v++ {
				if nc.C0[v] != cc.C0[v] || nc.C1[v] != cc.C1[v] {
					t.Fatalf("N=%d v=%d: Complement cofactor counts wrong", n, v)
				}
			}
		}
	}
}

// CanonKey must be invariant under everything Boolean matching abstracts
// over: input permutation, input phases and output phase.
func TestCanonKeyInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for n := 0; n <= 8; n++ {
		for trial := 0; trial < 6; trial++ {
			tt := randTT(t, r, n)
			key := tt.SigVec().CanonKey()
			if got := tt.Not().SigVec().CanonKey(); got != key {
				t.Fatalf("N=%d: CanonKey not output-phase-invariant", n)
			}
			perm := r.Perm(n)
			inv := r.Uint64() & (1<<uint(n) - 1)
			tr := tt.Transform(perm, inv, trial%2 == 1, n)
			if got := tr.SigVec().CanonKey(); got != key {
				t.Fatalf("N=%d perm=%v inv=%b: CanonKey not binding-invariant", n, perm, inv)
			}
		}
	}
}

func TestCofactorKernelsAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	tt := randTT(t, r, 8)
	if a := testing.AllocsPerRun(100, func() {
		tt.CofactorOnes(3, true)
		tt.DependsOn(5)
	}); a != 0 {
		t.Fatalf("CofactorOnes/DependsOn allocate %.1f times per run, want 0", a)
	}
}

// randExpr returns a random expression over vars with at most depth
// levels of operators; leaves repeat variables freely and are sometimes
// constants.
func randExpr(r *rand.Rand, vars []string, depth int) *bexpr.Expr {
	if depth == 0 || r.Intn(4) == 0 {
		if len(vars) == 0 || r.Intn(10) == 0 {
			return bexpr.Const(r.Intn(2) == 1)
		}
		return bexpr.Var(vars[r.Intn(len(vars))])
	}
	switch r.Intn(3) {
	case 0:
		return bexpr.Not(randExpr(r, vars, depth-1))
	case 1:
		kids := make([]*bexpr.Expr, 2+r.Intn(3))
		for i := range kids {
			kids[i] = randExpr(r, vars, depth-1)
		}
		return &bexpr.Expr{Op: bexpr.OpAnd, Kids: kids}
	default:
		kids := make([]*bexpr.Expr, 2+r.Intn(3))
		for i := range kids {
			kids[i] = randExpr(r, vars, depth-1)
		}
		return &bexpr.Expr{Op: bexpr.OpOr, Kids: kids}
	}
}

// checkFromExpr compares the word-parallel kernel with per-point
// Function.Eval, and requires the bits past 2^N in the last word to be
// clear.
func checkFromExpr(t *testing.T, name string, f *bexpr.Function) {
	t.Helper()
	got, err := FromExpr(f)
	if err != nil {
		t.Fatalf("%s: FromExpr: %v", name, err)
	}
	// FromExprInto must overwrite a dirty destination completely.
	into := TT{N: 3, Bits: []uint64{^uint64(0), ^uint64(0)}}
	if err := FromExprInto(f, &into); err != nil {
		t.Fatalf("%s: FromExprInto: %v", name, err)
	}
	n := f.NumVars()
	if got.N != n || into.N != n || len(got.Bits) != words(n) || len(into.Bits) != words(n) {
		t.Fatalf("%s: table shapes %d/%d and %d/%d for %d variables", name, got.N, len(got.Bits), into.N, len(into.Bits), n)
	}
	for p := uint64(0); p < 1<<uint(n); p++ {
		if want := f.Eval(p); got.Eval(p) != want || into.Eval(p) != want {
			t.Fatalf("%s (%s): point %b: kernel %v/%v, Eval %v", name, f, p, got.Eval(p), into.Eval(p), want)
		}
	}
	for _, tab := range []TT{got, into} {
		if last := tab.Bits[len(tab.Bits)-1]; last&^tab.lastMask() != 0 {
			t.Fatalf("%s: last word %#x has bits past 2^%d", name, last, n)
		}
	}
}

// TestFromExprMatchesEval checks the word-parallel truth-table kernel
// against per-point evaluation: tables of one word (0-6 variables) and of
// many (7-12), constants, repeated leaves, variables in the order that the
// expression never reads, and random expressions.
func TestFromExprMatchesEval(t *testing.T) {
	names := func(n int) []string {
		vs := make([]string, n)
		for i := range vs {
			vs[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
		}
		return vs
	}
	fixed := []string{"a0", "a0'", "a0*a0'", "a0 + a0'", "a0*b0 + a0'*c0 + b0*c0", "(a0 + b0')*(a0' + c0)*a0"}
	for n := 0; n <= MaxVars; n++ {
		vars := names(n)
		for _, v := range []bool{false, true} {
			f, err := bexpr.NewWithVars(bexpr.Const(v), vars)
			if err != nil {
				t.Fatal(err)
			}
			checkFromExpr(t, fmt.Sprintf("const %v/%d", v, n), f)
		}
		if n >= 3 {
			for _, src := range fixed {
				f, err := bexpr.NewWithVars(bexpr.MustParseExpr(src), vars)
				if err != nil {
					t.Fatal(err)
				}
				checkFromExpr(t, fmt.Sprintf("%s/%d", src, n), f)
			}
		}
		if n > 0 {
			// Only the highest variable is read: every lower variable,
			// and every lane mask, is unused.
			f, err := bexpr.NewWithVars(bexpr.Not(bexpr.Var(vars[n-1])), vars)
			if err != nil {
				t.Fatal(err)
			}
			checkFromExpr(t, fmt.Sprintf("top/%d", n), f)
		}
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 600; i++ {
		n := r.Intn(MaxVars + 1)
		vars := names(n)
		// Read a random subset of the order, so some variables are unused.
		used := vars
		if n > 1 && r.Intn(2) == 0 {
			used = vars[:1+r.Intn(n-1)]
		}
		f, err := bexpr.NewWithVars(randExpr(r, used, 1+r.Intn(5)), vars)
		if err != nil {
			t.Fatal(err)
		}
		checkFromExpr(t, fmt.Sprintf("random %d", i), f)
	}
	// An expression reading a variable outside the order is rejected, not
	// evaluated against some other variable.
	bad := &bexpr.Function{Root: bexpr.Var("z"), Vars: []string{"a"}}
	if _, err := FromExpr(bad); err == nil {
		t.Error("FromExpr accepted a variable outside the order")
	}
}
