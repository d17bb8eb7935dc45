package hazcache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gfmap/internal/bexpr"
	"gfmap/internal/hazard"
)

// direct computes the reference hazard set without any caching.
func direct(t *testing.T, f *bexpr.Function) *hazard.Set {
	t.Helper()
	set, err := hazard.Analyze(f)
	if err != nil {
		t.Fatalf("analyze %s: %v", f, err)
	}
	return set
}

func fn(t testing.TB, src string, vars ...string) *bexpr.Function {
	t.Helper()
	if len(vars) == 0 {
		return bexpr.MustParse(src)
	}
	f, err := bexpr.NewWithVars(bexpr.MustParse(src).Root, vars)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestAnalyzeMatchesDirect: the cache is semantically transparent — for a
// spread of structures (redundant covers, factored forms, repeated
// literals, nested complements) the cached result equals a direct
// analysis, both on the miss and on the hit.
func TestAnalyzeMatchesDirect(t *testing.T) {
	exprs := []string{
		"a*b + a'*c",
		"a*b + a'*c + b*c",
		"(a + b)*c",
		"a*c + b*c",
		"(a*b)' + c",
		"a'*(b + c') + a*b*c",
		"((a + b')*(c + d))' + a*d",
		"s'*a + s*b",
		"s'*a + s*b + a*b",
		"a",
		"a'",
	}
	c := New(0)
	for _, src := range exprs {
		f := bexpr.MustParse(src)
		want := direct(t, f)
		got, hit := c.Analyze(f)
		if hit {
			t.Errorf("%s: unexpected hit on first lookup", src)
		}
		if got == nil || !got.Equal(want) {
			t.Errorf("%s: cached-miss set %v, want %v", src, got, want)
		}
		got2, hit2 := c.Analyze(f)
		if !hit2 {
			t.Errorf("%s: expected hit on second lookup", src)
		}
		if got2 == nil || !got2.Equal(want) {
			t.Errorf("%s: cached-hit set %v, want %v", src, got2, want)
		}
		if got == got2 {
			t.Errorf("%s: lookups returned an aliased set", src)
		}
	}
}

// TestPermutedStructuresShare: the same structure with its inputs playing
// permuted roles canonicalises to one entry, and each caller gets the set
// translated back into its own variable space.
func TestPermutedStructuresShare(t *testing.T) {
	f1 := fn(t, "v0*v1 + v0'*v2", "v0", "v1", "v2")
	f2 := fn(t, "v1*v2 + v1'*v0", "v0", "v1", "v2")
	c := New(0)
	got1, hit := c.Analyze(f1)
	if hit {
		t.Fatal("first lookup must miss")
	}
	got2, hit := c.Analyze(f2)
	if !hit {
		t.Error("permuted instance of the same structure should hit")
	}
	if !got1.Equal(direct(t, f1)) {
		t.Errorf("f1 set wrong: %v", got1)
	}
	if !got2.Equal(direct(t, f2)) {
		t.Errorf("f2 set wrong after translation: %v", got2)
	}
}

// TestStructuresNotConflated is the Figure 4 guard: w*y + x*y and
// (w+x)*y compute the same function but hazard differently, so they must
// occupy distinct entries under the shared truth-table key.
func TestStructuresNotConflated(t *testing.T) {
	sop := fn(t, "w*y + x*y", "w", "x", "y")
	fact := fn(t, "(w + x)*y", "w", "x", "y")
	c := New(0)
	gotSop, _ := c.Analyze(sop)
	gotFact, hit := c.Analyze(fact)
	if hit {
		t.Error("structurally different cluster must not hit the SOP entry")
	}
	if !gotSop.Equal(direct(t, sop)) {
		t.Errorf("sop set wrong: %v", gotSop)
	}
	if !gotFact.Equal(direct(t, fact)) {
		t.Errorf("factored set wrong: %v", gotFact)
	}
	if gotSop.Equal(gotFact) {
		t.Error("Figure 4 pair should have different hazard sets")
	}
	if s := c.Stats(); s.Entries != 2 {
		t.Errorf("expected 2 distinct entries, have %d", s.Entries)
	}
}

// TestUnusedVariableSpace: a function whose variable order is wider than
// its syntactic support bypasses the cache (hazards spread over the
// unused dimensions) but still gets the exact full-width answer.
func TestUnusedVariableSpace(t *testing.T) {
	f := fn(t, "s'*a + s*b", "x", "s", "a", "b")
	c := New(0)
	got, hit := c.Analyze(f)
	want := direct(t, f)
	if hit {
		t.Error("wide-space function must not be served from the cache")
	}
	if got == nil || !got.Equal(want) {
		t.Errorf("wide-space set %v, want %v", got, want)
	}
	if got.N != 4 {
		t.Errorf("set over %d vars, want 4", got.N)
	}
	if _, hit := c.Analyze(f); hit {
		t.Error("wide-space function must never hit")
	}
}

// randomExpr builds a random small expression over the given variables,
// biased toward repeated literals so structures genuinely share paths.
func randomExpr(rng *rand.Rand, vars []string, depth int) *bexpr.Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		e := bexpr.Var(vars[rng.Intn(len(vars))])
		if rng.Intn(3) == 0 {
			return bexpr.Not(e)
		}
		return e
	}
	n := 2 + rng.Intn(2)
	kids := make([]*bexpr.Expr, n)
	for i := range kids {
		kids[i] = randomExpr(rng, vars, depth-1)
	}
	if rng.Intn(2) == 0 {
		return bexpr.And(kids...)
	}
	return bexpr.Or(kids...)
}

// TestRandomizedTransparency fuzzes the canonicalisation: for random
// structures, cache results (misses and hits alike) equal direct analysis.
func TestRandomizedTransparency(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	vars := []string{"a", "b", "c", "d"}
	c := New(0)
	for i := 0; i < 60; i++ {
		f := bexpr.New(randomExpr(rng, vars, 2+rng.Intn(2)))
		want := direct(t, f)
		got, _ := c.Analyze(f)
		if got == nil || !got.Equal(want) {
			t.Fatalf("expr %s: cache %v, want %v", f, got, want)
		}
		again, _ := c.Analyze(f)
		if again == nil || !again.Equal(want) {
			t.Fatalf("expr %s: second lookup %v, want %v", f, again, want)
		}
	}
}

// TestEviction: a tiny cache evicts old entries, counts them, and stays
// correct afterwards.
func TestEviction(t *testing.T) {
	c := New(1) // one entry per shard
	var fns []*bexpr.Function
	for i := 0; i < 200; i++ {
		// Vary arity and shape so entries spread over many shards.
		src := fmt.Sprintf("a*b + a'*c + %s", []string{"b*c", "b'*c", "a*c", "c'"}[i%4])
		f := fn(t, src, "a", "b", "c")
		_ = f
		fns = append(fns, f)
		if set, _ := c.Analyze(f); set == nil {
			t.Fatalf("analysis failed for %s", src)
		}
	}
	// Re-analysing everything must still give correct results whether or
	// not the entry survived.
	for _, f := range fns[:8] {
		got, _ := c.Analyze(f)
		if got == nil || !got.Equal(direct(t, f)) {
			t.Fatalf("post-eviction result wrong for %s", f)
		}
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Errorf("expected evictions on a 1-entry-per-shard cache: %+v", s)
	}
}

// TestConcurrentAnalyze hammers one cache from many goroutines (run under
// -race in CI) and checks every returned set against the serial reference.
func TestConcurrentAnalyze(t *testing.T) {
	srcs := []string{
		"a*b + a'*c",
		"a*b + a'*c + b*c",
		"(a + b)*c",
		"a*c + b*c",
		"s'*a + s*b",
		"s'*a + s*b + a*b",
		"a'*(b + c') + a*b*c",
		"(a*b)' + c*d",
	}
	want := make([]*hazard.Set, len(srcs))
	for i, s := range srcs {
		want[i] = direct(t, bexpr.MustParse(s))
	}
	c := New(0)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				j := rng.Intn(len(srcs))
				got, _ := c.Analyze(bexpr.MustParse(srcs[j]))
				if got == nil || !got.Equal(want[j]) {
					errs <- fmt.Errorf("goroutine %d: %s gave %v", seed, srcs[j], got)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("expected both hits and misses: %+v", st)
	}
}

// TestCanonicalizeIdempotent: canonicalising a canonical form is the
// identity (same structure key), and the binding round-trips points.
func TestCanonicalizeIdempotent(t *testing.T) {
	f := fn(t, "v1*v2 + v1'*v0", "v0", "v1", "v2")
	cn, err := Canonicalize(f)
	if err != nil {
		t.Fatal(err)
	}
	cn2, err := Canonicalize(cn.Fn)
	if err != nil {
		t.Fatal(err)
	}
	if cn.Fn.Root.String() != cn2.Fn.Root.String() {
		t.Errorf("canonical form not idempotent: %s vs %s", cn.Fn.Root, cn2.Fn.Root)
	}
	for i, v := range cn2.Back.Perm {
		if v != i {
			t.Errorf("re-canonicalising must yield the identity binding, got %v", cn2.Back.Perm)
			break
		}
	}
}

// TestStatsSnapshotConsistent: under concurrent load, every Stats call
// must observe a consistent shard view — in a cache whose capacity forces
// constant eviction, the invariant Entries <= cap must hold in every
// snapshot, and the counters must end exact.
func TestStatsSnapshotConsistent(t *testing.T) {
	c := New(numShards) // one entry per shard: evicts on every second insert
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s := c.Stats()
			if s.Entries > numShards {
				t.Errorf("snapshot %d: Entries=%d exceeds capacity %d", i, s.Entries, numShards)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f := fn(t, fmt.Sprintf("a*b + a'*c%d", i%37), "a", "b", fmt.Sprintf("c%d", i%37))
				c.Analyze(f)
			}
		}(w)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses == 0 {
		t.Error("no lookups recorded")
	}
}
