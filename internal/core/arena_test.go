package core

// Tests for the per-worker arena allocation of the covering DP hot path:
// arena primitives, the allocation-pattern bugfixes (mergeCutInto,
// epoch-stamped distinctSignals, scratch-backed cut enumeration) checked
// against the allocating reference DP (dp_ref_test.go), the per-cone
// allocation budgets, and the pool-hygiene guarantees.

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"gfmap/internal/hazard"
	"gfmap/internal/library"
	"gfmap/internal/mapstore"
	"gfmap/internal/network"
)

// arenaTestMapper is newTestMapper for src mapped asynchronously on
// LSI9K.
func arenaTestMapper(t testing.TB, src string, scratch bool) (*mapper, []network.Cone) {
	t.Helper()
	return newTestMapper(t, parseNet(t, src, "arena"), library.MustGet("LSI9K"),
		Options{Mode: Async, Workers: 1}, scratch)
}

// newTestMapper decomposes and partitions net and returns a mapper set up
// exactly like a serial mapPipeline would, plus the design's cones. With
// scratch set it carries a pooled arena scratch, which the production DP
// needs and the reference DP never touches. The caller owns the scratch;
// it is intentionally never released back to the pool.
func newTestMapper(t testing.TB, net *network.Network, lib *library.Library, opts Options, scratch bool) (*mapper, []network.Cone) {
	t.Helper()
	opts = opts.withDefaults()
	if opts.Mode == Async && !lib.Annotated() {
		if err := lib.Annotate(); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := network.AsyncTechDecomp(net)
	if err != nil {
		t.Fatal(err)
	}
	cones, err := network.Partition(dec)
	if err != nil {
		t.Fatal(err)
	}
	m := &mapper{lib: lib, opts: opts, netlist: NewNetlist(net.Name, net.Inputs, net.Outputs),
		tid: 1, met: newMetricSet(nil), reserved: make(map[string]bool)}
	for _, name := range dec.NodeNames() {
		m.reserved[name] = true
	}
	for _, in := range dec.Inputs {
		m.reserved[in] = true
	}
	if err := m.ensureCells(); err != nil {
		t.Fatal(err)
	}
	if scratch {
		m.sc = acquireScratch()
	}
	return m, cones
}

// newConeMapper builds the cone tree the way prepareCone does, up to (but
// not including) running the DP, and returns the cone mapper and its root.
func newConeMapper(t testing.TB, m *mapper, cone network.Cone) (*coneMapper, int) {
	t.Helper()
	cm := &coneMapper{m: m, cone: cone,
		hazCache: make(map[string]*hazard.Set), emitted: make(map[[2]int]string)}
	root, err := cm.buildTree(cone.Expr.Root)
	if err != nil {
		t.Fatal(err)
	}
	cm.cuts = make([][]cutEntry, len(cm.nodes))
	for i := range cm.nodes {
		cm.nodes[i].cost = [2]cost{infCost, infCost}
	}
	if cm.sc = m.sc; cm.sc != nil {
		cm.sc.beginCone()
		cm.assignSigIDs()
	}
	return cm, root
}

func TestIntArenaStability(t *testing.T) {
	var a intArena
	// Fill several blocks with uniquely-valued slices and verify nothing
	// overlaps: every committed slice must keep its contents.
	var slices [][]int
	for i := 0; i < 4000; i++ {
		n := 1 + i%17
		s := a.alloc(n)
		if cap(s) != n || len(s) != 0 {
			t.Fatalf("alloc(%d): len=%d cap=%d", n, len(s), cap(s))
		}
		for k := 0; k < n; k++ {
			s = append(s, i)
		}
		slices = append(slices, s)
	}
	for i, s := range slices {
		for _, v := range s {
			if v != i {
				t.Fatalf("slice %d corrupted: got %d", i, v)
			}
		}
	}
	// Oversize requests fall through to the heap and never touch blocks.
	big := a.alloc(intArenaBlock + 1)
	if cap(big) != intArenaBlock+1 {
		t.Fatalf("oversize cap = %d", cap(big))
	}
	// reset rewinds without reallocating: the first block is reused.
	blocks := len(a.blocks)
	first := &a.blocks[0][0]
	a.reset()
	s := a.alloc(8)
	if &s[0:1][0] != first {
		t.Fatal("reset did not rewind to the first block")
	}
	if len(a.blocks) != blocks {
		t.Fatalf("reset changed block count: %d -> %d", blocks, len(a.blocks))
	}
}

func TestStampEpochs(t *testing.T) {
	sc := new(coneScratch)
	m1, e1 := sc.stamp(&sc.sigSeen, 4)
	m1[2] = e1
	m2, e2 := sc.stamp(&sc.sigSeen, 4)
	if e2 == e1 {
		t.Fatal("stamp reused an epoch")
	}
	if m2[2] == e2 {
		t.Fatal("stale mark valid in new epoch")
	}
	// Growth keeps monotonicity; old stamps can never match a new epoch
	// even though grown storage is not cleared.
	m3, e3 := sc.stamp(&sc.sigSeen, 4096)
	for i, v := range m3 {
		if v == e3 {
			t.Fatalf("entry %d spuriously valid after growth", i)
		}
	}
}

func TestMergeCutInto(t *testing.T) {
	cases := [][2][]int{
		{{}, {}},
		{{1, 2, 3}, {}},
		{{}, {4, 5}},
		{{1, 3, 5}, {2, 4, 6}},
		{{1, 2, 3}, {1, 2, 3}},
		{{1, 4, 9}, {4, 9, 12}},
		{{7}, {7}},
	}
	for _, c := range cases {
		want := mergeCut(c[0], c[1])
		got := mergeCutInto(c[0], c[1], make([]int, 0, len(c[0])+len(c[1])))
		if !reflect.DeepEqual([]int(got), []int(want)) {
			t.Errorf("mergeCutInto(%v, %v) = %v, want %v", c[0], c[1], got, want)
		}
	}
}

// The memoised cut table must be byte-identical to the reference's
// allocating enumeration, and — because parents merge straight out of
// their children's memoised entries — later merges must never mutate a
// committed entry. Running the full DP after enumeration exercises every
// reader of the memo; comparing against an independently-computed slow
// reference afterwards catches any aliasing write.
func TestCutMemoMatchesSlowPathAndSurvivesDP(t *testing.T) {
	for _, src := range []string{simpleSrc, bigCtxSrc(2)} {
		ms, conesS := arenaTestMapper(t, src, false)
		ma, conesA := arenaTestMapper(t, src, true)
		if len(conesS) != len(conesA) {
			t.Fatal("cone partitioning diverged")
		}
		for ci := range conesA {
			ref, _ := newConeMapper(t, ms, conesS[ci])
			for id := range ref.nodes {
				ref.enumCutsSlow(id)
			}
			cm, _ := newConeMapper(t, ma, conesA[ci])
			if err := cm.dp(); err != nil {
				t.Fatal(err)
			}
			if len(cm.cuts) != len(ref.cuts) {
				t.Fatalf("cone %d: node count diverged", ci)
			}
			for id := range ref.cuts {
				if len(cm.cuts[id]) != len(ref.cuts[id]) {
					t.Fatalf("cone %d node %d: %d cuts, want %d",
						ci, id, len(cm.cuts[id]), len(ref.cuts[id]))
				}
				for k := range ref.cuts[id] {
					got, want := cm.cuts[id][k], ref.cuts[id][k]
					if got.depth != want.depth || !reflect.DeepEqual([]int(got.nodes), []int(want.nodes)) {
						t.Fatalf("cone %d node %d cut %d: got %v@%d, want %v@%d",
							ci, id, k, got.nodes, got.depth, want.nodes, want.depth)
					}
				}
			}
		}
	}
}

// distinctSignals must agree with the reference's map-based count on
// every enumerated cut, and must not allocate at all.
func TestDistinctSignalsScratch(t *testing.T) {
	m, cones := arenaTestMapper(t, bigCtxSrc(1), true)
	cm, root := newConeMapper(t, m, cones[0])
	cm.enumCuts(root)
	checked := 0
	for id := range cm.cuts {
		for _, c := range cm.cuts[id] {
			got := cm.distinctSignals(c.nodes)
			want := cm.distinctSignalsSlow(c.nodes)
			if got != want {
				t.Fatalf("node %d cut %v: distinctSignals = %d, want %d", id, c.nodes, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no cuts enumerated")
	}
	// The scratch path is allocation-free once the mark slice has grown.
	var nodes []int
	for id := range cm.cuts {
		if len(cm.cuts[id]) > 0 {
			nodes = cm.cuts[id][len(cm.cuts[id])-1].nodes
			break
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { cm.distinctSignals(nodes) }); allocs != 0 {
		t.Errorf("distinctSignals allocated %.1f objects per call with scratch, want 0", allocs)
	}
}

// BenchmarkDistinctSignals is the regression benchmark for the
// map-per-combo allocation bug: the scratch path must report 0 allocs/op
// where the reference pays a map per call.
func BenchmarkDistinctSignals(b *testing.B) {
	m, cones := arenaTestMapper(b, bigCtxSrc(1), true)
	cm, root := newConeMapper(b, m, cones[0])
	var widest []int
	for _, c := range cm.enumCuts(root) {
		if len(c.nodes) > len(widest) {
			widest = c.nodes
		}
	}
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cm.distinctSignals(widest)
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cm.distinctSignalsSlow(widest)
		}
	})
}

// Per-cone allocation budgets for the full cut → match → hazard pipeline.
// The absolute ceiling catches allocation-pattern regressions in CI long
// before they show up on wall-clock benchmarks; the relative bound pins
// the arena path's advantage over the allocating reference DP.
func TestConeCoverAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is meaningless under -short's noise")
	}
	// Each side solves the cone once first, to warm the hazard cache and
	// grow the scratch.
	m, cones := arenaTestMapper(t, bigCtxSrc(1), true)
	cone := cones[0]
	ck := mapstore.ConeKey(cone.Expr)
	prod := func() {
		if _, err := m.prepareCone(cone, ck); err != nil {
			t.Fatal(err)
		}
	}
	prod()
	withArenas := testing.AllocsPerRun(5, prod)
	mr, _ := arenaTestMapper(t, bigCtxSrc(1), false)
	rm := newRefMatch(mr.lib, false)
	ref := func() {
		cm, _ := newConeMapper(t, mr, cone)
		if err := cm.dpSlow(rm); err != nil {
			t.Fatal(err)
		}
	}
	ref()
	oracle := testing.AllocsPerRun(5, ref)
	// Measured 440 with arenas vs ~20k for the reference; the ceilings
	// leave headroom for library evolution without letting a per-cut or
	// per-binding allocation sneak back into the loop.
	const budget = 2500
	if withArenas > budget {
		t.Errorf("arena cone covering allocates %.0f objects, budget %d", withArenas, budget)
	}
	if withArenas*3 > oracle {
		t.Errorf("arena path allocates %.0f objects vs %.0f for the reference DP; want at least 3x reduction",
			withArenas, oracle)
	}
}

// staticString matches the only strings a pooled scratch is allowed to
// retain: empty strings and the static cluster variable names.
var staticString = regexp.MustCompile(`^(v[0-9]+)?$`)

// scanStrings reports every string reachable from v (following pointers,
// interfaces, maps, and slices out to their full capacity, so data hidden
// behind a [:0] reslice is still found).
func scanStrings(v reflect.Value, seen map[uintptr]bool, report func(string)) {
	switch v.Kind() {
	case reflect.String:
		report(v.String())
	case reflect.Pointer:
		if !v.IsNil() && !seen[v.Pointer()] {
			seen[v.Pointer()] = true
			scanStrings(v.Elem(), seen, report)
		}
	case reflect.Interface:
		if !v.IsNil() {
			scanStrings(v.Elem(), seen, report)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scanStrings(v.Field(i), seen, report)
		}
	case reflect.Slice:
		if v.IsNil() || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		full := v.Slice(0, v.Cap())
		for i := 0; i < full.Len(); i++ {
			scanStrings(full.Index(i), seen, report)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			scanStrings(v.Index(i), seen, report)
		}
	case reflect.Map:
		if v.IsNil() {
			return
		}
		it := v.MapRange()
		for it.Next() {
			scanStrings(it.Key(), seen, report)
			scanStrings(it.Value(), seen, report)
		}
	}
}

// assertScratchClean fails if any string reachable from the scratch is
// not a static cluster variable name — i.e. if any request-scoped data
// (signal names, request IDs, formatted hazard keys) survived the pool
// round-trip.
func assertScratchClean(t *testing.T, sc *coneScratch) {
	t.Helper()
	scanStrings(reflect.ValueOf(sc), map[uintptr]bool{}, func(s string) {
		if !staticString.MatchString(s) {
			t.Errorf("pooled scratch retains request-derived string %q", s)
		}
	})
}

// The scanner itself must see through the tricks the scratch plays —
// [:0] reslices and nested structs — or the hygiene tests above it prove
// nothing.
func TestScanStringsFindsHiddenLeaks(t *testing.T) {
	sc := new(coneScratch)
	sc.names = append(sc.names, "leaked-signal")[:0] // hidden behind the reslice
	sc.mc.fnStr = "leaked-key"
	var found []string
	scanStrings(reflect.ValueOf(sc), map[uintptr]bool{}, func(s string) {
		if !staticString.MatchString(s) {
			found = append(found, s)
		}
	})
	if len(found) != 2 {
		t.Fatalf("scanner found %v, want the 2 planted leaks", found)
	}
}

func TestPooledScratchRetainsOnlyStaticStrings(t *testing.T) {
	lib := library.MustGet("LSI9K")
	// Distinctively-named signals: if any of them leak into pooled
	// scratch state, the string scan below finds the marker.
	src := leakSrc("leakprobe", 6)
	for _, workers := range []int{1, 0} {
		if _, err := Map(parseNet(t, src, "leak"), lib, Options{Mode: Async, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		// The successful run released its scrubbed scratch; whatever the
		// pool hands out next must be clean.
		scs := []*coneScratch{acquireScratch(), acquireScratch()}
		for _, sc := range scs {
			assertScratchClean(t, sc)
		}
		for _, sc := range scs {
			releaseScratch(sc)
		}
	}
}

// leakSrc is bigCtxSrc without the per-output terms and with every signal
// name carrying a marker prefix, so pool-hygiene tests can grep reachable
// strings for request data.
func leakSrc(marker string, n int) string {
	v := func(x string) string { return marker + "_" + x }
	var b strings.Builder
	b.WriteString("INPUT(")
	for i, x := range []string{"a", "b", "c", "d", "e", "g", "h", "i"} {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(v(x))
	}
	b.WriteString(")\nOUTPUT(")
	for k := 0; k < n; k++ {
		if k > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "%s_f%d", marker, k)
	}
	b.WriteString(")\n")
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, "%s_f%d = (%s*%s + %s*%s)*(%s + %s') + (%s'*%s + %s*%s')*(%s + %s') + %s*%s*(%s' + %s');\n",
			marker, k,
			v("a"), v("b"), v("c"), v("d"), v("e"), v("g"),
			v("a"), v("c"), v("b"), v("d"), v("h"), v("i"),
			v("b"), v("c"), v("e"), v("h"))
	}
	return b.String()
}
