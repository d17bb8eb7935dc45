package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"gfmap/internal/bexpr"
	"gfmap/internal/eqn"
	"gfmap/internal/hazard"
	"gfmap/internal/hazcache"
	"gfmap/internal/library"
	"gfmap/internal/network"
)

func parseNet(t testing.TB, src, name string) *network.Network {
	t.Helper()
	n, err := eqn.ParseString(src, name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func mapNet(t testing.TB, net *network.Network, libName string, mode Mode) *Result {
	t.Helper()
	lib := library.MustGet(libName)
	res, err := Map(net, lib, Options{Mode: mode})
	if err != nil {
		t.Fatalf("map %s with %s (%v): %v", net.Name, libName, mode, err)
	}
	if err := res.Netlist.Validate(); err != nil {
		t.Fatalf("netlist invalid: %v", err)
	}
	if err := VerifyEquivalence(net, res.Netlist); err != nil {
		t.Fatalf("equivalence: %v\n%s", err, res.Netlist)
	}
	return res
}

const simpleSrc = `
INPUT(a, b, c, d)
OUTPUT(f, g)
u = a*b + c;
f = u*d';
g = u + a'*d;
`

func TestMapSimpleAllLibraries(t *testing.T) {
	for _, lib := range library.BuiltinNames {
		for _, mode := range []Mode{Sync, Async} {
			net := parseNet(t, simpleSrc, "simple")
			res := mapNet(t, net, lib, mode)
			if res.Area <= 0 || res.Delay <= 0 {
				t.Errorf("%s/%v: degenerate area/delay: %+v", lib, mode, res)
			}
			if res.Stats.Cones == 0 || res.Stats.MatchesFound == 0 {
				t.Errorf("%s/%v: no work recorded: %+v", lib, mode, res.Stats)
			}
		}
	}
}

// TestFigure3RedundantCubeCover reproduces Figure 3: the function
// f = ab + a'c + bc is hazard-free as written (the redundant consensus
// cube bc holds the output through the a transition with b=c=1). A 2:1 mux
// implements the same function more cheaply, so the synchronous mapper
// picks it and introduces a static 1-hazard; the asynchronous mapper must
// keep a hazard-free cover.
func TestFigure3RedundantCubeCover(t *testing.T) {
	src := `
INPUT(a, b, c)
OUTPUT(f)
f = a*b + a'*c + b*c;
`
	lib := library.MustGet("LSI9K")

	sync := mapNet(t, parseNet(t, src, "fig3"), "LSI9K", Sync)
	async := mapNet(t, parseNet(t, src, "fig3"), "LSI9K", Async)

	// The synchronous cover should use a mux (it is the cheapest match for
	// the whole cone).
	syncUsesMux := false
	for _, g := range sync.Netlist.Gates {
		if strings.HasPrefix(g.Cell.Name, "MUX") {
			syncUsesMux = true
		}
	}
	if !syncUsesMux {
		t.Logf("note: synchronous cover avoided the mux:\n%s", sync.Netlist)
	}

	// The asynchronous cover must not introduce hazards.
	origNet := parseNet(t, src, "fig3")
	rep, err := VerifyHazardSafety(origNet, async.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("async mapping introduced hazards: %s\n%v\n%s", rep, rep.Details, async.Netlist)
	}

	// And the synchronous one must have introduced the Figure 3 hazard,
	// otherwise the test is vacuous.
	repSync, err := VerifyHazardSafety(origNet, sync.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	if syncUsesMux && repSync.Clean() {
		t.Error("expected the mux-based synchronous cover to introduce a hazard")
	}
	if async.Stats.MatchesRejected == 0 {
		t.Error("async mapper should have rejected at least one hazardous match")
	}
	_ = lib
}

// TestAsyncNeverIntroducesHazards is the central property test: on random
// small networks and every library, the asynchronous mapper's output has
// per-cone hazard sets that are subsets of the original's (Theorem 3.2).
func TestAsyncNeverIntroducesHazards(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	vars := []string{"a", "b", "c", "d"}
	for iter := 0; iter < 12; iter++ {
		src := randomEqn(rng, vars, 1+rng.Intn(2))
		for _, libName := range library.BuiltinNames {
			net := parseNet(t, src, "rand")
			res := mapNet(t, net, libName, Async)
			rep, err := VerifyHazardSafety(parseNet(t, src, "rand"), res.Netlist)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Errorf("lib %s: async mapping introduced hazards on\n%s\n%s\ndetails: %v",
					libName, src, res.Netlist, rep.Details)
			}
		}
	}
}

// randomEqn generates a small random SOP network.
func randomEqn(rng *rand.Rand, vars []string, nOut int) string {
	var b strings.Builder
	b.WriteString("INPUT(" + strings.Join(vars, ", ") + ")\n")
	var outs []string
	for i := 0; i < nOut; i++ {
		name := string(rune('f' + i))
		outs = append(outs, name)
	}
	b.WriteString("OUTPUT(" + strings.Join(outs, ", ") + ")\n")
	for _, o := range outs {
		var terms []string
		for c := 0; c < 2+rng.Intn(3); c++ {
			var lits []string
			for _, v := range vars {
				switch rng.Intn(3) {
				case 0:
					lits = append(lits, v)
				case 1:
					lits = append(lits, v+"'")
				}
			}
			if len(lits) == 0 {
				lits = append(lits, vars[rng.Intn(len(vars))])
			}
			terms = append(terms, strings.Join(lits, "*"))
		}
		b.WriteString(o + " = " + strings.Join(terms, " + ") + ";\n")
	}
	return b.String()
}

func TestSyncCheaperOrEqual(t *testing.T) {
	// The async mapper can only reject matches, so its area is never
	// smaller than the sync mapper's on the same input.
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 6; iter++ {
		src := randomEqn(rng, []string{"a", "b", "c", "d"}, 1)
		sync := mapNet(t, parseNet(t, src, "s"), "Actel", Sync)
		async := mapNet(t, parseNet(t, src, "s"), "Actel", Async)
		if sync.Area > async.Area+1e-9 {
			// Equal-cost tie-breaks may differ; sync must never lose.
			t.Errorf("sync area %g > async area %g on\n%s", sync.Area, async.Area, src)
		}
	}
}

func TestMapMultiLevelNetwork(t *testing.T) {
	src := `
INPUT(a, b, c, d, e)
OUTPUT(y, z)
t1 = a*b + c';
t2 = t1*d + e;
y = t2 + a*d;
z = t1'*e;
`
	for _, lib := range []string{"LSI9K", "CMOS3"} {
		net := parseNet(t, src, "ml")
		res := mapNet(t, net, lib, Async)
		rep, err := VerifyHazardSafety(parseNet(t, src, "ml"), res.Netlist)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() {
			t.Errorf("%s: %s: %v", lib, rep, rep.Details)
		}
	}
}

func TestInverterSharing(t *testing.T) {
	src := `
INPUT(a, b, c)
OUTPUT(f, g)
f = a'*b;
g = a'*c;
`
	net := parseNet(t, src, "inv")
	res := mapNet(t, net, "CMOS3", Async)
	// a' should be produced by at most one inverter (shared) unless the
	// matches absorbed the inversion entirely.
	invCount := 0
	for _, g := range res.Netlist.Gates {
		if g.Cell.NumPins() == 1 && g.Pins[0] == "a" {
			invCount++
		}
	}
	if invCount > 1 {
		t.Errorf("inverter for a duplicated %d times:\n%s", invCount, res.Netlist)
	}
}

func TestAliasOutput(t *testing.T) {
	src := `
INPUT(a, b)
OUTPUT(f, g)
f = a*b;
g = f;
`
	net := parseNet(t, src, "alias")
	mapNet(t, net, "LSI9K", Async)
}

func TestDeepChain(t *testing.T) {
	// A chain deeper than MaxDepth forces multiple clusters.
	src := `
INPUT(a, b, c, d, e, f, g, h)
OUTPUT(y)
y = ((((((a*b)' + c)*d)' + e)*f + g)*h)';
`
	net := parseNet(t, src, "deep")
	res := mapNet(t, net, "GDT", Async)
	if res.Netlist.GateCount() == 0 {
		t.Fatal("no gates emitted")
	}
}

func TestStatsAccounting(t *testing.T) {
	src := `
INPUT(a, b, c)
OUTPUT(f)
f = a*b + a'*c + b*c;
`
	res := mapNet(t, parseNet(t, src, "st"), "Actel", Async)
	s := res.Stats
	if s.HazardousMatches == 0 || s.HazardChecks == 0 {
		t.Errorf("expected hazardous-match bookkeeping on Actel: %+v", s)
	}
	if s.MatchesFound < s.HazardousMatches {
		t.Errorf("inconsistent stats: %+v", s)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxDepth != 5 || o.MaxLeaves != 6 {
		t.Errorf("bad defaults: %+v", o)
	}
	if o.Workers != runtime.NumCPU() {
		t.Errorf("Workers zero value should default to NumCPU (%d), got %d", runtime.NumCPU(), o.Workers)
	}
	if o.HazardCache != nil {
		t.Error("nil HazardCache must stay nil: no shared cache by default")
	}
	if o := (Options{Workers: 1}).withDefaults(); o.Workers != 1 {
		t.Errorf("Workers: 1 must stay serial, got %d", o.Workers)
	}
}

// TestHazardFilterDirection pins the subset filter semantics: a hazardous
// mux cell must be accepted when the target subnetwork has the same
// structure (hazards equal), and rejected when the target is hazard-free.
func TestHazardFilterDirection(t *testing.T) {
	lib := library.New("muxonly")
	lib.MustAdd("INV", "a'", 0.3)
	lib.MustAdd("BUF", "a", 0.3)
	lib.MustAdd("AND2", "a*b", 0.5)
	lib.MustAdd("OR2", "a + b", 0.5)
	lib.MustAdd("MUX", "s'*a + s*b", 0.8)
	if err := lib.Annotate(); err != nil {
		t.Fatal(err)
	}
	// Target with the same mux structure: mux is acceptable and cheapest.
	src := `
INPUT(s, a, b)
OUTPUT(f)
f = s'*a + s*b;
`
	net := parseNet(t, src, "m")
	res, err := Map(net, lib, Options{Mode: Async})
	if err != nil {
		t.Fatal(err)
	}
	usedMux := false
	for _, g := range res.Netlist.Gates {
		if g.Cell.Name == "MUX" {
			usedMux = true
		}
	}
	if !usedMux {
		t.Errorf("mux should be accepted for an identical hazardous target:\n%s", res.Netlist)
	}
	if err := VerifyEquivalence(net, res.Netlist); err != nil {
		t.Fatal(err)
	}
}

func TestMapConstantsRejected(t *testing.T) {
	net := network.New("c")
	if err := net.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode("f", bexpr.MustParseExpr("a + 1")); err != nil {
		t.Fatal(err)
	}
	if err := net.MarkOutput("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := Map(net, library.MustGet("CMOS3"), Options{Mode: Async}); err == nil {
		t.Error("constant nodes should be rejected with a clear error")
	}
}

var benchSink *Result

func BenchmarkMapSimpleAsync(b *testing.B) {
	lib := library.MustGet("LSI9K")
	net := parseNet(b, simpleSrc, "simple")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Map(net, lib, Options{Mode: Async})
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
	}
}

func hazardSetOfExpr(t *testing.T, e string) *hazard.Set {
	t.Helper()
	return hazard.MustAnalyze(bexpr.MustParse(e))
}

func TestVerifyHazardSafetyDetectsViolation(t *testing.T) {
	// Hand-build a netlist that maps f = ab + a'c + bc onto a bare mux,
	// introducing a hazard; the verifier must notice.
	src := `
INPUT(a, b, c)
OUTPUT(f)
f = a*b + a'*c + b*c;
`
	net := parseNet(t, src, "v")
	lib := library.MustGet("LSI9K")
	nl := NewNetlist("v", net.Inputs, net.Outputs)
	mux := lib.Cell("MUX21A")
	if mux == nil {
		t.Fatal("MUX21A missing")
	}
	// MUX21A pins are (s, a, b) computing s'a + sb; f = mux(s=a, a=c, b=b).
	if _, err := nl.AddGate(mux, []string{"a", "c", "b"}, "f"); err != nil {
		t.Fatal(err)
	}
	if err := VerifyEquivalence(net, nl); err != nil {
		t.Fatalf("hand netlist should be functionally correct: %v", err)
	}
	rep, err := VerifyHazardSafety(net, nl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Error("verifier missed the introduced hazard")
	}
	// Sanity: the mux really is hazardous while the target is static-1 free.
	if len(hazardSetOfExpr(t, "s'*a + s*b").Static1) == 0 {
		t.Error("mux must have a static-1 hazard")
	}
}

// TestDelayObjective: delay-driven covering never yields a slower netlist
// than area-driven covering, and typically trades area for speed.
func TestDelayObjective(t *testing.T) {
	src := `
INPUT(a, b, c, d, e, f, g, h)
OUTPUT(y)
y = a*b*c*d + e*f*g*h + a'*e' + c*g';
`
	net := parseNet(t, src, "obj")
	lib := library.MustGet("LSI9K")
	areaRes, err := Map(net, lib, Options{Mode: Async, Objective: MinArea})
	if err != nil {
		t.Fatal(err)
	}
	delayRes, err := Map(net, lib, Options{Mode: Async, Objective: MinDelay})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyEquivalence(net, delayRes.Netlist); err != nil {
		t.Fatal(err)
	}
	if delayRes.Delay > areaRes.Delay+1e-9 {
		t.Errorf("delay objective gave delay %.2f > area objective's %.2f",
			delayRes.Delay, areaRes.Delay)
	}
	if areaRes.Area > delayRes.Area+1e-9 {
		t.Errorf("area objective gave area %.0f > delay objective's %.0f",
			areaRes.Area, delayRes.Area)
	}
}

// TestHazardDontCares: with a bounded burst width, a cell whose only
// hazards are wide multi-input changes becomes usable on hazard-free
// targets, improving area — the paper's §6 hazard don't-care idea.
func TestHazardDontCares(t *testing.T) {
	// A consensus-completed mux cell: its only logic hazards are
	// 2-input-change dynamic hazards (see TestMuxStatic1 in hazard).
	lib := library.New("dcdemo")
	lib.MustAdd("INV", "a'", 0.3)
	lib.MustAdd("BUF", "a", 0.3)
	lib.MustAdd("AND2", "a*b", 0.5)
	lib.MustAdd("OR2", "a + b", 0.5)
	lib.MustAdd("SAFEMUX", "s'*a + s*b + a*b", 0.8)
	if err := lib.Annotate(); err != nil {
		t.Fatal(err)
	}
	if !lib.Cell("SAFEMUX").Hazardous() {
		t.Fatal("setup: SAFEMUX should carry m.i.c. dynamic hazards")
	}
	src := `
INPUT(s, a, b)
OUTPUT(f)
f = s'*a + s*b + a*b;
`
	// Without don't-cares the cell is still accepted for an identical
	// structure; the interesting case is a *different* structure that is
	// hazard-free where the cell is not. Build one: the factored
	// (s' + b)*(s + a) form... keep it simple and compare strict vs
	// relaxed filters on the hazard-free AND/OR cover of the function.
	net := parseNet(t, src, "dc")
	strict, err := Map(net, lib, Options{Mode: Async})
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := Map(net, lib, Options{Mode: Async, MaxBurst: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyEquivalence(net, relaxed.Netlist); err != nil {
		t.Fatal(err)
	}
	if relaxed.Area > strict.Area {
		t.Errorf("hazard don't-cares should never increase area: %.0f vs %.0f",
			relaxed.Area, strict.Area)
	}
	// With single-input-change operation the SAFEMUX is admissible
	// everywhere its function fits, so the relaxed mapping should use it.
	used := false
	for _, g := range relaxed.Netlist.Gates {
		if g.Cell.Name == "SAFEMUX" {
			used = true
		}
	}
	if !used {
		t.Errorf("relaxed mapping should use SAFEMUX:\n%s", relaxed.Netlist)
	}
}

// TestTernarySafetyOracle cross-checks the ternary whole-network oracle
// against the per-cone verifier on the Figure 3 scenario.
func TestTernarySafetyOracle(t *testing.T) {
	src := `
INPUT(a, b, c)
OUTPUT(f)
f = a*b + a'*c + b*c;
`
	net := parseNet(t, src, "tern")
	async := mapNet(t, parseNet(t, src, "tern"), "LSI9K", Async)
	if err := VerifyTernarySafety(net, async.Netlist); err != nil {
		t.Errorf("async mapping must pass the ternary oracle: %v", err)
	}

	// Hand-build the hazardous mux cover; the ternary oracle must object.
	lib := library.MustGet("LSI9K")
	nl := NewNetlist("tern", net.Inputs, net.Outputs)
	if _, err := nl.AddGate(lib.Cell("MUX21A"), []string{"a", "c", "b"}, "f"); err != nil {
		t.Fatal(err)
	}
	if err := VerifyTernarySafety(net, nl); err == nil {
		t.Error("ternary oracle missed the introduced static hazard")
	}
}

// TestParallelMappingDeterministic: the parallel DP produces a netlist
// bit-identical to the serial run, with identical hazard-check
// statistics, with a private hazard cache or without one.
func TestParallelMappingDeterministic(t *testing.T) {
	src := `
INPUT(a, b, c, d, e, f)
OUTPUT(x, y, z)
u = a*b + c;
x = u*d' + e;
y = u + a'*f;
z = (u*e)' + d*f;
`
	net := parseNet(t, src, "par")
	lib := library.MustGet("Actel")
	serial, err := Map(net, lib, Options{Mode: Async, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Map(net, lib, Options{Mode: Async, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Netlist.String() != parallel.Netlist.String() {
		t.Errorf("parallel netlist differs:\n%s\nvs\n%s", serial.Netlist, parallel.Netlist)
	}
	if serial.Stats.Deterministic() != parallel.Stats.Deterministic() {
		t.Errorf("stats differ: %+v vs %+v", serial.Stats, parallel.Stats)
	}
	if got, want := serial.Stats.HazardAnalyses(), parallel.Stats.HazardAnalyses(); got != want {
		t.Errorf("hazard-analysis totals differ: %d vs %d", got, want)
	}
	// A private cold cache must reproduce the cache-less result exactly.
	private, err := Map(net, lib, Options{Mode: Async, Workers: 8, HazardCache: hazcache.New(0)})
	if err != nil {
		t.Fatal(err)
	}
	if private.Netlist.String() != serial.Netlist.String() {
		t.Errorf("private-cache netlist differs from serial:\n%s\nvs\n%s", private.Netlist, serial.Netlist)
	}
	if private.Stats.Deterministic() != serial.Stats.Deterministic() {
		t.Errorf("private-cache stats differ: %+v vs %+v", private.Stats, serial.Stats)
	}
	if serial.Stats.HazCacheHits != 0 || parallel.Stats.HazCacheHits != 0 {
		t.Errorf("cache-less runs reported cache hits: %+v, %+v", serial.Stats, parallel.Stats)
	}
}

// TestHazardCacheSharesAcrossCones: on a design whose cones repeat the
// same cluster shapes, the cross-cone cache serves repeats that the
// per-cone memo cannot, and a warm cache serves a whole second run. The
// cones differ (g has an extra term), since twin cones are covered once.
func TestHazardCacheSharesAcrossCones(t *testing.T) {
	src := `
INPUT(a, b, c, p, q, r, s)
OUTPUT(f, g)
f = a*b + a'*c + b*c;
g = p*q + p'*r + q*r + s;
`
	net := parseNet(t, src, "share")
	lib := library.MustGet("LSI9K")
	cache := hazcache.New(0)
	cold, err := Map(net, lib, Options{Mode: Async, Workers: 1, HazardCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.HazCacheHits == 0 {
		t.Errorf("expected cross-cone hits on twin cones: %+v", cold.Stats)
	}
	if cold.Stats.HazCacheMisses == 0 {
		t.Errorf("cold cache must miss at least once: %+v", cold.Stats)
	}
	warm, err := Map(net, lib, Options{Mode: Async, Workers: 1, HazardCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Netlist.String() != cold.Netlist.String() {
		t.Errorf("warm-cache netlist differs:\n%s\nvs\n%s", warm.Netlist, cold.Netlist)
	}
	if warm.Stats.HazCacheMisses != 0 {
		t.Errorf("fully warm cache should serve every analysis: %+v", warm.Stats)
	}
	if rate := warm.Stats.HazCacheHitRate(); rate != 1 {
		t.Errorf("warm hit rate %.2f, want 1", rate)
	}
}

// balancedExpr builds a balanced expression tree over vars[lo:hi) with
// alternating operators (so no level flattens away), the bushy shape whose
// cut combinations explode combinatorially.
func balancedExpr(vars []string, lo, hi int, and bool) string {
	if hi-lo == 1 {
		return vars[lo]
	}
	mid := (lo + hi) / 2
	op := " + "
	if and {
		op = "*"
	}
	return "(" + balancedExpr(vars, lo, mid, !and) + op + balancedExpr(vars, mid, hi, !and) + ")"
}

// TestCutTruncationCounted: a cone bushy enough to overflow the per-node
// cut bound is flagged in the statistics instead of failing silently.
func TestCutTruncationCounted(t *testing.T) {
	var vars []string
	for i := 0; i < 32; i++ {
		vars = append(vars, fmt.Sprintf("x%d", i))
	}
	src := "INPUT(" + strings.Join(vars, ", ") + ")\nOUTPUT(y)\ny = " +
		balancedExpr(vars, 0, len(vars), true) + ";\n"
	net := parseNet(t, src, "trunc")
	res, err := Map(net, library.MustGet("LSI9K"), Options{Mode: Sync, MaxLeaves: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CutTruncations == 0 {
		t.Errorf("expected cut truncations on a balanced 32-leaf cone: %+v", res.Stats)
	}
	// A narrow cone must not be flagged.
	small := mapNet(t, parseNet(t, simpleSrc, "simple"), "LSI9K", Async)
	if small.Stats.CutTruncations != 0 {
		t.Errorf("small design spuriously flagged truncation: %+v", small.Stats)
	}
}

// TestWideCellMatching: raising the cluster bounds lets the mapper reach
// the library's widest cells (CMOS3's NAND8/NOR8), exercising the
// multi-word truth tables.
func TestWideCellMatching(t *testing.T) {
	src := `
INPUT(a, b, c, d, e, f, g, h)
OUTPUT(y)
y = a*b*c*d*e*f*g*h;
`
	net := parseNet(t, src, "wide")
	lib := library.MustGet("CMOS3")
	res, err := Map(net, lib, Options{Mode: Async, MaxDepth: 8, MaxLeaves: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyEquivalence(net, res.Netlist); err != nil {
		t.Fatal(err)
	}
	usedWide := false
	for _, g := range res.Netlist.Gates {
		if g.Cell.Name == "NAND8" {
			usedWide = true
		}
	}
	if !usedWide {
		t.Errorf("expected NAND8 in the cover:\n%s", res.Netlist)
	}
	if res.Netlist.GateCount() > 2 {
		t.Errorf("AND8 should map to NAND8 + inverter, got %d gates:\n%s",
			res.Netlist.GateCount(), res.Netlist)
	}
}
