package diffcheck

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gfmap/internal/blif"
	"gfmap/internal/eqn"
	"gfmap/internal/library"
	"gfmap/internal/mapstore"
	"gfmap/internal/network"
	"gfmap/internal/obs"
)

func testLib(t *testing.T) *library.Library {
	t.Helper()
	lib, err := library.Get("LSI9K")
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// The generator must be a pure function of (seed, cfg): a seed printed in
// a failure report is a complete reproducer.
func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{}
	a := eqn.WriteString(Generate(42, cfg))
	b := eqn.WriteString(Generate(42, cfg))
	if a != b {
		t.Fatalf("same seed, different networks:\n%s\nvs\n%s", a, b)
	}
	c := eqn.WriteString(Generate(43, cfg))
	if a == c {
		t.Fatal("different seeds produced identical networks")
	}
}

func TestGenerateValidAndReconvergent(t *testing.T) {
	sawMultiFanout := false
	for seed := uint64(1); seed <= 40; seed++ {
		net := Generate(seed, GenConfig{})
		if err := net.Validate(); err != nil {
			t.Fatalf("seed %d: invalid network: %v", seed, err)
		}
		if len(net.Outputs) == 0 {
			t.Fatalf("seed %d: no outputs", seed)
		}
		for _, n := range net.FanoutCounts() {
			if n > 1 {
				sawMultiFanout = true
			}
		}
	}
	if !sawMultiFanout {
		t.Fatal("no seed produced multi-fanout structure; reconvergence bias is broken")
	}
}

// TestDifferentialSmoke is the deterministic slice of the gfmfuzz run
// that executes on every `go test` (and under -race in CI): a batch of
// seeds across the full option matrix with zero tolerated violations.
func TestDifferentialSmoke(t *testing.T) {
	lib := testLib(t)
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	reg := obs.NewRegistry()
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		rep := Check(Generate(seed, GenConfig{}), Options{Lib: lib})
		rep.Publish(reg)
		for _, v := range rep.Violations {
			t.Errorf("seed %d: %s", seed, v)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters[MetricDesigns]; got != uint64(seeds) {
		t.Fatalf("designs counter = %d, want %d", got, seeds)
	}
	if got := snap.Counters[MetricViolations]; got != 0 {
		t.Fatalf("violations counter = %d, want 0", got)
	}
}

// TestExamplesDifferential runs the matrix over the checked-in example
// designs — the -race differential smoke of the fuzzing issue.
func TestExamplesDifferential(t *testing.T) {
	lib := testLib(t)
	dir := filepath.Join("..", "..", "examples")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, e := range entries {
		var net *network.Network
		path := filepath.Join(dir, e.Name())
		switch {
		case strings.HasSuffix(e.Name(), ".eqn"):
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			net, err = eqn.ParseString(string(data), e.Name())
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
		case strings.HasSuffix(e.Name(), ".blif"):
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			net, err = blif.Parse(strings.NewReader(string(data)), e.Name())
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
		default:
			continue
		}
		checked++
		rep := Check(net, Options{Lib: lib})
		for _, v := range rep.Violations {
			t.Errorf("%s: %s", e.Name(), v)
		}
	}
	if checked == 0 {
		t.Fatal("no example designs found")
	}
}

// TestRegressionCorpus replays every minimised reproducer that fuzzing
// ever produced; each one documents a fixed bug and must stay fixed.
func TestRegressionCorpus(t *testing.T) {
	lib := testLib(t)
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "regressions", "*.eqn"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Skip("no regression corpus")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		net, err := eqn.ParseString(string(data), filepath.Base(p))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		rep := Check(net, Options{Lib: lib})
		for _, v := range rep.Violations {
			t.Errorf("%s: %s", filepath.Base(p), v)
		}
	}
}

// TestMinimizeShrinks checks the minimiser against a structural predicate
// it cannot break: the design still contains a node whose support
// includes both x0 and x1.
func TestMinimizeShrinks(t *testing.T) {
	net := Generate(7, GenConfig{Nodes: 14})
	hasPair := func(n *network.Network) bool {
		for _, name := range n.NodeNames() {
			saw0, saw1 := false, false
			for _, v := range n.Node(name).Expr.CollectVars(nil) {
				if v == "x0" {
					saw0 = true
				}
				if v == "x1" {
					saw1 = true
				}
			}
			if saw0 && saw1 {
				return true
			}
		}
		return false
	}
	if !hasPair(net) {
		t.Skip("seed does not exhibit the predicate")
	}
	small := Minimize(net, hasPair, 0)
	if !hasPair(small) {
		t.Fatal("minimised design no longer fails the predicate")
	}
	if small.NumNodes() > net.NumNodes() {
		t.Fatalf("minimiser grew the design: %d -> %d nodes", net.NumNodes(), small.NumNodes())
	}
	if err := small.Validate(); err != nil {
		t.Fatalf("minimised design invalid: %v", err)
	}
	if small.NumNodes() != 1 {
		t.Logf("minimised to %d nodes (predicate needs only 1)", small.NumNodes())
	}
}

// TestWriteReproducerRoundTrips ensures a written reproducer is a valid,
// parseable eqn design carrying its violation header as comments.
func TestWriteReproducerRoundTrips(t *testing.T) {
	dir := t.TempDir()
	net := Generate(3, GenConfig{})
	rep := &Report{Design: net}
	rep.add(KindByteIdentity, "async", "workers", "synthetic violation\nwith a second line")
	path, err := WriteReproducer(dir, 3, rep)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# gfmfuzz reproducer: seed=3") {
		t.Fatalf("missing header:\n%s", data)
	}
	re, err := eqn.ParseString(string(data), "r")
	if err != nil {
		t.Fatalf("reproducer does not reparse: %v\n%s", err, data)
	}
	if eq, err := network.Equivalent(net, re); err != nil || !eq {
		t.Fatalf("reproducer not equivalent to design (eq=%v err=%v)", eq, err)
	}
}

// Check must flag a malformed library-free configuration rather than
// crash, and must catch an invalid network up front.
func TestCheckRejectsBadConfig(t *testing.T) {
	net := Generate(1, GenConfig{})
	rep := Check(net, Options{})
	if !rep.Failed() {
		t.Fatal("nil library accepted")
	}
	bad := network.New("bad")
	if err := bad.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	// Node referencing an undefined signal: AddNode accepts, Validate rejects.
	if err := bad.AddNode("f", mustExpr(t, "a*ghost")); err != nil {
		t.Fatal(err)
	}
	if err := bad.MarkOutput("f"); err != nil {
		t.Fatal(err)
	}
	rep = Check(bad, Options{Lib: testLib(t)})
	if !rep.Failed() {
		t.Fatal("invalid network accepted")
	}
}

// TestStoreAxes: the matrix carries the persistent-store variants unless
// explicitly skipped, and a skipped matrix still passes.
func TestStoreAxes(t *testing.T) {
	names := func(vars []variant) map[string]bool {
		m := make(map[string]bool, len(vars))
		for _, v := range vars {
			m[v.name] = true
		}
		return m
	}
	withStore := names(matrix(4, mapstore.NewMemory(0)))
	for _, want := range []string{"storecold", "storewarm"} {
		if !withStore[want] {
			t.Errorf("matrix missing %s axis", want)
		}
	}
	without := names(matrix(4, nil))
	for _, skip := range []string{"storecold", "storewarm"} {
		if without[skip] {
			t.Errorf("nil-store matrix still contains %s axis", skip)
		}
	}

	lib := testLib(t)
	rep := Check(Generate(7, GenConfig{}), Options{Lib: lib, SkipStoreAxes: true})
	for _, v := range rep.Violations {
		t.Errorf("SkipStoreAxes run: %s", v)
	}
}
