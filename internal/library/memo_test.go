package library_test

// Tests of the match memo (memo.go) through the mapper that fills and
// replays it: every stored entry must equal a fresh permutation search of
// its target, and a memo that is shared, cancelled mid-fill or out of
// budget must never change a netlist.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"gfmap/internal/bench"
	"gfmap/internal/core"
	"gfmap/internal/diffcheck"
	"gfmap/internal/hazard"
	"gfmap/internal/library"
	"gfmap/internal/match"
	"gfmap/internal/network"
	"gfmap/internal/truthtab"
)

// recordAll is a binding visitor that keeps a copy of every binding.
type recordAll struct{ out []hazard.Binding }

func (r *recordAll) Visit(b hazard.Binding) bool {
	r.out = append(r.out, hazard.Binding{Perm: slices.Clone(b.Perm), InvIn: b.InvIn, InvOut: b.InvOut})
	return true
}

// searched is one cell's fresh search result for a target.
type searched struct {
	cell     *library.IndexedCell
	bindings []hazard.Binding
}

// freshSearch runs the search of every cell compatible with target to the
// end, in index order.
func freshSearch(l *library.Library, target truthtab.TT) []searched {
	tsig := target.SigVec()
	var out []searched
	for _, ic := range l.MatchIndex().Candidates(tsig.AppendCanonKey(nil)) {
		if ic.Matcher.Sig().Ones != tsig.Ones {
			continue
		}
		var rec recordAll
		ic.Matcher.FindScratch(target, tsig, &rec, new(match.Scratch))
		out = append(out, searched{ic, rec.out})
	}
	return out
}

// checkEntries requires every stored entry of l's memo to equal a fresh
// search of its target: the same cells in index order and the same
// (Perm, InvIn) sequence per cell. It returns the entries.
func checkEntries(t *testing.T, name string, l *library.Library) []library.MemoEntry {
	t.Helper()
	entries := library.MemoEntries(l)
	for _, me := range entries {
		want := freshSearch(l, me.Target)
		if len(want) == 0 {
			t.Errorf("%s: target %v stored with no compatible cell", name, me.Target)
		}
		if me.List.Cells() != len(want) {
			t.Fatalf("%s: target %v: %d cells stored, search has %d", name, me.Target, me.List.Cells(), len(want))
		}
		for i, w := range want {
			ic, nb := me.List.Cell(i)
			if ic != w.cell || nb != len(w.bindings) {
				t.Fatalf("%s: target %v cell %d: %s with %d bindings stored, search has %s with %d",
					name, me.Target, i, ic.Cell.Name, nb, w.cell.Cell.Name, len(w.bindings))
			}
			for j, wb := range w.bindings {
				if b := me.List.Binding(i, j); b.InvIn != wb.InvIn || b.InvOut || !slices.Equal(b.Perm, wb.Perm) {
					t.Fatalf("%s: target %v cell %s binding %d: stored %+v, search %+v",
						name, me.Target, ic.Cell.Name, j, b, wb)
				}
			}
		}
	}
	return entries
}

// freshLib builds a new library, annotated or not, with an empty memo.
func freshLib(t testing.TB, name string, annotate bool) *library.Library {
	t.Helper()
	l, err := library.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	if annotate {
		if err := l.Annotate(); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

type design struct {
	name string
	net  *network.Network
}

// corpus returns the 15 benchmark designs: the 11 paper designs and the
// 4 synthetics.
func corpus(t testing.TB) []design {
	t.Helper()
	paper, err := bench.Designs()
	if err != nil {
		t.Fatal(err)
	}
	synth, err := bench.SynthDesigns()
	if err != nil {
		t.Fatal(err)
	}
	var out []design
	for _, d := range append(paper, synth...) {
		out = append(out, design{d.Name, d.Net})
	}
	return out
}

// mapped maps net and returns the netlist text and deterministic
// statistics, as one string.
func mapped(t testing.TB, net *network.Network, lib *library.Library, opts core.Options) string {
	t.Helper()
	res, err := core.Map(net, lib, opts)
	if err != nil {
		t.Fatalf("%s on %s: %v", net.Name, lib.Name, err)
	}
	return fmt.Sprintf("%s\n%+v", res.Netlist.String(), res.Stats.Deterministic())
}

var modes = []core.Mode{core.Sync, core.Async}

// TestReplayMatchesSearch maps the 15-design corpus and 50 generated
// designs on every library, and requires every memo entry — every target
// the designs produce, in both phases — to equal a fresh search. Annotated
// libraries are mapped in both modes; unannotated ones, whose index has
// purely functional symmetry classes, in sync mode.
func TestReplayMatchesSearch(t *testing.T) {
	designs := corpus(t)
	for seed := uint64(1); seed <= 50; seed++ {
		designs = append(designs, design{fmt.Sprintf("gen%d", seed), diffcheck.Generate(seed, diffcheck.GenConfig{})})
	}
	for _, name := range library.ExtendedNames {
		for _, annotate := range []bool{true, false} {
			lib := freshLib(t, name, annotate)
			for _, d := range designs {
				for _, mode := range modes {
					if mode == core.Async && !annotate {
						continue
					}
					mapped(t, d.net, lib, core.Options{Mode: mode, Workers: 1})
				}
			}
			label := fmt.Sprintf("%s/annotated=%v", name, annotate)
			entries := checkEntries(t, label, lib)
			if st := lib.MemoStats(); len(entries) == 0 || st.Full || st.Entries != len(entries) {
				t.Errorf("%s: memo %+v with %d entries: want every target stored", label, st, len(entries))
			}
		}
	}
}

// TestMemoSharedAcrossGoroutines maps the corpus from several goroutines
// against one cold shared library, at Workers 1 and 4, in both modes;
// every netlist must be byte-identical to a serial run on a fresh library.
func TestMemoSharedAcrossGoroutines(t *testing.T) {
	designs := corpus(t)
	ref := freshLib(t, "Actel", true)
	want := make(map[string]string)
	for _, d := range designs {
		for _, mode := range modes {
			want[fmt.Sprint(d.name, mode)] = mapped(t, d.net, ref, core.Options{Mode: mode, Workers: 1})
		}
	}
	shared := freshLib(t, "Actel", true)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			workers := []int{1, 4}[g%2]
			for k := range designs {
				// Each goroutine starts at a different design, so fills of
				// one target race across goroutines.
				d := designs[(k+4*g)%len(designs)]
				for _, mode := range modes {
					res, err := core.Map(d.net, shared, core.Options{Mode: mode, Workers: workers})
					if err != nil {
						t.Errorf("%s: %v", d.name, err)
						return
					}
					got := fmt.Sprintf("%s\n%+v", res.Netlist.String(), res.Stats.Deterministic())
					if got != want[fmt.Sprint(d.name, mode)] {
						t.Errorf("goroutine %d, workers %d: %s %v differs from the serial run", g, workers, d.name, mode)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	checkEntries(t, "shared", shared)
}

// cancelAt is a context whose Err reports cancellation from its k-th call
// on: a cancellation that lands at an exact poll, wherever that poll is.
type cancelAt struct {
	context.Context
	k, calls atomic.Int64
}

func newCancelAt(k int64) *cancelAt {
	c := &cancelAt{Context: context.Background()}
	c.k.Store(k)
	return c
}

func (c *cancelAt) Err() error {
	if c.calls.Add(1) >= c.k.Load() {
		return context.Canceled
	}
	return nil
}

// A fill cancelled at any of its polls publishes nothing; the same fill
// uncancelled publishes the search's entry.
func TestMemoCancelledFillPublishesNothing(t *testing.T) {
	lib := library.New("same")
	// Three structures of one function: one bucket, three compatible
	// cells, so the fill polls before each cell's search.
	lib.MustAdd("AND2", "a*b", 1)
	lib.MustAdd("AND2R", "b*a", 1)
	lib.MustAdd("NORN2", "(a' + b')'", 1)
	if err := lib.Annotate(); err != nil {
		t.Fatal(err)
	}
	target := lib.Cells[0].TT
	tsig := target.SigVec()
	idx := lib.MatchIndex()
	cands := idx.Candidates(tsig.AppendCanonKey(nil))
	var fs library.FillScratch
	for k := int64(1); ; k++ {
		ctx := newCancelAt(k)
		list, err := idx.Matches(ctx, cands, target, tsig, &fs)
		if err == nil {
			if k <= 3 {
				t.Fatalf("fill finished at poll %d of 3", k)
			}
			if list.Cells() != 3 {
				t.Fatalf("uncancelled fill has %d cells, want 3", list.Cells())
			}
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("poll %d: %v", k, err)
		}
		if st := lib.MemoStats(); st.Entries != 0 || st.Bytes != 0 {
			t.Fatalf("fill cancelled at poll %d published: %+v", k, st)
		}
	}
	if st := lib.MemoStats(); st.Entries != 1 {
		t.Fatalf("uncancelled fill not published: %+v", st)
	}
	checkEntries(t, "same", lib)
}

// Mapping runs cancelled at every k-th poll leave only entries equal to a
// fresh search, and re-mapping on the same library is byte-identical to
// mapping on a cold one.
func TestMemoCancelledMapping(t *testing.T) {
	d, err := bench.DesignByName("abcs")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range modes {
		// Count the polls of a whole run on a cold library.
		counter := newCancelAt(1 << 62)
		mapped(t, d.Net, freshLib(t, "Actel", true), core.Options{Mode: mode, Workers: 1, Ctx: counter})
		polls := counter.calls.Load()
		lib := freshLib(t, "Actel", true)
		// Each cancelled run leaves the memo warmer, so the next run polls
		// less; stop at the first run that finishes.
		cancelled := 0
		for k := int64(1); k <= polls; k += max(1, polls/60) {
			_, err := core.Map(d.Net, lib, core.Options{Mode: mode, Workers: 1, Ctx: newCancelAt(k)})
			if err == nil {
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v: cancelled at poll %d of %d: %v", mode, k, polls, err)
			}
			cancelled++
		}
		if cancelled < 10 {
			t.Fatalf("%v: only %d of the runs were cancelled", mode, cancelled)
		}
		checkEntries(t, fmt.Sprint("cancelled ", mode), lib)
		want := mapped(t, d.Net, freshLib(t, "Actel", true), core.Options{Mode: mode, Workers: 1})
		if got := mapped(t, d.Net, lib, core.Options{Mode: mode, Workers: 1}); got != want {
			t.Errorf("%v: mapping after cancelled runs differs from a cold library's", mode)
		}
	}
}

// Past a lowered budget the memo stops growing and mapping stays
// byte-identical to mapping with room to spare.
func TestMemoBudgetLowered(t *testing.T) {
	designs := corpus(t)
	const budget = 16 << 10
	lib := freshLib(t, "Actel", true)
	library.SetMemoBudget(lib, budget)
	roomy := freshLib(t, "Actel", true)
	for _, d := range designs {
		for _, mode := range modes {
			opts := core.Options{Mode: mode, Workers: 1}
			if got, want := mapped(t, d.net, lib, opts), mapped(t, d.net, roomy, opts); got != want {
				t.Errorf("%s %v: mapping past the memo budget differs", d.name, mode)
			}
		}
	}
	st := lib.MemoStats()
	if !st.Full || st.Bytes > budget || st.Entries == 0 {
		t.Fatalf("memo %+v: want full, within %d bytes, not empty", st, budget)
	}
	if r := roomy.MemoStats(); r.Full || r.Entries <= st.Entries {
		t.Fatalf("unbounded memo %+v does not hold more than the bounded one %+v", r, st)
	}
	checkEntries(t, "bounded", lib)
	for _, d := range designs {
		mapped(t, d.net, lib, core.Options{Mode: core.Async, Workers: 4})
	}
	if again := lib.MemoStats(); again != st {
		t.Errorf("full memo grew from %+v to %+v", st, again)
	}
}

// At the real budget, a thousand fresh 30-58-node designs on each
// built-in library, in both modes, leave at most 1 MiB of entries per
// library, counted from the entries themselves.
func TestMemoBoundRealBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("maps 8000 designs")
	}
	const limit = 1 << 20
	var nets []*network.Network
	for seed := uint64(1); seed <= 1000; seed++ {
		nets = append(nets, diffcheck.Generate(1_000_000+seed, diffcheck.GenConfig{Inputs: 8, Nodes: 30 + 2*int(seed%15)}))
	}
	for _, name := range library.BuiltinNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkRealBudget(t, name, nets, limit)
		})
	}
}

func checkRealBudget(t *testing.T, name string, nets []*network.Network, limit int) {
	lib := freshLib(t, name, true)
	for _, net := range nets {
		for _, mode := range modes {
			mapped(t, net, lib, core.Options{Mode: mode, Workers: 1})
		}
	}
	sum, cells, bindings := 0, 0, 0
	for _, me := range library.MemoEntries(lib) {
		sum += me.Bytes
		cells += me.List.Cells()
		for i := 0; i < me.List.Cells(); i++ {
			_, nb := me.List.Cell(i)
			bindings += nb
		}
	}
	st := lib.MemoStats()
	t.Logf("%s: %d entries, %d cell lists, %d bindings, %d bytes (budget %d, full %v)",
		name, st.Entries, cells, bindings, sum, library.MemoBudget, st.Full)
	if sum != st.Bytes || sum > limit {
		t.Errorf("%s: entries retain %d bytes, memo reports %d; limit %d", name, sum, st.Bytes, limit)
	}
}
