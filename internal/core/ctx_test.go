package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"gfmap/internal/hazcache"
	"gfmap/internal/library"
	"gfmap/internal/mapstore"
	"gfmap/internal/network"
)

// bigCtxSrc builds a design with n structurally similar cones, large
// enough that mapping reliably outlives a few-millisecond deadline (each
// cone needs dozens of hazard analyses when the shared cache is off).
func bigCtxSrc(n int) string {
	var b strings.Builder
	b.WriteString("INPUT(a,b,c,d,e,g,h,i)\nOUTPUT(")
	for k := 0; k < n; k++ {
		if k > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "f%d", k)
	}
	b.WriteString(")\n")
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, "f%d = (a*b + c*d)*(e + g') + (a'*c + b*d')*(h + i') + b*c*(e' + h');\n", k)
	}
	return b.String()
}

func bigCtxNet(t *testing.T, n int) *network.Network {
	t.Helper()
	return parseNet(t, bigCtxSrc(n), "bigctx")
}

// waitGoroutines waits for the goroutine count to drop back to the
// baseline, tolerating runtime background goroutines that were already
// running before the run under test.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMapContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	net := parseNet(t, simpleSrc, "pre")
	_, err := MapContext(ctx, net, library.MustGet("LSI9K"), Options{Mode: Async})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapContextMidRunCancel(t *testing.T) {
	net := bigCtxNet(t, 120)
	lib := library.MustGet("LSI9K")
	for _, workers := range []int{1, 0} { // serial and parallel pool
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(5 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		res, err := Map(net, lib, Options{
			Mode: Async, Workers: workers, Ctx: ctx,
			HazardCache: hazcache.New(0), // cold private cache: keep the run slow
		})
		elapsed := time.Since(start)
		cancel()
		if err == nil {
			// The run beat the cancel — possible only on an absurdly fast
			// box; the deterministic deadline test below still covers the
			// mid-run path.
			t.Logf("workers=%d: run completed in %s before cancellation", workers, elapsed)
			if res == nil {
				t.Fatalf("workers=%d: nil result without error", workers)
			}
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Cancellation must be prompt: well under the full run time.
		if elapsed > 5*time.Second {
			t.Fatalf("workers=%d: cancellation took %s", workers, elapsed)
		}
		waitGoroutines(t, baseline)
	}
}

func TestMapContextDeadline(t *testing.T) {
	net := bigCtxNet(t, 120)
	lib := library.MustGet("LSI9K")
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Map(net, lib, Options{
		Mode: Async, Ctx: ctx, HazardCache: hazcache.New(0),
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline abort took %s", elapsed)
	}
	waitGoroutines(t, baseline)
}

// A run that completes under a context must be bit-identical to one run
// without any context: cancellation checks may abort a run but never
// change its outcome.
func TestMapContextBitIdentical(t *testing.T) {
	lib := library.MustGet("LSI9K")
	for _, src := range []string{simpleSrc, bigCtxSrc(12)} {
		plain, err := Map(parseNet(t, src, "plain"), lib, Options{Mode: Async})
		if err != nil {
			t.Fatal(err)
		}
		ctxRes, err := MapContext(context.Background(), parseNet(t, src, "plain"), lib, Options{Mode: Async})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ctxRes.Netlist.String(), plain.Netlist.String(); got != want {
			t.Fatalf("netlists differ with/without context:\n--- with ---\n%s--- without ---\n%s", got, want)
		}
		if got, want := ctxRes.Stats.Deterministic(), plain.Stats.Deterministic(); got != want {
			t.Fatalf("deterministic stats differ: %+v vs %+v", got, want)
		}
	}
}

// A request cancelled mid-cone must leave nothing of itself behind: its
// arena scratch is dropped rather than pooled, so no request-scoped data
// (signal names, bindings, request IDs) can be reachable from a worker
// arena the next request reuses — and that next request must map exactly
// as if the cancelled one had never run. Run under -race this also
// checks that the drop/reacquire discipline has no unsynchronised
// hand-off.
func TestMapContextCancelLeavesPoolClean(t *testing.T) {
	lib := library.MustGet("LSI9K")
	marked := parseNet(t, leakSrc("cancelprobe", 120), "cancelprobe")
	for _, workers := range []int{1, 0} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(3 * time.Millisecond)
			cancel()
		}()
		_, err := Map(marked, lib, Options{
			Mode: Async, Workers: workers, Ctx: ctx,
			RequestID:   "cancelprobe-request-id",
			HazardCache: hazcache.New(0), // cold private cache: keep the run slow
		})
		cancel()
		if err == nil {
			t.Logf("workers=%d: run completed before cancellation", workers)
		} else if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Whatever the scratch pool hands out now — a scratch scrubbed by
		// an earlier successful run, or a fresh one (the cancelled run's
		// scratches were dropped, not pooled) — it must hold no strings
		// from any request.
		scs := []*coneScratch{acquireScratch(), acquireScratch(), acquireScratch()}
		for _, sc := range scs {
			assertScratchClean(t, sc)
		}
		for _, sc := range scs {
			releaseScratch(sc)
		}
		// The next request, reusing pooled worker state, maps byte-identically
		// to a clean-room run of the reference DP, which has no scratch.
		clean := parseNet(t, bigCtxSrc(4), "after-cancel")
		got, err := Map(clean, lib, Options{Mode: Async, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		wantNl, wantStats := mapSlow(t, parseNet(t, bigCtxSrc(4), "after-cancel"), lib,
			Options{Mode: Async, Workers: 1}, false)
		if g := got.Netlist.String(); g != wantNl {
			t.Fatalf("workers=%d: netlist after cancelled request diverged from clean-room run:\n--- got ---\n%s--- want ---\n%s", workers, g, wantNl)
		}
		if g, w := got.Stats.Deterministic(), wantStats.Deterministic(); g != w {
			t.Fatalf("workers=%d: deterministic stats diverged: %+v vs %+v", workers, g, w)
		}
	}
}

// A panic while covering one cone on a parallel worker must surface as an
// error on that cone, not crash the process: a long-lived mapping service
// cannot afford a poisoned request taking down its neighbours. The worker
// then drops the scratch the panic may have left half-updated and maps its
// next cone on a fresh one, exactly as a clean worker would.
func TestPrepareConeIsolatedConvertsPanic(t *testing.T) {
	m, cones := arenaTestMapper(t, simpleSrc, true)
	first := m.sc
	// A cone without an expression makes prepareCone dereference nil: a
	// genuine panic on the worker.
	_, err := prepareConeIsolated(m, network.Cone{Root: "boom"}, "")
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err = %v, want panic conversion", err)
	}
	if m.sc == nil || m.sc == first {
		t.Fatal("worker kept the scratch of the panicked cone")
	}
	clean, _ := arenaTestMapper(t, simpleSrc, true)
	for _, cone := range cones {
		ck := mapstore.ConeKey(cone.Expr)
		got, err := prepareConeIsolated(m, cone, ck)
		if err != nil {
			t.Fatalf("cone %s after the panic: %v", cone.Root, err)
		}
		want, err := clean.prepareCone(cone, ck)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.cm.encodeSolution(*got.work), want.cm.encodeSolution(*want.work)) {
			t.Errorf("cone %s: solution after the panic differs from a clean worker's", cone.Root)
		}
	}
}
