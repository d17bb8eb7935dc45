package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gfmap/internal/obs"
)

// countGoroutines waits for the goroutine count to drop back to the
// baseline — the leak guard every dispatch test runs under (same idea as
// the waitGoroutines helper in internal/core).
func goroutineGuard(t *testing.T) func() {
	t.Helper()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			// Idle keep-alive connections park two goroutines each; they are
			// pooled, not leaked — flush them so the count converges.
			http.DefaultTransport.(*http.Transport).CloseIdleConnections()
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before dispatch, %d after", before, runtime.NumGoroutine())
	}
}

func echoServer(t *testing.T, tag string, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
		fmt.Fprintf(w, "%s:%s", tag, r.Header.Get("X-Job"))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func mustNew(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsEmptyFleet(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("want error for zero workers")
	}
	if _, err := New(Config{Workers: []string{"http://a", ""}}); err == nil {
		t.Fatal("want error for blank worker URL")
	}
}

// TestDoDistributesAndOrders: a batch larger than one worker's capacity
// spreads across the fleet, and Go delivers one result per job, each
// under its job's index with its job's payload and the winning worker
// recorded. Each worker holds its responses until both
// workers have received a request; an echo that answered at once would let
// one worker's runners drain the whole batch before the other's started.
func TestDoDistributesAndOrders(t *testing.T) {
	var h0, h1 atomic.Int64
	both := make(chan struct{})
	var bothOnce sync.Once
	gatedEcho := func(tag string, hits *atomic.Int64) *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			if h0.Load() > 0 && h1.Load() > 0 {
				bothOnce.Do(func() { close(both) })
			}
			select {
			case <-both:
			case <-r.Context().Done():
				return
			case <-time.After(10 * time.Second):
				t.Errorf("%s: the other worker received no request within 10s", tag)
				http.Error(w, "gate timeout", http.StatusServiceUnavailable)
				return
			}
			fmt.Fprintf(w, "%s:%s", tag, r.Header.Get("X-Job"))
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	w0 := gatedEcho("w0", &h0)
	w1 := gatedEcho("w1", &h1)
	defer goroutineGuard(t)()
	c := mustNew(t, Config{Workers: []string{w0.URL, w1.URL}, PerWorker: 2, HedgeAfter: -1})
	jobs := make([]Job, 16)
	for i := range jobs {
		hdr := http.Header{}
		hdr.Set("X-Job", fmt.Sprint(i))
		jobs[i] = Job{Index: i, Path: "/", Header: hdr}
	}
	seen := make(map[int]bool, len(jobs))
	for r := range c.Go(context.Background(), jobs) {
		if r.Err != nil {
			t.Fatalf("job %d: %v", r.Index, r.Err)
		}
		if seen[r.Index] || r.Index < 0 || r.Index >= len(jobs) {
			t.Fatalf("result with index %d is not one result per job", r.Index)
		}
		seen[r.Index] = true
		want := fmt.Sprintf(":%d", r.Index)
		if !strings.HasSuffix(string(r.Body), want) {
			t.Fatalf("job %d body %q lost its payload", r.Index, r.Body)
		}
		if r.Worker != w0.URL && r.Worker != w1.URL {
			t.Fatalf("job %d attributed to %q", r.Index, r.Worker)
		}
	}
	if len(seen) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(seen), len(jobs))
	}
	if h0.Load() == 0 || h1.Load() == 0 {
		t.Fatalf("work not distributed: worker hits %d / %d", h0.Load(), h1.Load())
	}
}

// TestRetryAfter500: a worker that always 500s never wins; the job is
// retried onto the healthy worker and the retry counter ticks.
func TestRetryAfter500(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(bad.Close)
	good := echoServer(t, "good", nil)
	reg := obs.NewRegistry()
	defer goroutineGuard(t)()
	c := mustNew(t, Config{Workers: []string{bad.URL, good.URL}, Registry: reg, HedgeAfter: -1})
	for r := range c.Go(context.Background(), []Job{{Index: 0, Path: "/"}, {Index: 1, Path: "/"}}) {
		if r.Err != nil || r.Worker != good.URL {
			t.Fatalf("job %d: worker %q err %v, want win on good worker", r.Index, r.Worker, r.Err)
		}
	}
	st := c.Status()
	if st.Workers[1].Wins != 2 {
		t.Fatalf("good worker wins = %d, want 2", st.Workers[1].Wins)
	}
	if bad0 := st.Workers[0]; bad0.Failures == 0 || bad0.Healthy || bad0.LastError == "" {
		t.Fatalf("bad worker status not flagged: %+v", bad0)
	}
	if st.Retries == 0 && st.Workers[0].Requests == 0 {
		t.Fatalf("expected the bad worker to have been tried: %+v", st)
	}
}

// TestRetryNotStuckBehindHungWorker: with hedging off and no per-attempt
// timeout, a job that failed on one worker goes back to that worker when
// the worker that has not tried it has no free runner (its only runner
// hangs on the other job), instead of waiting for a runner that never
// frees up.
func TestRetryNotStuckBehindHungWorker(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(bad.Close)
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		fmt.Fprint(w, "late")
	}))
	t.Cleanup(hung.Close)
	defer goroutineGuard(t)()
	c := mustNew(t, Config{
		Workers: []string{bad.URL, hung.URL}, PerWorker: 1, HedgeAfter: -1,
		Local: func(ctx context.Context, job Job) (int, []byte, error) {
			return http.StatusOK, []byte("local-ok"), nil
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ch := c.Go(ctx, []Job{{Index: 0, Path: "/"}, {Index: 1, Path: "/"}})
	first := <-ch
	close(release)
	if first.Err != nil || first.Worker != LocalWorker || first.Attempts != 3 {
		t.Fatalf("want the failing job retried on its worker until Local took it, got %+v", first)
	}
	second := <-ch
	if second.Err != nil || second.Worker != hung.URL {
		t.Fatalf("want the hung worker's job to win there once released, got %+v", second)
	}
	if _, ok := <-ch; ok {
		t.Fatal("result channel not closed after every job delivered")
	}
}

// TestValidateRejectsCorruptBody: a 200 whose body fails Validate is a
// worker failure — retried elsewhere, not surfaced to the caller.
func TestValidateRejectsCorruptBody(t *testing.T) {
	corrupt := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "garbage")
	}))
	t.Cleanup(corrupt.Close)
	good := echoServer(t, "ok", nil)
	defer goroutineGuard(t)()
	c := mustNew(t, Config{
		Workers:    []string{corrupt.URL, good.URL},
		HedgeAfter: -1,
		Validate: func(_ Job, status int, body []byte) error {
			if status == http.StatusOK && !strings.HasPrefix(string(body), "ok:") {
				return errors.New("unexpected body")
			}
			return nil
		},
	})
	r := <-c.Go(context.Background(), []Job{{Index: 0, Path: "/"}})
	if r.Err != nil || r.Worker != good.URL {
		t.Fatalf("want validated win on good worker, got worker %q err %v", r.Worker, r.Err)
	}
}

// Test4xxIsDeterministicOutcome: 4xx is the job's own (reproducible)
// error, not a worker failure — it wins first try with no retries.
func Test4xxIsDeterministicOutcome(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"bad design"}`, http.StatusUnprocessableEntity)
	}))
	t.Cleanup(srv.Close)
	defer goroutineGuard(t)()
	c := mustNew(t, Config{Workers: []string{srv.URL}, HedgeAfter: -1})
	r := <-c.Go(context.Background(), []Job{{Index: 0, Path: "/"}})
	if r.Err != nil || r.Status != http.StatusUnprocessableEntity {
		t.Fatalf("want status 422 with nil err, got %d / %v", r.Status, r.Err)
	}
	if hits.Load() != 1 {
		t.Fatalf("4xx burned %d attempts, want 1", hits.Load())
	}
}

// TestHedgingBeatsStraggler: the first attempt hangs, the hedge fires
// after HedgeAfter and wins, and the straggler's request is cancelled.
func TestHedgingBeatsStraggler(t *testing.T) {
	var first atomic.Bool
	first.Store(true)
	cancelled := make(chan struct{}, 1)
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(true, false) {
			<-r.Context().Done() // straggle until the winner cancels us
			cancelled <- struct{}{}
			return
		}
		fmt.Fprint(w, "hedged-win")
	})
	w0 := httptest.NewServer(handler)
	w1 := httptest.NewServer(handler)
	t.Cleanup(w0.Close)
	t.Cleanup(w1.Close)
	defer goroutineGuard(t)()
	c := mustNew(t, Config{Workers: []string{w0.URL, w1.URL}, HedgeAfter: 30 * time.Millisecond})
	start := time.Now()
	r := <-c.Go(context.Background(), []Job{{Index: 0, Path: "/"}})
	if r.Err != nil || string(r.Body) != "hedged-win" {
		t.Fatalf("hedge did not win: %+v", r)
	}
	if !r.Hedged {
		t.Fatal("result not marked hedged")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("hedged dispatch took %v — straggler was awaited", elapsed)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("straggler request never cancelled after hedge won")
	}
	if got := c.Status().Hedges; got != 1 {
		t.Fatalf("hedge counter = %d, want 1", got)
	}
}

// TestLocalFallbackAfterExhaustion: when every remote attempt fails the
// job runs through Local and is attributed to LocalWorker.
func TestLocalFallbackAfterExhaustion(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	t.Cleanup(bad.Close)
	defer goroutineGuard(t)()
	c := mustNew(t, Config{
		Workers: []string{bad.URL}, MaxAttempts: 2, HedgeAfter: -1,
		Local: func(ctx context.Context, job Job) (int, []byte, error) {
			return http.StatusOK, []byte("local-ok"), nil
		},
	})
	r := <-c.Go(context.Background(), []Job{{Index: 7, Path: "/"}})
	if r.Err != nil || r.Worker != LocalWorker || string(r.Body) != "local-ok" {
		t.Fatalf("want local fallback win, got %+v", r)
	}
	if r.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (exhausted budget)", r.Attempts)
	}
	if got := c.Status().LocalFallbacks; got != 1 {
		t.Fatalf("fallback counter = %d, want 1", got)
	}
}

// TestExhaustionWithoutLocalYieldsError: no Local configured, all
// attempts fail → the last error is the result.
func TestExhaustionWithoutLocalYieldsError(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusBadGateway)
	}))
	t.Cleanup(bad.Close)
	defer goroutineGuard(t)()
	c := mustNew(t, Config{Workers: []string{bad.URL}, MaxAttempts: 2, HedgeAfter: -1})
	r := <-c.Go(context.Background(), []Job{{Index: 0, Path: "/"}})
	if r.Err == nil || !strings.Contains(r.Err.Error(), "status 502") {
		t.Fatalf("want surfaced 502 error, got %v", r.Err)
	}
}

// TestJobTimeoutBoundsAttempt: Job.Timeout caps a single attempt; with
// the budget exhausted the deadline error surfaces.
func TestJobTimeoutBoundsAttempt(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	}))
	t.Cleanup(slow.Close)
	defer goroutineGuard(t)()
	c := mustNew(t, Config{Workers: []string{slow.URL}, MaxAttempts: 1, HedgeAfter: -1})
	r := <-c.Go(context.Background(), []Job{{Index: 0, Path: "/", Timeout: 50 * time.Millisecond}})
	if !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", r.Err)
	}
}

// TestCancelDeliversEverything: cancelling the dispatch context while
// workers hang still yields one Result per job and closes the channel.
func TestCancelDeliversEverything(t *testing.T) {
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	t.Cleanup(hang.Close)
	defer goroutineGuard(t)()
	c := mustNew(t, Config{Workers: []string{hang.URL}, HedgeAfter: -1})
	ctx, cancel := context.WithCancel(context.Background())
	jobs := []Job{{Index: 0, Path: "/"}, {Index: 1, Path: "/"}, {Index: 2, Path: "/"}}
	ch := c.Go(ctx, jobs)
	time.Sleep(50 * time.Millisecond)
	cancel()
	got := 0
	for r := range ch {
		got++
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("job %d: err %v, want context.Canceled", r.Index, r.Err)
		}
	}
	if got != len(jobs) {
		t.Fatalf("delivered %d results, want %d", got, len(jobs))
	}
}

// TestGoCompletionOrder: Go delivers fast finishers before slow ones and
// always exactly len(jobs) results.
func TestGoCompletionOrder(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Slow") == "1" {
			time.Sleep(300 * time.Millisecond)
		}
		fmt.Fprint(w, "done")
	}))
	t.Cleanup(srv.Close)
	defer goroutineGuard(t)()
	c := mustNew(t, Config{Workers: []string{srv.URL}, PerWorker: 2, HedgeAfter: -1})
	slowHdr := http.Header{}
	slowHdr.Set("X-Slow", "1")
	jobs := []Job{{Index: 0, Path: "/", Header: slowHdr}, {Index: 1, Path: "/"}}
	var order []int
	for r := range c.Go(context.Background(), jobs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		order = append(order, r.Index)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("completion order %v, want [1 0]", order)
	}
}
