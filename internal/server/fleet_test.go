package server

// Fleet fault-injection suite: every test maps the same batch through a
// coordinator-fronted fleet and a plain single-process server and
// requires the per-design outcomes — netlists above all — to be
// byte-identical, while workers are killed, delayed past the hedging
// threshold, or made to return corrupt bodies.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fleetGuard is the goroutine-leak guard for dispatch tests (the pattern
// from internal/core's ctx tests, plus flushing pooled keep-alive
// connections, which park goroutines without leaking them).
func fleetGuard(t *testing.T) func() {
	t.Helper()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			http.DefaultTransport.(*http.Transport).CloseIdleConnections()
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
	}
}

func postBatch(t *testing.T, url string, body BatchRequest, stream bool) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	target := url + "/map/batch"
	if stream {
		target += "?stream=1"
	}
	resp, err := http.Post(target, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBatch(t *testing.T, resp *http.Response) BatchResponse {
	t.Helper()
	defer resp.Body.Close()
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatalf("bad batch response: %v", err)
	}
	return br
}

// decodeStream reads an NDJSON batch stream back into request order and
// validates the stream contract: every line parses, indices are unique
// and complete, and the trailer is the last line.
func decodeStream(t *testing.T, resp *http.Response, n int) BatchResponse {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	br := BatchResponse{Results: make([]BatchResult, n)}
	seen := make(map[int]bool)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	sawTrailer := false
	for sc.Scan() {
		if sawTrailer {
			t.Fatalf("line after trailer: %s", sc.Text())
		}
		var trailer streamTrailer
		if err := json.Unmarshal(sc.Bytes(), &trailer); err == nil && trailer.Done {
			br.Succeeded, br.Failed = trailer.Succeeded, trailer.Failed
			sawTrailer = true
			continue
		}
		var item streamItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad stream line: %v\n%s", err, sc.Text())
		}
		if seen[item.Index] || item.Index < 0 || item.Index >= n {
			t.Fatalf("bad/duplicate stream index %d", item.Index)
		}
		seen[item.Index] = true
		br.Results[item.Index] = BatchResult{MapResponse: item.Result, Error: item.Error}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawTrailer {
		t.Fatal("stream ended without trailer")
	}
	if len(seen) != n {
		t.Fatalf("stream delivered %d results, want %d", len(seen), n)
	}
	return br
}

// requireSameOutcomes asserts per-design byte identity between a fleet
// batch and its local twin.
func requireSameOutcomes(t *testing.T, label string, fleet, local BatchResponse) {
	t.Helper()
	if len(fleet.Results) != len(local.Results) {
		t.Fatalf("%s: %d fleet results vs %d local", label, len(fleet.Results), len(local.Results))
	}
	if fleet.Succeeded != local.Succeeded || fleet.Failed != local.Failed {
		t.Fatalf("%s: counts fleet %d/%d vs local %d/%d", label,
			fleet.Succeeded, fleet.Failed, local.Succeeded, local.Failed)
	}
	for i := range fleet.Results {
		fr, lr := fleet.Results[i], local.Results[i]
		if (fr.Error == "") != (lr.Error == "") {
			t.Fatalf("%s design %d: fleet error %q vs local error %q", label, i, fr.Error, lr.Error)
		}
		if fr.Error != "" {
			continue // both failed; exact error text may embed worker detail
		}
		if fr.Netlist != lr.Netlist {
			t.Fatalf("%s design %d: netlists differ:\n%s\n--- local ---\n%s",
				label, i, fr.Netlist, lr.Netlist)
		}
		if fr.Gates != lr.Gates || fr.Area != lr.Area || fr.Delay != lr.Delay {
			t.Fatalf("%s design %d: metrics differ: fleet %d/%.3f/%.3f local %d/%.3f/%.3f",
				label, i, fr.Gates, fr.Area, fr.Delay, lr.Gates, lr.Area, lr.Delay)
		}
	}
}

func testBatch() BatchRequest {
	return BatchRequest{
		Defaults: MapRequest{Format: "eqn", Library: "LSI9K"},
		Designs: []MapRequest{
			{Name: "fig3", Design: fig3Eqn},
			{Name: "multi", Design: slowEqn(3)},
			{Name: "broken", Design: "INPUT(a\nOUTPUT(f)\nf = a;"}, // parse error: isolation
			{Name: "sync", Design: fig3Eqn, Mode: "sync"},
			{Name: "delayobj", Design: slowEqn(2), Objective: "delay"},
		},
	}
}

// TestFleetBatchByteIdentity: the determinism bar on a healthy fleet —
// buffered, streamed and single-design batches, all byte-identical to the
// single-process twin.
func TestFleetBatchByteIdentity(t *testing.T) {
	// Workers that record every request path, for the single-design case.
	var (
		mu    sync.Mutex
		paths []string
	)
	record := func(_ int64, _ http.ResponseWriter, r *http.Request) bool {
		mu.Lock()
		paths = append(paths, r.URL.Path)
		mu.Unlock()
		return false
	}
	w0, _ := wrapWorker(t, record)
	w1, _ := wrapWorker(t, record)
	coord, twin := fleetOverWorkers(t, -1, w0.URL, w1.URL)
	defer fleetGuard(t)()
	f, err := StartInProcessFleet(2, Config{Libraries: []string{"LSI9K", "CMOS3"}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	batch := testBatch()
	n := len(batch.Designs)

	local := decodeBatch(t, postBatch(t, f.LocalURL, batch, false))
	viaFleet := decodeBatch(t, postBatch(t, f.CoordinatorURL, batch, false))
	requireSameOutcomes(t, "buffered", viaFleet, local)

	streamed := decodeStream(t, postBatch(t, f.CoordinatorURL, batch, true), n)
	requireSameOutcomes(t, "streamed", streamed, local)

	// A single-design batch on a 2-worker fleet is one /map job like any
	// other: it reaches the workers as exactly one /map request.
	single := BatchRequest{Defaults: batch.Defaults,
		Designs: []MapRequest{{Name: "single", Design: slowEqn(4)}}}
	requireSameOutcomes(t, "single-design",
		batchViaHandler(t, coord, single), batchViaHandler(t, twin, single))
	mu.Lock()
	if len(paths) != 1 || paths[0] != "/map" {
		t.Errorf("single-design batch reached the workers as %q, want one /map request", paths)
	}
	mu.Unlock()

	// Fleet health is on the coordinator's /statusz.
	resp, err := http.Get(f.CoordinatorURL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var st StatuszResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Fleet == nil || len(st.Fleet.Workers) != 2 {
		t.Fatalf("coordinator /statusz missing fleet section: %+v", st.Fleet)
	}
	var wins uint64
	for _, w := range st.Fleet.Workers {
		wins += w.Wins
	}
	if wins == 0 {
		t.Fatal("no worker wins recorded on /statusz")
	}
}

// wrapWorker fronts a real worker server with a fault-injecting handler.
func wrapWorker(t *testing.T, fault func(n int64, w http.ResponseWriter, r *http.Request) bool) (*httptest.Server, *Server) {
	t.Helper()
	worker := newTestServer(t, Config{Libraries: []string{"LSI9K", "CMOS3"}})
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fault(served.Add(1), w, r) {
			return
		}
		worker.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, worker
}

// fleetOverWorkers builds a coordinator server over explicit worker URLs
// plus a plain local twin for comparison.
func fleetOverWorkers(t *testing.T, hedge time.Duration, urls ...string) (coord, local *Server) {
	t.Helper()
	coord = newTestServer(t, Config{
		Libraries:       []string{"LSI9K", "CMOS3"},
		FleetWorkers:    urls,
		FleetHedgeAfter: hedge,
	})
	local = newTestServer(t, Config{Libraries: []string{"LSI9K", "CMOS3"}})
	return coord, local
}

func batchViaHandler(t *testing.T, s *Server, batch BatchRequest) BatchResponse {
	t.Helper()
	w := postJSON(t, s.Handler(), "/map/batch", batch)
	if w.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", w.Code, w.Body.String())
	}
	var br BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	return br
}

// TestFleetWorkerKilledMidBatch: a worker that dies (connection aborts)
// after serving two requests. Retries and the surviving worker keep the
// batch byte-identical to local.
func TestFleetWorkerKilledMidBatch(t *testing.T) {
	dying, _ := wrapWorker(t, func(n int64, w http.ResponseWriter, r *http.Request) bool {
		if n > 2 {
			panic(http.ErrAbortHandler) // server dies mid-batch
		}
		return false
	})
	healthy, _ := wrapWorker(t, func(int64, http.ResponseWriter, *http.Request) bool { return false })
	coord, local := fleetOverWorkers(t, -1, dying.URL, healthy.URL)
	defer fleetGuard(t)()
	batch := testBatch()
	requireSameOutcomes(t, "killed-mid-batch",
		batchViaHandler(t, coord, batch), batchViaHandler(t, local, batch))
}

// TestFleetSingleDesignWorkerLost: a single-design batch with one worker
// aborting every request — the job retries on the healthy worker and the
// netlist still matches local byte-for-byte, whichever worker is tried
// first.
func TestFleetSingleDesignWorkerLost(t *testing.T) {
	dead, _ := wrapWorker(t, func(n int64, w http.ResponseWriter, r *http.Request) bool {
		panic(http.ErrAbortHandler)
	})
	healthy, _ := wrapWorker(t, func(int64, http.ResponseWriter, *http.Request) bool { return false })
	deadFirst, local := fleetOverWorkers(t, -1, dead.URL, healthy.URL)
	healthyFirst, _ := fleetOverWorkers(t, -1, healthy.URL, dead.URL)
	defer fleetGuard(t)()
	single := BatchRequest{
		Defaults: MapRequest{Format: "eqn", Library: "LSI9K"},
		Designs:  []MapRequest{{Name: "single", Design: slowEqn(4)}},
	}
	want := batchViaHandler(t, local, single)
	for label, coord := range map[string]*Server{"dead-first": deadFirst, "healthy-first": healthyFirst} {
		requireSameOutcomes(t, label, batchViaHandler(t, coord, single), want)
	}
}

// TestFleetHedgesStraggler: the first request into the fleet stalls well
// past the hedging threshold; the hedge wins on the other worker and the
// results stay byte-identical.
func TestFleetHedgesStraggler(t *testing.T) {
	stall := func(n int64, w http.ResponseWriter, r *http.Request) bool {
		if n == 1 {
			// Drain the body so the server's background read can detect the
			// client abort and cancel r.Context().
			_, _ = io.Copy(io.Discard, r.Body)
			select {
			case <-time.After(10 * time.Second):
			case <-r.Context().Done(): // cancelled when the hedge wins
			}
			panic(http.ErrAbortHandler)
		}
		return false
	}
	slow, _ := wrapWorker(t, stall)
	fast, _ := wrapWorker(t, func(int64, http.ResponseWriter, *http.Request) bool { return false })
	coord, local := fleetOverWorkers(t, 50*time.Millisecond, slow.URL, fast.URL)
	defer fleetGuard(t)()
	batch := BatchRequest{
		Defaults: MapRequest{Format: "eqn", Library: "LSI9K"},
		Designs: []MapRequest{
			{Name: "a", Design: fig3Eqn},
			{Name: "b", Design: slowEqn(2)},
		},
	}
	start := time.Now()
	got := batchViaHandler(t, coord, batch)
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Fatalf("batch waited %v on the straggler — hedging did not fire", elapsed)
	}
	requireSameOutcomes(t, "hedged", got, batchViaHandler(t, local, batch))
	if hedges := coord.Registry().Counter("fleet_hedges_total").Value(); hedges == 0 {
		t.Fatal("no hedges recorded")
	}
}

// TestFleetCorruptBody: a worker answering 200 with garbage fails byte
// validation and the job retries elsewhere; the caller never sees the
// corruption.
func TestFleetCorruptBody(t *testing.T) {
	corrupting, _ := wrapWorker(t, func(n int64, w http.ResponseWriter, r *http.Request) bool {
		if n%2 == 1 { // every odd request: valid status, corrupt payload
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, "}{ not json")
			return true
		}
		return false
	})
	healthy, _ := wrapWorker(t, func(int64, http.ResponseWriter, *http.Request) bool { return false })
	coord, local := fleetOverWorkers(t, -1, corrupting.URL, healthy.URL)
	defer fleetGuard(t)()
	batch := testBatch()
	requireSameOutcomes(t, "corrupt-body",
		batchViaHandler(t, coord, batch), batchViaHandler(t, local, batch))
}

// TestRetryAfterComputedFromLoad: the 503 hint is queue depth × rolling
// p50 across the concurrency lanes, clamped to [1, MaxTimeout] — not the
// old constant 1.
func TestRetryAfterComputedFromLoad(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 2, MaxTimeout: 90 * time.Second})

	// Cold window: no p50 yet → the hint degrades to 1.
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("cold retryAfterSeconds = %d, want 1", got)
	}

	// Warm: ~4s p50, 6 requests deep over 2 lanes → at least ~12s.
	for i := 0; i < 8; i++ {
		s.roll[stageRequest].Observe(4.0)
	}
	s.queued.Add(4)
	s.inflight.Add(2)
	defer func() { s.queued.Add(-4); s.inflight.Add(-2) }()
	got := s.retryAfterSeconds()
	if got < 12 || got > 90 {
		t.Fatalf("retryAfterSeconds = %d, want within [12, 90]", got)
	}

	// Clamp: a tiny MaxTimeout caps the hint.
	s2 := newTestServer(t, Config{MaxConcurrent: 1, MaxTimeout: 3 * time.Second})
	for i := 0; i < 8; i++ {
		s2.roll[stageRequest].Observe(60.0)
	}
	s2.queued.Add(10)
	defer s2.queued.Add(-10)
	if got := s2.retryAfterSeconds(); got != 3 {
		t.Fatalf("clamped retryAfterSeconds = %d, want 3", got)
	}

	// The handler path serves the computed value on a real rejection.
	w := httptest.NewRecorder()
	s2.writeBusy(w, "r-test-1", errBusy)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("writeBusy status %d", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want 3", ra)
	}
}

// TestStreamBatchLocal: the NDJSON contract on a plain (non-fleet)
// server — indices complete, trailer last, results equal to buffered.
func TestStreamBatchLocal(t *testing.T) {
	s := newTestServer(t, Config{})
	batch := testBatch()
	raw, _ := json.Marshal(batch)

	req := httptest.NewRequest(http.MethodPost, "/map/batch?stream=1", bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("stream status %d: %s", w.Code, w.Body.String())
	}
	streamed := decodeStream(t, &http.Response{
		Header: w.Header(), Body: io.NopCloser(strings.NewReader(w.Body.String())),
	}, len(batch.Designs))
	buffered := batchViaHandler(t, s, batch)
	requireSameOutcomes(t, "local-stream", streamed, buffered)
}
