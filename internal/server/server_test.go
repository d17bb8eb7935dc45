package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gfmap/internal/mapstore"
	"gfmap/internal/obs"
)

const (
	// The paper's Figure 3 carry function, in both accepted formats.
	fig3Eqn  = "INPUT(a,b,c)\nOUTPUT(f)\nf = a*b + a'*c + b*c;\n"
	fig3Blif = ".model fig3\n.inputs a b c\n.outputs f\n.names a b c f\n11- 1\n0-1 1\n-11 1\n.end\n"
)

// slowEqn builds a design with n similar cones, big enough to outlive a
// millisecond-scale deadline. A run covers each distinct cone structure
// once, so every output past the first adds its own product term
// (ownTerm) and no two cones share a structure.
func slowEqn(n int) string {
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
		fmt.Fprintf(&b, "f%d = (a*b + c*d)*(e + g') + (a'*c + b*d')*(h + i') + b*c*(e' + h')%s;\n", k, ownTerm(k))
	}
	return b.String()
}

// ownTerm returns the extra product term of output k: " + " and one
// literal per binary digit of k over the inputs a, b, c, …, complemented
// where the digit is 1, so the term's width and complements spell k. It is
// empty for k = 0 and defined for k < 256.
func ownTerm(k int) string {
	inputs := []string{"a", "b", "c", "d", "e", "g", "h", "i"}
	var lits []string
	for j := 0; k>>j != 0; j++ {
		lit := inputs[j]
		if k>>j&1 == 1 {
			lit += "'"
		}
		lits = append(lits, lit)
	}
	if len(lits) == 0 {
		return ""
	}
	return " + " + strings.Join(lits, "*")
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if len(cfg.Libraries) == 0 {
		cfg.Libraries = []string{"LSI9K", "CMOS3"}
	}
	if cfg.AccessLog == nil {
		cfg.AccessLog = io.Discard // keep test output clean; tests that
		// assert on the log pass their own buffer
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(raw)))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeMapResponse(t *testing.T, w *httptest.ResponseRecorder) MapResponse {
	t.Helper()
	var resp MapResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, w.Body.String())
	}
	return resp
}

func TestMapEndpointJSON(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, tc := range []struct {
		name string
		req  MapRequest
	}{
		{"eqn", MapRequest{Name: "fig3", Format: "eqn", Design: fig3Eqn, Library: "LSI9K", Mode: "async"}},
		{"blif", MapRequest{Format: "blif", Design: fig3Blif, Library: "LSI9K", Mode: "async", Output: "both"}},
		{"sync-delay", MapRequest{Format: "eqn", Design: fig3Eqn, Mode: "sync", Objective: "delay"}},
	} {
		w := postJSON(t, s.Handler(), "/map", tc.req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, w.Code, w.Body.String())
		}
		resp := decodeMapResponse(t, w)
		if resp.Gates == 0 || resp.Area <= 0 {
			t.Errorf("%s: empty mapping: %+v", tc.name, resp)
		}
		if tc.req.Output == "both" && (resp.Netlist == "" || !strings.Contains(resp.Verilog, "module fig3(")) {
			t.Errorf("%s: missing rendered outputs: %+v", tc.name, resp)
		}
		if tc.req.Output == "" && resp.Netlist == "" {
			t.Errorf("%s: default output should include the netlist", tc.name)
		}
	}
}

// A server built without Config.HazardCache shares no hazard analysis
// between requests: the second of two identical Actel requests makes every
// analysis past the per-cone memo again and reports no cache hit.
func TestNoHazardCacheByDefault(t *testing.T) {
	s, err := New(Config{AccessLog: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	req := MapRequest{Format: "eqn", Design: fig3Eqn, Library: "Actel", Mode: "async"}
	var runs [2]MapResponse
	for i := range runs {
		w := postJSON(t, s.Handler(), "/map", req)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i+1, w.Code, w.Body.String())
		}
		runs[i] = decodeMapResponse(t, w)
	}
	first, second := runs[0].Stats, runs[1].Stats
	if first.HazCacheMisses == 0 {
		t.Fatal("Figure 3 on Actel made no hazard analyses past the per-cone memo")
	}
	if second.HazCacheHits != 0 || second.HazCacheMisses != first.HazCacheMisses {
		t.Errorf("second request: %d hits and %d fresh analyses, want 0 and %d",
			second.HazCacheHits, second.HazCacheMisses, first.HazCacheMisses)
	}
}

// A raw (non-JSON) POST body is the design text; options ride in query
// parameters. This is the curl-friendly path the CI smoke test uses.
func TestMapEndpointRawBody(t *testing.T) {
	s := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodPost,
		"/map?format=blif&library=LSI9K&mode=async&output=netlist",
		strings.NewReader(fig3Blif))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeMapResponse(t, w)
	if resp.Name != "fig3" || resp.Gates == 0 || resp.Netlist == "" {
		t.Fatalf("unexpected response: %+v", resp)
	}
}

func TestMapEndpointBadInputs(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	for _, tc := range []struct {
		name string
		do   func() *httptest.ResponseRecorder
		want int
	}{
		{"method", func() *httptest.ResponseRecorder {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/map", nil))
			return w
		}, http.StatusMethodNotAllowed},
		{"bad-json", func() *httptest.ResponseRecorder {
			w := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/map", strings.NewReader("{not json"))
			req.Header.Set("Content-Type", "application/json")
			h.ServeHTTP(w, req)
			return w
		}, http.StatusBadRequest},
		{"bad-int-param", func() *httptest.ResponseRecorder {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/map?timeout_ms=soon", strings.NewReader(fig3Blif)))
			return w
		}, http.StatusBadRequest},
		{"empty-design", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/map", MapRequest{Format: "eqn"})
		}, http.StatusBadRequest},
		{"unknown-library", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/map", MapRequest{Format: "eqn", Design: fig3Eqn, Library: "TTL74"})
		}, http.StatusBadRequest},
		{"unknown-format", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/map", MapRequest{Format: "vhdl", Design: fig3Eqn})
		}, http.StatusBadRequest},
		{"parse-error", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/map", MapRequest{Format: "eqn", Design: "f = ((a;"})
		}, http.StatusBadRequest},
		{"bad-mode", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/map", MapRequest{Format: "eqn", Design: fig3Eqn, Mode: "psycho"})
		}, http.StatusBadRequest},
	} {
		w := tc.do()
		if w.Code != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, w.Code, tc.want, w.Body.String())
		}
		var eb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body not JSON: %s", tc.name, w.Body.String())
		}
	}
}

// One failing design in a batch must not poison its neighbours.
func TestBatchErrorIsolation(t *testing.T) {
	s := newTestServer(t, Config{})
	w := postJSON(t, s.Handler(), "/map/batch", BatchRequest{
		Defaults: MapRequest{Format: "eqn", Library: "LSI9K", Mode: "async"},
		Designs: []MapRequest{
			{Name: "ok1", Design: fig3Eqn},
			{Name: "broken", Design: "f = ((a;"},
			{Name: "ok2", Design: fig3Eqn, Library: "CMOS3"},
		},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Succeeded != 2 || resp.Failed != 1 || len(resp.Results) != 3 {
		t.Fatalf("succeeded=%d failed=%d results=%d", resp.Succeeded, resp.Failed, len(resp.Results))
	}
	if resp.Results[0].MapResponse == nil || resp.Results[0].Gates == 0 {
		t.Errorf("first design should have mapped: %+v", resp.Results[0])
	}
	if resp.Results[1].Error == "" || resp.Results[1].MapResponse != nil {
		t.Errorf("second design should carry only an error: %+v", resp.Results[1])
	}
	if resp.Results[2].MapResponse == nil || resp.Results[2].Library != "CMOS3" {
		t.Errorf("third design should have mapped on CMOS3: %+v", resp.Results[2])
	}
}

// With every worker slot busy and the wait queue full, new requests are
// rejected immediately with 503 — backpressure instead of pile-up.
func TestBackpressure503(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	// Occupy the only worker slot.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	// Fill the wait queue (MaxConcurrent+MaxQueue waiters are admitted)
	// with requests that will sit in acquire until we cancel them.
	waitCtx, cancelWaiters := context.WithCancel(context.Background())
	done := make(chan *httptest.ResponseRecorder, 2)
	for i := 0; i < 2; i++ {
		go func() {
			req := httptest.NewRequest(http.MethodPost, "/map?format=eqn&library=LSI9K", strings.NewReader(fig3Eqn))
			req = req.WithContext(waitCtx)
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, req)
			done <- w
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.queued.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never queued: %d", s.queued.Load())
		}
		time.Sleep(time.Millisecond)
	}

	// The next request must bounce instantly.
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost,
		"/map?format=eqn&library=LSI9K", strings.NewReader(fig3Eqn)))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if got := s.reg.Counter(MetricRejected).Value(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	// Release the waiters; their contexts end before a slot frees up.
	cancelWaiters()
	for i := 0; i < 2; i++ {
		select {
		case w := <-done:
			if w.Code != 499 {
				t.Errorf("cancelled waiter got status %d", w.Code)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter never finished after cancel")
		}
	}
}

// A request deadline must abort the covering DP and answer 504.
func TestRequestTimeout504(t *testing.T) {
	s := newTestServer(t, Config{
		MaxTimeout: time.Minute,
		Registry:   obs.NewRegistry(),
	})
	w := postJSON(t, s.Handler(), "/map", MapRequest{
		Format: "eqn", Design: slowEqn(120), Library: "LSI9K", TimeoutMS: 3,
	})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", w.Code, w.Body.String())
	}
	if got := s.reg.Counter(MetricTimeouts).Value(); got != 1 {
		t.Errorf("timeout counter = %d, want 1", got)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	if w := postJSON(t, h, "/map", MapRequest{Format: "eqn", Design: fig3Eqn}); w.Code != http.StatusOK {
		t.Fatalf("warm-up map failed: %d %s", w.Code, w.Body.String())
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok"`) {
		t.Fatalf("healthz: %d %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "LSI9K") {
		t.Errorf("healthz does not list libraries: %s", w.Body.String())
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	body := w.Body.String()
	for _, name := range []string{MetricRequests, MetricRequestSeconds, MetricInflight} {
		if !strings.Contains(body, name) {
			t.Errorf("metrics JSON missing %s:\n%s", name, body)
		}
	}
	// The mapper's own metrics land in the same registry.
	if !strings.Contains(body, "map_") {
		t.Errorf("metrics JSON missing mapper metrics:\n%s", body)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics?format=text", nil))
	if !strings.Contains(w.Body.String(), MetricRequests) {
		t.Errorf("text metrics missing %s:\n%s", MetricRequests, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("text metrics content-type %q", ct)
	}
}

// A panicking request answers 500 and leaves the server serving. The
// recovery is a structured log line carrying the request ID.
func TestProtectIsolatesPanic(t *testing.T) {
	var logBuf bytes.Buffer
	s := newTestServer(t, Config{AccessLog: &syncBuffer{buf: &logBuf}})
	h := s.instrument(s.protect(func(w http.ResponseWriter, r *http.Request) { panic("kaboom") }))
	w := httptest.NewRecorder()
	h(w, httptest.NewRequest(http.MethodGet, "/map", nil))
	if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "kaboom") {
		t.Fatalf("panic response: %d %s", w.Code, w.Body.String())
	}
	if got := s.reg.Counter(MetricPanics).Value(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
	rid := w.Header().Get(RequestIDHeader)
	if rid == "" {
		t.Fatal("panic response lost the X-Request-ID header")
	}
	logs := logBuf.String()
	if !strings.Contains(logs, `"msg":"panic recovered"`) || !strings.Contains(logs, rid) {
		t.Errorf("panic log line missing or uncorrelated (rid %s):\n%s", rid, logs)
	}
	// The server still works.
	if w := postJSON(t, s.Handler(), "/map", MapRequest{Format: "eqn", Design: fig3Eqn}); w.Code != http.StatusOK {
		t.Fatalf("server dead after panic: %d %s", w.Code, w.Body.String())
	}
}

func TestUnknownLibraryAtStartup(t *testing.T) {
	if _, err := New(Config{Libraries: []string{"NOPE"}}); err == nil {
		t.Fatal("New accepted an unknown library")
	}
}

// A server restarted onto the same store file serves byte-identical
// responses with a warm-start hit rate > 0: the second process replays
// every cone's covering solution from disk instead of re-running the DP.
func TestStoreWarmRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "solutions.mapstore")
	req := MapRequest{Name: "warm", Format: "eqn", Design: slowEqn(4), Library: "LSI9K", Mode: "async"}

	st1, err := mapstore.Open(path, mapstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := newTestServer(t, Config{Store: st1})
	w := postJSON(t, s1.Handler(), "/map", req)
	if w.Code != http.StatusOK {
		t.Fatalf("first server: status %d: %s", w.Code, w.Body.String())
	}
	cold := decodeMapResponse(t, w)
	if cold.Stats.StoreMisses == 0 {
		t.Fatalf("cold server reported no store misses: %+v", cold.Stats)
	}
	if err := st1.Close(); err != nil { // "process" one exits
		t.Fatal(err)
	}

	st2, err := mapstore.Open(path, mapstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2 := newTestServer(t, Config{Store: st2})
	w = postJSON(t, s2.Handler(), "/map", req)
	if w.Code != http.StatusOK {
		t.Fatalf("restarted server: status %d: %s", w.Code, w.Body.String())
	}
	warm := decodeMapResponse(t, w)

	if warm.Netlist != cold.Netlist {
		t.Errorf("restart changed the netlist:\ncold:\n%s\nwarm:\n%s", cold.Netlist, warm.Netlist)
	}
	if warm.Gates != cold.Gates || warm.Area != cold.Area || warm.Delay != cold.Delay {
		t.Errorf("restart changed the summary: cold=%+v warm=%+v", cold, warm)
	}
	if cd, wd := cold.Stats.Deterministic(), warm.Stats.Deterministic(); cd != wd {
		t.Errorf("restart changed deterministic stats:\ncold %+v\nwarm %+v", cd, wd)
	}
	if warm.Stats.StoreHits == 0 {
		t.Errorf("restarted server had no warm hits: %+v", warm.Stats)
	}
	if warm.Stats.StoreHits != warm.Stats.Cones || warm.Stats.StoreMisses != 0 {
		t.Errorf("warm restart: hits=%d misses=%d, want %d hits 0 misses",
			warm.Stats.StoreHits, warm.Stats.StoreMisses, warm.Stats.Cones)
	}

	// The store's counters are visible on the restarted server's /metrics.
	mw := httptest.NewRecorder()
	s2.Handler().ServeHTTP(mw, httptest.NewRequest(http.MethodGet, "/metrics?format=text", nil))
	if !strings.Contains(mw.Body.String(), "mapstore_hits") {
		t.Errorf("/metrics missing mapstore gauges:\n%s", mw.Body.String())
	}
}
