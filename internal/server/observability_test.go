package server

// Tests for the service-observability layer: request-ID correlation
// across access log, trace spans, headers and error bodies; the /statusz
// rolling digests; Prometheus exposition on /metrics; the /healthz
// readiness detail; and the zero-allocation access-log fast path.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gfmap/internal/obs"
)

// syncBuffer lets tests collect log output written from handler
// goroutines without racing the assertions.
type syncBuffer struct {
	mu  sync.Mutex
	buf *bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// One request ID, visible everywhere: response header, response body,
// the access-log line, and every pipeline trace span.
func TestRequestIDCorrelation(t *testing.T) {
	var logBuf bytes.Buffer
	tracer := obs.NewTracer(0)
	s := newTestServer(t, Config{
		AccessLog: &syncBuffer{buf: &logBuf},
		Tracer:    tracer,
	})
	w := postJSON(t, s.Handler(), "/map", MapRequest{
		Name: "fig3", Format: "eqn", Design: fig3Eqn, Library: "LSI9K",
	})
	if w.Code != http.StatusOK {
		t.Fatalf("map failed: %d %s", w.Code, w.Body.String())
	}

	rid := w.Header().Get(RequestIDHeader)
	if rid == "" {
		t.Fatal("response has no X-Request-ID header")
	}
	resp := decodeMapResponse(t, w)
	if resp.RequestID != rid {
		t.Errorf("body request_id %q != header %q", resp.RequestID, rid)
	}

	// The access-log line carries the same ID plus the design identity
	// filled in after parsing.
	var accessLine map[string]any
	found := false
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("access log line is not JSON: %v\n%s", err, line)
		}
		if m["msg"] == "request" && m["request_id"] == rid {
			accessLine, found = m, true
		}
	}
	if !found {
		t.Fatalf("no access-log line for %s:\n%s", rid, logBuf.String())
	}
	if accessLine["status"] != float64(200) || accessLine["path"] != "/map" ||
		accessLine["design"] != "fig3" || accessLine["library"] != "LSI9K" {
		t.Errorf("access line fields: %v", accessLine)
	}
	if ms, ok := accessLine["elapsed_ms"].(float64); !ok || ms <= 0 {
		t.Errorf("access line elapsed_ms = %v", accessLine["elapsed_ms"])
	}

	// Every phase span the tracer recorded is stamped with the same ID.
	var traceBuf bytes.Buffer
	if err := tracer.WriteJSONL(&traceBuf); err != nil {
		t.Fatal(err)
	}
	spans, stamped := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(traceBuf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("trace line is not JSON: %v\n%s", err, line)
		}
		if m["ph"] != "span" {
			continue
		}
		spans++
		if attrs, _ := m["attrs"].(map[string]any); attrs != nil && attrs["request_id"] == rid {
			stamped++
		}
	}
	if spans == 0 {
		t.Fatal("tracer recorded no spans")
	}
	if stamped == 0 {
		t.Fatalf("no trace span carries request_id %s:\n%s", rid, traceBuf.String())
	}
}

// A well-formed client-supplied X-Request-ID is honoured; a malformed
// one is replaced with a server-minted ID.
func TestRequestIDClientSupplied(t *testing.T) {
	s := newTestServer(t, Config{})
	do := func(id string) string {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		if id != "" {
			req.Header.Set(RequestIDHeader, id)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		return w.Header().Get(RequestIDHeader)
	}
	if got := do("proxy-abc.123"); got != "proxy-abc.123" {
		t.Errorf("valid client ID replaced: %q", got)
	}
	if got := do("bad id\nwith newline"); got == "bad id\nwith newline" || got == "" {
		t.Errorf("malformed client ID not replaced: %q", got)
	}
	if got := do(strings.Repeat("x", 65)); len(got) > 64 {
		t.Errorf("oversized client ID kept: %q", got)
	}
	if a, b := do(""), do(""); a == b || a == "" {
		t.Errorf("minted IDs not unique: %q %q", a, b)
	}
}

// Error responses carry the request ID so a failed call is still
// correlatable from the body alone.
func TestErrorBodyCarriesRequestID(t *testing.T) {
	s := newTestServer(t, Config{})
	w := postJSON(t, s.Handler(), "/map", MapRequest{Format: "vhdl", Design: "x"})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d", w.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.RequestID == "" || eb.RequestID != w.Header().Get(RequestIDHeader) {
		t.Errorf("error body request_id %q, header %q", eb.RequestID, w.Header().Get(RequestIDHeader))
	}
}

// After serving load, /statusz reports nonzero rolling quantiles for the
// request and pipeline stages, admission bounds, cache hit rates and the
// match memo of every served library.
func TestStatusz(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 2})
	h := s.Handler()
	for i := 0; i < 3; i++ {
		if w := postJSON(t, h, "/map", MapRequest{Format: "eqn", Design: fig3Eqn}); w.Code != http.StatusOK {
			t.Fatalf("warm-up map %d failed: %d %s", i, w.Code, w.Body.String())
		}
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/statusz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("statusz: %d %s", w.Code, w.Body.String())
	}
	var st StatuszResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("statusz not JSON: %v\n%s", err, w.Body.String())
	}
	req := st.Stages["request"]
	if req.Count < 3 {
		t.Errorf("rolling request count = %d, want >= 3", req.Count)
	}
	if req.P50MS <= 0 || req.P99MS <= 0 || req.P99MS < req.P50MS {
		t.Errorf("rolling request quantiles p50=%g p99=%g", req.P50MS, req.P99MS)
	}
	if cover := st.Stages["cover"]; cover.Count < 3 || cover.P50MS <= 0 {
		t.Errorf("rolling cover stage: %+v", cover)
	}
	if st.Admission.MaxConcurrent != 2 || st.Admission.MaxQueue != 4 {
		t.Errorf("admission bounds: %+v", st.Admission)
	}
	if st.WindowSeconds != 60 {
		t.Errorf("window = %g, want 60", st.WindowSeconds)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime = %g", st.UptimeSeconds)
	}
	if st.HazardCache.Hits+st.HazardCache.Misses == 0 {
		t.Errorf("hazard cache saw no traffic: %+v", st.HazardCache)
	}
	// Every served library reports its match memo; the mapped one (the
	// first, the default) holds the targets of Figure 3.
	if len(st.MatchMemo) != 2 {
		t.Errorf("match_memo lists %d libraries, want the 2 served: %+v", len(st.MatchMemo), st.MatchMemo)
	}
	if m := st.MatchMemo["LSI9K"]; m.Entries < 1 || m.Bytes <= 0 || m.Full {
		t.Errorf("LSI9K match memo after three maps: %+v", m)
	}
	// The only live request is the /statusz scrape itself.
	for _, row := range st.Inflight {
		if row.Path != "/statusz" {
			t.Errorf("idle server reports in-flight request: %+v", row)
		}
	}
	if st.Store.Enabled {
		t.Errorf("store reported enabled without one configured")
	}
}

// A long-running request appears in /statusz's in-flight table with its
// request ID, and disappears once it completes.
func TestStatuszInflightTable(t *testing.T) {
	s := newTestServer(t, Config{})
	release := make(chan struct{})
	h := s.instrument(s.protect(func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.WriteHeader(http.StatusNoContent)
	}))
	done := make(chan string, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/map", strings.NewReader(""))
		req.Header.Set(RequestIDHeader, "slow-req-1")
		w := httptest.NewRecorder()
		h(w, req)
		done <- w.Header().Get(RequestIDHeader)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/statusz", nil))
		var st StatuszResponse
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		var row *InflightInfo
		for i := range st.Inflight {
			if st.Inflight[i].RequestID == "slow-req-1" {
				row = &st.Inflight[i]
			}
		}
		if row != nil {
			if row.Method != http.MethodPost || row.Path != "/map" {
				t.Errorf("in-flight row: %+v", *row)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow request never appeared in the in-flight table")
		}
		time.Sleep(time.Millisecond)
	}

	close(release)
	if got := <-done; got != "slow-req-1" {
		t.Errorf("slow request header ID %q", got)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/statusz", nil))
	var st StatuszResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	for _, row := range st.Inflight {
		if row.RequestID == "slow-req-1" {
			t.Errorf("completed request still in the table: %+v", row)
		}
	}
}

// /metrics negotiates Prometheus text exposition and the output passes
// the package's promtool-style linter.
func TestMetricsPrometheus(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	if w := postJSON(t, h, "/map", MapRequest{Format: "eqn", Design: fig3Eqn}); w.Code != http.StatusOK {
		t.Fatalf("warm-up map failed: %d %s", w.Code, w.Body.String())
	}

	for _, tc := range []struct {
		name   string
		target string
		accept string
	}{
		{"query-param", "/metrics?format=prom", ""},
		{"accept-header", "/metrics", "text/plain"},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.target, nil)
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d", tc.name, w.Code)
		}
		if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
			t.Errorf("%s: content-type %q", tc.name, ct)
		}
		body := w.Body.Bytes()
		if issues := obs.LintPrometheus(body); len(issues) != 0 {
			t.Errorf("%s: exposition fails lint:\n%s\npayload:\n%s",
				tc.name, strings.Join(issues, "\n"), body)
		}
		for _, want := range []string{
			"# TYPE " + MetricRequests + " counter",
			"# TYPE " + MetricRequestSeconds + " histogram",
			"# TYPE " + RollingRequestSeconds + " summary",
			RollingCoverSeconds + `{quantile="0.99"}`,
		} {
			if !strings.Contains(string(body), want) {
				t.Errorf("%s: exposition missing %q", tc.name, want)
			}
		}
	}

	// No Accept header, no format: the JSON snapshot (back-compat).
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("default /metrics content-type %q", ct)
	}
	if !json.Valid(w.Body.Bytes()) {
		t.Errorf("default /metrics is not JSON")
	}
}

// /healthz keeps the bare 200 + "ok" liveness contract and adds the
// readiness detail.
func TestHealthzDetail(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 3, MaxQueue: 5})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"status":"ok"`) {
		t.Fatalf("healthz contract broken: %d %s", w.Code, w.Body.String())
	}
	var hz HealthzResponse
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.LibraryCount != 2 || len(hz.Libraries) != 2 {
		t.Errorf("library detail: %+v", hz)
	}
	if hz.MaxConcurrent != 3 || hz.QueueCapacity != 8 {
		t.Errorf("capacity detail: %+v", hz)
	}
	if hz.UptimeSeconds < 0 {
		t.Errorf("uptime: %g", hz.UptimeSeconds)
	}
	if hz.StoreEnabled {
		t.Errorf("store enabled without one configured")
	}
}

// The access-log emit path must not allocate once the logger's buffer
// pool is warm: one pooled buffer, appended in place, one Write.
func TestAccessLogZeroAllocs(t *testing.T) {
	s := newTestServer(t, Config{AccessLog: io.Discard})
	s.logRequest("r-warm-0", "POST", "/map", 200, 512, time.Millisecond, "fig3", "LSI9K")
	allocs := testing.AllocsPerRun(1000, func() {
		s.logRequest("r-abcd1234-2a", "POST", "/map", 200, 4096, 1500*time.Microsecond, "fig3", "LSI9K")
	})
	if allocs != 0 {
		t.Fatalf("access-log fast path allocates: %v allocs/op", allocs)
	}
}

func BenchmarkAccessLogLine(b *testing.B) {
	s, err := New(Config{Libraries: []string{"LSI9K"}, AccessLog: io.Discard})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.logRequest("r-abcd1234-2a", "POST", "/map", 200, 4096, 1500*time.Microsecond, "fig3", "LSI9K")
	}
}
