// Package server implements asyncmapd's HTTP mapping service: a
// long-lived, concurrency-limited front end over core.Map.
//
// Design designs (BLIF or eqn text) are mapped against libraries that are
// preloaded and hazard-annotated once at startup, so no request pays the
// library-initialisation cost. Every request runs under a deadline and the
// request's own context, threaded through core.Options.Ctx into the
// covering DP: a cancelled or timed-out request aborts the pipeline at the
// next cone/cut/binding boundary and releases its worker slot without
// leaking goroutines. Admission is a fixed-size semaphore with a bounded
// wait queue — requests beyond the queue are rejected immediately with
// 503 and a Retry-After hint (backpressure, not collapse). A panicking
// request is isolated: it answers 500 and the process keeps serving.
//
// See docs/SERVING.md for the full API and operational contract.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gfmap/internal/blif"
	"gfmap/internal/core"
	"gfmap/internal/eqn"
	"gfmap/internal/hazcache"
	"gfmap/internal/library"
	"gfmap/internal/mapstore"
	"gfmap/internal/network"
	"gfmap/internal/obs"
	"gfmap/internal/synth"
)

// Config tunes a Server. The zero value is a usable development setup.
type Config struct {
	// Libraries names the built-in libraries to preload and annotate at
	// startup. Empty means every built-in (library.BuiltinNames).
	Libraries []string
	// MaxConcurrent bounds how many mapping requests run simultaneously;
	// 0 means 4. Each request may itself use core's per-cone worker pool.
	MaxConcurrent int
	// MaxQueue bounds how many admitted requests may wait for a slot
	// beyond the MaxConcurrent running ones; 0 means 2*MaxConcurrent.
	// Requests past the queue are rejected with 503 (backpressure).
	MaxQueue int
	// DefaultTimeout is the per-request mapping deadline when the client
	// does not ask for one; 0 means 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines; 0 means 5m.
	MaxTimeout time.Duration
	// MaxBodyBytes bounds request bodies; 0 means 8 MiB.
	MaxBodyBytes int64
	// MapWorkers is core.Options.Workers for every request; 0 means one
	// per CPU (shared fairly by the admission limiter above).
	MapWorkers int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Registry receives the server's and the mapper's metrics; nil means
	// a fresh private registry (exposed at /metrics either way).
	Registry *obs.Registry
	// HazardCache is the cross-request hazard-analysis cache; nil means
	// the process-wide hazcache.Shared(). Requests share it by design:
	// one request's analyses warm the next one's matching filter.
	HazardCache *hazcache.Cache
	// Store is the persistent content-addressed cone-solution store
	// shared by every request; nil disables it. The store is owned by
	// the caller (typically opened from a -store path in cmd/asyncmapd
	// and closed on shutdown); its counters appear under /metrics.
	Store *mapstore.Store
	// AccessLog receives one structured JSON line per request (and the
	// server's panic logs); nil means os.Stderr. Pass io.Discard to
	// silence.
	AccessLog io.Writer
	// Tracer, when non-nil, receives the mapper's per-phase spans for
	// every request, each stamped with the request's ID.
	Tracer *obs.Tracer
	// StatusWindow is the rolling window behind /statusz's per-stage
	// latency digests; 0 means 60s.
	StatusWindow time.Duration
	// FleetWorkers lists worker asyncmapd base URLs. Non-empty switches
	// this server into coordinator mode: /map/batch work is dispatched
	// across the fleet, one /map job per design, with hedged retries, and
	// every result is the byte-identical netlist a single process would
	// produce. Workers are plain asyncmapd instances — nothing
	// fleet-specific runs on them.
	FleetWorkers []string
	// FleetHedgeAfter is the straggler threshold before a job is hedged
	// onto another worker; 0 means 2s, negative disables hedging.
	FleetHedgeAfter time.Duration
	// FleetMaxAttempts bounds remote attempts per job before the
	// coordinator falls back to mapping locally; 0 means 3.
	FleetMaxAttempts int
	// FleetPerWorker is the number of concurrent requests per worker;
	// 0 means 4.
	FleetPerWorker int
	// FleetClient overrides the coordinator's HTTP client (tests).
	FleetClient *http.Client
}

func (c Config) withDefaults() Config {
	if len(c.Libraries) == 0 {
		c.Libraries = append([]string(nil), library.BuiltinNames...)
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.HazardCache == nil {
		c.HazardCache = hazcache.Shared()
	}
	if c.AccessLog == nil {
		c.AccessLog = os.Stderr
	}
	if c.StatusWindow <= 0 {
		c.StatusWindow = time.Minute
	}
	return c
}

// Server metric names, published into the configured registry alongside
// the mapper's own map_* metrics.
const (
	MetricRequests       = "server_requests_total"
	MetricDesigns        = "server_designs_mapped_total"
	MetricErrors         = "server_errors_total"
	MetricRejected       = "server_rejected_total"
	MetricTimeouts       = "server_timeouts_total"
	MetricCanceled       = "server_canceled_total"
	MetricPanics         = "server_panics_total"
	MetricInflight       = "server_inflight"
	MetricQueued         = "server_queued"
	MetricRequestSeconds = "server_request_seconds"
)

// Server is the HTTP mapping service. Create one with New and mount
// Handler on an http.Server.
type Server struct {
	cfg    Config
	libs   map[string]*library.Library
	order  []string // library names in configured order (order[0] is the default)
	reg    *obs.Registry
	mux    *http.ServeMux
	logger *obs.Logger
	start  time.Time
	roll   rollingSet

	sem      chan struct{}
	queued   atomic.Int64
	inflight atomic.Int64

	infMu    sync.Mutex
	infTable map[*inflightEntry]struct{}

	fleet *fleetState // nil unless FleetWorkers configured

	requests   *obs.Counter
	designs    *obs.Counter
	errorsC    *obs.Counter
	rejected   *obs.Counter
	timeouts   *obs.Counter
	canceled   *obs.Counter
	panics     *obs.Counter
	reqSeconds *obs.Histogram
}

// New preloads and annotates the configured libraries and builds the
// service. Annotation happens here, once — never on a request path.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		libs:     make(map[string]*library.Library, len(cfg.Libraries)),
		reg:      cfg.Registry,
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		logger:   obs.NewLogger(cfg.AccessLog),
		start:    time.Now(),
		infTable: make(map[*inflightEntry]struct{}),
	}
	s.roll = newRollingSet(s.reg, cfg.StatusWindow)
	for _, name := range cfg.Libraries {
		lib, err := library.Get(name) // cached + annotated
		if err != nil {
			return nil, fmt.Errorf("server: preload library %s: %w", name, err)
		}
		s.libs[name] = lib
		s.order = append(s.order, name)
	}
	s.requests = s.reg.Counter(MetricRequests)
	s.designs = s.reg.Counter(MetricDesigns)
	s.errorsC = s.reg.Counter(MetricErrors)
	s.rejected = s.reg.Counter(MetricRejected)
	s.timeouts = s.reg.Counter(MetricTimeouts)
	s.canceled = s.reg.Counter(MetricCanceled)
	s.panics = s.reg.Counter(MetricPanics)
	s.reqSeconds = s.reg.Histogram(MetricRequestSeconds, obs.ExpBuckets(1e-3, 4, 10))

	if len(cfg.FleetWorkers) > 0 {
		fs, err := newFleetState(s)
		if err != nil {
			return nil, err
		}
		s.fleet = fs
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/map", s.instrument(s.protect(s.handleMap)))
	s.mux.HandleFunc("/synth", s.instrument(s.protect(s.handleSynth)))
	s.mux.HandleFunc("/map/batch", s.instrument(s.protect(s.handleBatch)))
	s.mux.HandleFunc("/healthz", s.instrument(s.protect(s.handleHealthz)))
	s.mux.HandleFunc("/metrics", s.instrument(s.protect(s.handleMetrics)))
	s.mux.HandleFunc("/statusz", s.instrument(s.protect(s.handleStatusz)))
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the metrics registry the server publishes into.
func (s *Server) Registry() *obs.Registry { return s.reg }

// protect wraps a handler with per-request panic isolation: a panic
// answers 500 and is counted, and the process keeps serving. The
// recovery is logged as a structured line carrying the request ID so it
// correlates with the access log and trace spans.
func (s *Server) protect(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Inc()
				s.errorsC.Inc()
				s.logger.Error("panic recovered").
					Str("request_id", RequestIDFromContext(r.Context())).
					Str("method", r.Method).
					Str("path", r.URL.Path).
					Str("panic", fmt.Sprint(rec)).
					Str("stack", string(debug.Stack())).
					Send()
				writeError(w, http.StatusInternalServerError, RequestIDFromContext(r.Context()),
					fmt.Errorf("internal panic: %v", rec))
			}
		}()
		h(w, r)
	}
}

// statusWriter captures the response status and byte count for the
// access log without changing the handler-visible contract.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// instrument is the outermost per-request middleware: it assigns the
// request ID (honouring a well-formed client-supplied one), echoes it in
// the X-Request-ID response header before the handler runs, registers
// the request in the in-flight table, and on completion emits one
// structured access-log line and feeds the rolling request-latency
// window. It wraps protect, so panic responses are logged too.
func (s *Server) instrument(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rid := requestIDFor(r)
		ent := s.track(rid, r)
		ctx := withEntry(withRequestID(r.Context(), rid), ent)
		r = r.WithContext(ctx)
		w.Header().Set(RequestIDHeader, rid)
		sw := &statusWriter{ResponseWriter: w}
		begin := time.Now()
		defer func() {
			elapsed := time.Since(begin)
			s.untrack(ent)
			s.roll.request.Observe(elapsed.Seconds())
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			design, lib := ent.designLibrary()
			s.logRequest(rid, r.Method, r.URL.Path, status, sw.bytes, elapsed, design, lib)
		}()
		h(sw, r)
	}
}

// logRequest emits the access-log line. It is the steady-state logging
// fast path: with the line buffer pooled, it must not allocate (pinned
// by BenchmarkAccessLogLine / TestAccessLogZeroAllocs).
func (s *Server) logRequest(rid, method, path string, status int, bytes int64, elapsed time.Duration, design, library string) {
	var line *obs.LogLine
	switch {
	case status >= 500:
		line = s.logger.Error("request")
	case status >= 400:
		line = s.logger.Warn("request")
	default:
		line = s.logger.Info("request")
	}
	line.Str("request_id", rid).
		Str("method", method).
		Str("path", path).
		Int("status", int64(status)).
		Int("bytes_out", bytes).
		Float("elapsed_ms", float64(elapsed)/float64(time.Millisecond))
	if design != "" {
		line.Str("design", design)
	}
	if library != "" {
		line.Str("library", library)
	}
	line.Send()
}

// acquire admits a request into the mapping section, waiting for a free
// slot up to the queue bound. It returns a release function, or an error
// when the queue is full (errBusy) or the caller's context ended first.
var errBusy = errors.New("server at capacity")

func (s *Server) acquire(ctx context.Context) (func(), error) {
	if q := s.queued.Add(1); q > int64(s.cfg.MaxConcurrent+s.cfg.MaxQueue) {
		s.queued.Add(-1)
		return nil, errBusy
	}
	defer s.queued.Add(-1)
	begin := time.Now()
	select {
	case s.sem <- struct{}{}:
		s.roll.wait.Observe(time.Since(begin).Seconds())
		s.inflight.Add(1)
		return func() {
			s.inflight.Add(-1)
			<-s.sem
		}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// MapRequest is one design to map. In a raw (non-JSON) POST to /map the
// body is the design text and these fields come from query parameters.
type MapRequest struct {
	// Name labels the design in the response; defaults to the format's
	// model name fallback.
	Name string `json:"name,omitempty"`
	// Format of Design: "blif" (default) or "eqn".
	Format string `json:"format,omitempty"`
	// Design is the design source text.
	Design string `json:"design"`
	// Library is a preloaded library name; default is the server's first
	// configured library.
	Library string `json:"library,omitempty"`
	// Mode is "async" (default) or "sync".
	Mode string `json:"mode,omitempty"`
	// Objective is "area" (default) or "delay".
	Objective string `json:"objective,omitempty"`
	MaxDepth  int    `json:"max_depth,omitempty"`
	MaxLeaves int    `json:"max_leaves,omitempty"`
	MaxBurst  int    `json:"max_burst,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline,
	// capped at the server's MaxTimeout.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Output selects the rendered payloads: "netlist" (default),
	// "verilog", "both" or "none" (statistics only).
	Output string `json:"output,omitempty"`
}

// MapResponse is the result of mapping one design.
type MapResponse struct {
	// RequestID is the correlation ID assigned at admission (also in the
	// X-Request-ID response header, the access log and trace spans).
	RequestID string     `json:"request_id,omitempty"`
	Name      string     `json:"name"`
	Library   string     `json:"library"`
	Mode      string     `json:"mode"`
	Gates     int        `json:"gates"`
	Area      float64    `json:"area"`
	Delay     float64    `json:"delay"`
	Netlist   string     `json:"netlist,omitempty"`
	Verilog   string     `json:"verilog,omitempty"`
	ElapsedMS float64    `json:"elapsed_ms"`
	Stats     core.Stats `json:"stats"`
}

// BatchRequest maps several designs in one call. Defaults apply to every
// design unless the design overrides the field itself.
type BatchRequest struct {
	Defaults MapRequest   `json:"defaults"`
	Designs  []MapRequest `json:"designs"`
}

// BatchResult is one design's outcome inside a batch: a result or an
// error, never both. Failures are isolated per design.
type BatchResult struct {
	*MapResponse
	Error string `json:"error,omitempty"`
}

// BatchResponse preserves request order.
type BatchResponse struct {
	Results   []BatchResult `json:"results"`
	Succeeded int           `json:"succeeded"`
	Failed    int           `json:"failed"`
}

type errorBody struct {
	Error string `json:"error"`
	// RequestID echoes the request's correlation ID so a client holding
	// only the error body can still find the matching access-log line
	// and trace spans.
	RequestID string `json:"request_id,omitempty"`
}

func writeError(w http.ResponseWriter, status int, rid string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error(), RequestID: rid})
}

// writeBusy rejects with 503 and a Retry-After hint computed from live
// load, not a constant: the time for the current backlog to drain at the
// observed service rate. A fixed "1" taught every rejected client to
// stampede back while the queue was still minutes deep.
func (s *Server) writeBusy(w http.ResponseWriter, rid string, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	writeError(w, http.StatusServiceUnavailable, rid, err)
}

// retryAfterSeconds estimates backlog drain time: (queued + running)
// requests at the rolling p50 service time across MaxConcurrent lanes,
// rounded up and clamped to [1, MaxTimeout] seconds. A cold window (no
// p50 yet) degrades to the old constant 1.
func (s *Server) retryAfterSeconds() int {
	p50 := s.roll.request.Snapshot().Quantile(0.50)
	depth := float64(s.queued.Load() + s.inflight.Load())
	secs := int(math.Ceil(depth * p50 / float64(s.cfg.MaxConcurrent)))
	if secs < 1 {
		secs = 1
	}
	if cap := int(s.cfg.MaxTimeout / time.Second); cap >= 1 && secs > cap {
		secs = cap
	}
	return secs
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// errBadInput marks request errors the client can fix: malformed design
// text, unknown enum values, unknown libraries. statusFor maps them to
// 400 rather than 422 — the design was never understood at all.
var errBadInput = errors.New("bad request")

func badInput(err error) error {
	return fmt.Errorf("%w: %w", errBadInput, err)
}

// statusFor maps a mapping error to an HTTP status: deadline → 504,
// client-side cancellation → 499 (nginx convention; the client is usually
// gone), malformed input → 400, a recovered mapper panic → 500, anything
// else → 422 (the design was understood but unmappable).
func (s *Server) statusFor(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Inc()
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		s.canceled.Inc()
		return 499
	case errors.Is(err, errBadInput), errors.Is(err, synth.ErrBadSpec):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrInternal):
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	rid := RequestIDFromContext(r.Context())
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, rid, errors.New("POST only"))
		return
	}
	s.requests.Inc()
	req, err := s.decodeMapRequest(r)
	if err != nil {
		s.errorsC.Inc()
		writeError(w, http.StatusBadRequest, rid, err)
		return
	}
	release, err := s.acquire(r.Context())
	if err != nil {
		s.errorsC.Inc()
		if errors.Is(err, errBusy) {
			s.rejected.Inc()
			s.writeBusy(w, rid, err)
		} else {
			writeError(w, 499, rid, err)
		}
		return
	}
	defer release()
	resp, err := s.mapOne(r.Context(), req)
	if err != nil {
		s.errorsC.Inc()
		writeError(w, s.statusFor(err), rid, err)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	rid := RequestIDFromContext(r.Context())
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, rid, errors.New("POST only"))
		return
	}
	s.requests.Inc()
	var breq BatchRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&breq); err != nil {
		s.errorsC.Inc()
		writeError(w, http.StatusBadRequest, rid, fmt.Errorf("bad batch request: %w", err))
		return
	}
	if len(breq.Designs) == 0 {
		s.errorsC.Inc()
		writeError(w, http.StatusBadRequest, rid, errors.New("batch has no designs"))
		return
	}
	// One admission slot covers the whole batch: designs run serially,
	// each under its own deadline, so a batch cannot starve single
	// requests of more than one worker slot. In fleet mode the slot covers
	// coordination and local fallbacks; the workers apply their own
	// admission.
	release, err := s.acquire(r.Context())
	if err != nil {
		s.errorsC.Inc()
		if errors.Is(err, errBusy) {
			s.rejected.Inc()
			s.writeBusy(w, rid, err)
		} else {
			writeError(w, 499, rid, err)
		}
		return
	}
	defer release()
	merged := make([]MapRequest, len(breq.Designs))
	for i, dreq := range breq.Designs {
		merged[i] = mergeRequest(breq.Defaults, dreq)
	}
	outcomes := s.batchOutcomes(r.Context(), rid, merged)
	if r.URL.Query().Get("stream") == "1" {
		s.streamBatch(w, outcomes, len(merged))
	} else {
		s.bufferBatch(w, outcomes, len(merged))
	}
}

// batchOutcome is one design's terminal result inside a batch, tagged
// with its position in the request.
type batchOutcome struct {
	index int
	resp  *MapResponse
	err   error
}

// batchOutcomes runs a batch and delivers exactly one outcome per design
// on the returned channel, in completion order, then closes it. Local
// mode maps serially (completion order == request order); fleet mode
// dispatches across the workers and finishes in whatever order they
// answer.
func (s *Server) batchOutcomes(ctx context.Context, rid string, designs []MapRequest) <-chan batchOutcome {
	if s.fleet != nil {
		return s.fleet.batchOutcomes(ctx, rid, designs)
	}
	out := make(chan batchOutcome, len(designs))
	go func() {
		defer close(out)
		for i, req := range designs {
			one, err := s.mapOne(ctx, req)
			if err != nil {
				// Per-design isolation: record and continue — unless the
				// whole request is gone, in which case finish fast.
				out <- batchOutcome{index: i, err: err}
				s.statusFor(err) // count timeout/cancel metrics
				if ctx.Err() != nil {
					for j := i + 1; j < len(designs); j++ {
						out <- batchOutcome{index: j, err: context.Canceled}
					}
					return
				}
				continue
			}
			out <- batchOutcome{index: i, resp: one}
		}
	}()
	return out
}

// bufferBatch collects every outcome and answers the classic in-order
// BatchResponse.
func (s *Server) bufferBatch(w http.ResponseWriter, outcomes <-chan batchOutcome, n int) {
	resp := BatchResponse{Results: make([]BatchResult, n)}
	for o := range outcomes {
		if o.err != nil {
			resp.Results[o.index] = BatchResult{Error: o.err.Error()}
			resp.Failed++
			continue
		}
		resp.Results[o.index] = BatchResult{MapResponse: o.resp}
		resp.Succeeded++
	}
	writeJSON(w, resp)
}

// streamItem is one NDJSON line of a streamed batch: a design's result
// (or error) stamped with its index in the request, emitted in
// completion order. The client reassembles by index.
type streamItem struct {
	Index  int          `json:"index"`
	Result *MapResponse `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// streamTrailer ends a streamed batch: always the last line, so a client
// seeing no trailer knows the stream was truncated.
type streamTrailer struct {
	Done      bool `json:"done"`
	Succeeded int  `json:"succeeded"`
	Failed    int  `json:"failed"`
}

// streamBatch writes outcomes as NDJSON as they complete (one line per
// design, then the trailer), flushing per line so a slow tail design
// does not hold earlier results hostage.
func (s *Server) streamBatch(w http.ResponseWriter, outcomes <-chan batchOutcome, n int) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var trailer streamTrailer
	trailer.Done = true
	for o := range outcomes {
		item := streamItem{Index: o.index, Result: o.resp}
		if o.err != nil {
			item.Error = o.err.Error()
			trailer.Failed++
		} else {
			trailer.Succeeded++
		}
		_ = enc.Encode(item)
		if flusher != nil {
			flusher.Flush()
		}
	}
	_ = enc.Encode(trailer)
	if flusher != nil {
		flusher.Flush()
	}
}

// HealthzResponse is the /healthz readiness payload. Status is always
// "ok" with HTTP 200 while the process serves (the bare liveness
// contract); the rest is readiness detail for load balancers and humans:
// queue pressure against capacity, loaded libraries, store state.
type HealthzResponse struct {
	Status        string   `json:"status"`
	Libraries     []string `json:"libraries"`
	LibraryCount  int      `json:"library_count"`
	Inflight      int64    `json:"inflight"`
	Queued        int64    `json:"queued"`
	MaxConcurrent int      `json:"max_concurrent"`
	QueueCapacity int      `json:"queue_capacity"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	StoreEnabled  bool     `json:"store_enabled"`
	StoreEntries  int      `json:"store_entries,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthzResponse{
		Status:        "ok",
		Libraries:     s.order,
		LibraryCount:  len(s.order),
		Inflight:      s.inflight.Load(),
		Queued:        s.queued.Load(),
		MaxConcurrent: s.cfg.MaxConcurrent,
		QueueCapacity: s.cfg.MaxConcurrent + s.cfg.MaxQueue,
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if s.cfg.Store != nil {
		resp.StoreEnabled = true
		resp.StoreEntries = s.cfg.Store.Stats().Entries
	}
	writeJSON(w, resp)
}

// wantsPrometheus reports whether the client asked for Prometheus text
// exposition: an explicit format=prom[etheus] query parameter, or an
// Accept header preferring text/plain (what Prometheus scrapers send)
// with no explicit format override.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus":
		return true
	case "":
		accept := r.Header.Get("Accept")
		return strings.Contains(accept, "text/plain") ||
			strings.Contains(accept, "openmetrics")
	default:
		return false
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.Gauge(MetricInflight).Set(float64(s.inflight.Load()))
	s.reg.Gauge(MetricQueued).Set(float64(s.queued.Load()))
	s.cfg.HazardCache.ExportMetrics(s.reg)
	s.cfg.Store.ExportMetrics(s.reg)
	snap := s.reg.Snapshot()
	switch {
	case wantsPrometheus(r):
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = snap.WritePrometheus(w)
	case r.URL.Query().Get("format") == "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, snap.Format(""))
	default:
		writeJSON(w, snap)
	}
}

// decodeMapRequest reads a /map body: JSON when the Content-Type says so,
// otherwise the raw design text with options in query parameters.
func (s *Server) decodeMapRequest(r *http.Request) (MapRequest, error) {
	var req MapRequest
	body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") {
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			return req, fmt.Errorf("bad request JSON: %w", err)
		}
		return req, nil
	}
	raw, err := io.ReadAll(body)
	if err != nil {
		return req, fmt.Errorf("read body: %w", err)
	}
	q := r.URL.Query()
	req = MapRequest{
		Name:      q.Get("name"),
		Format:    q.Get("format"),
		Design:    string(raw),
		Library:   q.Get("library"),
		Mode:      q.Get("mode"),
		Objective: q.Get("objective"),
		Output:    q.Get("output"),
	}
	for _, f := range []struct {
		key string
		dst *int
	}{
		{"max_depth", &req.MaxDepth}, {"max_leaves", &req.MaxLeaves},
		{"max_burst", &req.MaxBurst}, {"timeout_ms", &req.TimeoutMS},
	} {
		if v := q.Get(f.key); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return req, fmt.Errorf("bad %s: %w", f.key, err)
			}
			*f.dst = n
		}
	}
	return req, nil
}

// mergeRequest overlays a batch design over the batch defaults: any field
// the design leaves at its zero value inherits the default.
func mergeRequest(def, d MapRequest) MapRequest {
	if d.Format == "" {
		d.Format = def.Format
	}
	if d.Library == "" {
		d.Library = def.Library
	}
	if d.Mode == "" {
		d.Mode = def.Mode
	}
	if d.Objective == "" {
		d.Objective = def.Objective
	}
	if d.Output == "" {
		d.Output = def.Output
	}
	if d.MaxDepth == 0 {
		d.MaxDepth = def.MaxDepth
	}
	if d.MaxLeaves == 0 {
		d.MaxLeaves = def.MaxLeaves
	}
	if d.MaxBurst == 0 {
		d.MaxBurst = def.MaxBurst
	}
	if d.TimeoutMS == 0 {
		d.TimeoutMS = def.TimeoutMS
	}
	return d
}

// timeoutFor resolves a request's mapping deadline.
func (s *Server) timeoutFor(req MapRequest) time.Duration {
	d := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		d = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// resolvedRequest is a MapRequest after parsing and validation: the
// design network, library and core options a mapping run needs.
type resolvedRequest struct {
	libName string
	lib     *library.Library
	net     *network.Network
	opts    core.Options
	output  string
	timeout time.Duration
}

// resolveRequest parses and validates one design request. Every error is
// errBadInput — the request never reached the mapper.
func (s *Server) resolveRequest(ctx context.Context, req MapRequest) (*resolvedRequest, error) {
	if strings.TrimSpace(req.Design) == "" {
		return nil, badInput(errors.New("empty design"))
	}
	libName := req.Library
	if libName == "" {
		libName = s.order[0]
	}
	lib, ok := s.libs[libName]
	if !ok {
		return nil, badInput(fmt.Errorf("unknown library %q (loaded: %s)", libName, strings.Join(s.order, ", ")))
	}
	name := req.Name
	if name == "" {
		name = "design"
	}
	var (
		net *network.Network
		err error
	)
	switch req.Format {
	case "", "blif":
		net, err = blif.Parse(strings.NewReader(req.Design), name)
	case "eqn":
		net, err = eqn.ParseString(req.Design, name)
	default:
		return nil, badInput(fmt.Errorf("unknown design format %q (want blif or eqn)", req.Format))
	}
	if err != nil {
		return nil, badInput(fmt.Errorf("parse %s design: %w", orDefault(req.Format, "blif"), err))
	}
	entryFrom(ctx).setDesign(net.Name, libName)
	opts := core.Options{
		MaxDepth:    req.MaxDepth,
		MaxLeaves:   req.MaxLeaves,
		MaxBurst:    req.MaxBurst,
		Workers:     s.cfg.MapWorkers,
		HazardCache: s.cfg.HazardCache,
		Store:       s.cfg.Store,
		Metrics:     s.reg,
		Tracer:      s.cfg.Tracer,
		RequestID:   RequestIDFromContext(ctx),
	}
	switch req.Mode {
	case "", "async":
		opts.Mode = core.Async
	case "sync":
		opts.Mode = core.Sync
	default:
		return nil, badInput(fmt.Errorf("unknown mode %q (want async or sync)", req.Mode))
	}
	switch req.Objective {
	case "", "area":
		opts.Objective = core.MinArea
	case "delay":
		opts.Objective = core.MinDelay
	default:
		return nil, badInput(fmt.Errorf("unknown objective %q (want area or delay)", req.Objective))
	}
	output := req.Output
	switch output {
	case "", "netlist":
		output = "netlist"
	case "verilog", "both", "none":
	default:
		return nil, badInput(fmt.Errorf("unknown output %q (want netlist, verilog, both or none)", output))
	}
	return &resolvedRequest{
		libName: libName,
		lib:     lib,
		net:     net,
		opts:    opts,
		output:  output,
		timeout: s.timeoutFor(req),
	}, nil
}

// mapOne parses, maps and renders a single design under its deadline.
// The caller must already hold an admission slot.
func (s *Server) mapOne(ctx context.Context, req MapRequest) (*MapResponse, error) {
	rr, err := s.resolveRequest(ctx, req)
	if err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithTimeout(ctx, rr.timeout)
	defer cancel()
	start := time.Now()
	res, err := core.MapContext(runCtx, rr.net, rr.lib, rr.opts)
	elapsed := time.Since(start)
	s.reqSeconds.Observe(elapsed.Seconds())
	if err != nil {
		return nil, err
	}
	s.designs.Inc()
	s.roll.decompose.Observe(res.Stats.DecomposeTime.Seconds())
	s.roll.partition.Observe(res.Stats.PartitionTime.Seconds())
	s.roll.cover.Observe(res.Stats.CoverTime.Seconds())
	s.roll.emit.Observe(res.Stats.EmitTime.Seconds())
	resp := &MapResponse{
		RequestID: rr.opts.RequestID,
		Name:      rr.net.Name,
		Library:   rr.libName,
		Mode:      rr.opts.Mode.String(),
		Gates:     res.Netlist.GateCount(),
		Area:      res.Area,
		Delay:     res.Delay,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
		Stats:     res.Stats,
	}
	if rr.output == "netlist" || rr.output == "both" {
		resp.Netlist = res.Netlist.String()
	}
	if rr.output == "verilog" || rr.output == "both" {
		v, err := res.Netlist.VerilogString()
		if err != nil {
			return nil, err
		}
		resp.Verilog = v
	}
	return resp, nil
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
