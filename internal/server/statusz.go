package server

// Rolling service status: per-stage latency windows, the in-flight
// request table, and the /statusz endpoint that reports both alongside
// admission pressure and cache hit rates. Everything here is
// monitoring-grade — it observes the mapping path without ever gating it.

import (
	"context"
	"net/http"
	"sync"
	"time"

	"gfmap/internal/fleet"
	"gfmap/internal/obs"
)

// Rolling metric names. The windows are registered into the server's
// registry, so they also appear on /metrics (as Prometheus summaries and
// in the JSON snapshot), not only on /statusz.
const (
	RollingRequestSeconds    = "rolling_request_seconds"
	RollingQueueWaitSeconds  = "rolling_queue_wait_seconds"
	RollingDecomposeSeconds  = "rolling_decompose_seconds"
	RollingPartitionSeconds  = "rolling_partition_seconds"
	RollingCoverSeconds      = "rolling_cover_seconds"
	RollingEmitSeconds       = "rolling_emit_seconds"
	RollingSynthesizeSeconds = "rolling_synthesize_seconds"
	RollingSimulateSeconds   = "rolling_simulate_seconds"
)

// rollingSet groups the per-stage rolling windows. request covers the
// whole handler (queue wait included); wait isolates time spent blocked
// on the admission semaphore; decompose..emit are the mapper's phase wall
// times from core.Stats; synthesize and simulate are the /synth
// pipeline's bracketing phases (burst-mode synthesis before the mapper,
// evidence simulation after it).
type rollingSet struct {
	request    *obs.RollingHistogram
	wait       *obs.RollingHistogram
	decompose  *obs.RollingHistogram
	partition  *obs.RollingHistogram
	cover      *obs.RollingHistogram
	emit       *obs.RollingHistogram
	synthesize *obs.RollingHistogram
	simulate   *obs.RollingHistogram
}

func newRollingSet(reg *obs.Registry, window time.Duration) rollingSet {
	// 100µs .. ~14min in ×2 steps: wide enough for both sub-millisecond
	// emit phases and requests that ride the 5-minute timeout cap.
	bounds := obs.ExpBuckets(1e-4, 2, 23)
	mk := func(name string) *obs.RollingHistogram {
		return reg.Rolling(name, bounds, window, 6)
	}
	return rollingSet{
		request:    mk(RollingRequestSeconds),
		wait:       mk(RollingQueueWaitSeconds),
		decompose:  mk(RollingDecomposeSeconds),
		partition:  mk(RollingPartitionSeconds),
		cover:      mk(RollingCoverSeconds),
		emit:       mk(RollingEmitSeconds),
		synthesize: mk(RollingSynthesizeSeconds),
		simulate:   mk(RollingSimulateSeconds),
	}
}

// inflightEntry is one live request in the in-flight table. The identity
// fields are fixed at admission; design/library are filled in by mapOne
// once the request body has been parsed.
type inflightEntry struct {
	id     string
	method string
	path   string
	start  time.Time

	mu      sync.Mutex
	design  string
	library string
}

func (e *inflightEntry) setDesign(design, library string) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.design, e.library = design, library
	e.mu.Unlock()
}

func (e *inflightEntry) designLibrary() (string, string) {
	if e == nil {
		return "", ""
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.design, e.library
}

type entryKey struct{}

func withEntry(ctx context.Context, e *inflightEntry) context.Context {
	return context.WithValue(ctx, entryKey{}, e)
}

func entryFrom(ctx context.Context) *inflightEntry {
	e, _ := ctx.Value(entryKey{}).(*inflightEntry)
	return e
}

// track registers a request in the in-flight table; untrack removes it.
// The table is keyed by entry (not by request ID) so a client reusing an
// X-Request-ID across concurrent requests cannot evict another's row.
func (s *Server) track(id string, r *http.Request) *inflightEntry {
	e := &inflightEntry{id: id, method: r.Method, path: r.URL.Path, start: time.Now()}
	s.infMu.Lock()
	s.infTable[e] = struct{}{}
	s.infMu.Unlock()
	return e
}

func (s *Server) untrack(e *inflightEntry) {
	s.infMu.Lock()
	delete(s.infTable, e)
	s.infMu.Unlock()
}

// StageStats is one pipeline stage's rolling latency digest over the
// status window, in milliseconds.
type StageStats struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// InflightInfo is one row of the in-flight request table.
type InflightInfo struct {
	RequestID string  `json:"request_id"`
	Method    string  `json:"method"`
	Path      string  `json:"path"`
	Design    string  `json:"design,omitempty"`
	Library   string  `json:"library,omitempty"`
	AgeMS     float64 `json:"age_ms"`
}

// AdmissionStatus reports the admission limiter's current pressure
// against its configured bounds.
type AdmissionStatus struct {
	Inflight      int64 `json:"inflight"`
	Queued        int64 `json:"queued"`
	MaxConcurrent int   `json:"max_concurrent"`
	MaxQueue      int   `json:"max_queue"`
}

// CacheStatus summarises the shared hazard cache.
type CacheStatus struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	Entries int     `json:"entries"`
	HitRate float64 `json:"hit_rate"`
}

// StoreStatus summarises the persistent mapping store; Enabled is false
// (and the counters zero) when the server runs without one.
type StoreStatus struct {
	Enabled  bool    `json:"enabled"`
	Entries  int     `json:"entries"`
	Hits     uint64  `json:"hits"`
	DiskHits uint64  `json:"disk_hits"`
	Misses   uint64  `json:"misses"`
	HitRate  float64 `json:"hit_rate"`
}

// MemoStatus is the size of one served library's match memo, the
// bounded store of Boolean-match results the mapper replays across
// requests (library.MatchIndex). Full reports that the memo reached its
// byte budget: later new targets are still matched, but no longer stored.
type MemoStatus struct {
	Entries int  `json:"entries"`
	Bytes   int  `json:"bytes"`
	Full    bool `json:"full"`
}

// StatuszResponse is the /statusz payload. Fleet is present only on a
// coordinator: per-worker health, inflight, win/failure counters and
// rolling latency quantiles, plus fleet-wide hedge/retry/fallback totals.
type StatuszResponse struct {
	UptimeSeconds float64               `json:"uptime_seconds"`
	WindowSeconds float64               `json:"window_seconds"`
	Stages        map[string]StageStats `json:"stages"`
	Admission     AdmissionStatus       `json:"admission"`
	HazardCache   CacheStatus           `json:"hazard_cache"`
	MatchMemo     map[string]MemoStatus `json:"match_memo"`
	Store         StoreStatus           `json:"store"`
	Fleet         *fleet.Status         `json:"fleet,omitempty"`
	Inflight      []InflightInfo        `json:"inflight_requests"`
}

func hitRate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func stageStats(h *obs.RollingHistogram) StageStats {
	snap := h.Snapshot()
	const ms = 1e3
	return StageStats{
		Count:  snap.Count,
		MeanMS: snap.Mean() * ms,
		P50MS:  snap.Quantile(0.50) * ms,
		P90MS:  snap.Quantile(0.90) * ms,
		P99MS:  snap.Quantile(0.99) * ms,
	}
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	resp := StatuszResponse{
		UptimeSeconds: now.Sub(s.start).Seconds(),
		WindowSeconds: s.roll.request.Window().Seconds(),
		Stages: map[string]StageStats{
			"request":    stageStats(s.roll.request),
			"queue_wait": stageStats(s.roll.wait),
			"decompose":  stageStats(s.roll.decompose),
			"partition":  stageStats(s.roll.partition),
			"cover":      stageStats(s.roll.cover),
			"emit":       stageStats(s.roll.emit),
			"synthesize": stageStats(s.roll.synthesize),
			"simulate":   stageStats(s.roll.simulate),
		},
		Admission: AdmissionStatus{
			Inflight:      s.inflight.Load(),
			Queued:        s.queued.Load(),
			MaxConcurrent: s.cfg.MaxConcurrent,
			MaxQueue:      s.cfg.MaxQueue,
		},
	}
	hz := s.cfg.HazardCache.Stats()
	resp.HazardCache = CacheStatus{
		Hits:    hz.Hits,
		Misses:  hz.Misses,
		Entries: hz.Entries,
		HitRate: hitRate(hz.Hits, hz.Misses),
	}
	resp.MatchMemo = make(map[string]MemoStatus, len(s.order))
	for _, name := range s.order {
		m := s.libs[name].MemoStats()
		resp.MatchMemo[name] = MemoStatus{Entries: m.Entries, Bytes: m.Bytes, Full: m.Full}
	}
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		resp.Store = StoreStatus{
			Enabled:  true,
			Entries:  st.Entries,
			Hits:     st.Hits,
			DiskHits: st.DiskHits,
			Misses:   st.Misses,
			HitRate:  hitRate(st.Hits+st.DiskHits, st.Misses),
		}
	}
	if s.fleet != nil {
		fst := s.fleet.coord.Status()
		resp.Fleet = &fst
	}
	s.infMu.Lock()
	resp.Inflight = make([]InflightInfo, 0, len(s.infTable))
	for e := range s.infTable {
		design, lib := e.designLibrary()
		resp.Inflight = append(resp.Inflight, InflightInfo{
			RequestID: e.id,
			Method:    e.method,
			Path:      e.path,
			Design:    design,
			Library:   lib,
			AgeMS:     now.Sub(e.start).Seconds() * 1e3,
		})
	}
	s.infMu.Unlock()
	writeJSON(w, resp)
}
