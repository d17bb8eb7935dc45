// Package core implements the paper's primary contribution: hazard-aware
// technology mapping for generalized fundamental-mode asynchronous designs.
//
// The pipeline follows §3 of the paper:
//
//	procedure async_tmap(network, library) {
//	    augment-library-with-hazard-info(library);   // library.Annotate
//	    decomposed = async_tech_decomp(network);     // network.AsyncTechDecomp
//	    cones = partition(decomposed);               // network.Partition
//	    foreach output in cones { find-best-async-cover(output, library); }
//	}
//
// Covering is dynamic programming over each cone's gate tree with
// dual-phase costs; matching is Boolean (truth-table) matching. In
// asynchronous mode, a hazardous library cell is accepted as a match only
// if its hazard set, translated through the pin binding, is a subset of
// the hazard set of the subnetwork being replaced (Theorem 3.2 /
// asyncmatchingroutine); hazard-free cells pass unconditionally
// (Corollary 3.1).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"gfmap/internal/hazcache"
	"gfmap/internal/library"
	"gfmap/internal/mapstore"
	"gfmap/internal/network"
	"gfmap/internal/obs"
)

// Mode selects between the synchronous baseline mapper and the
// hazard-aware asynchronous mapper.
type Mode int

// Mapping modes.
const (
	// Sync is the classical CERES-style flow: any functional match is
	// acceptable. It may introduce logic hazards (Figure 3).
	Sync Mode = iota
	// Async is the paper's flow: hazardous cells pass the subset filter.
	Async
)

func (m Mode) String() string {
	if m == Async {
		return "async"
	}
	return "sync"
}

// Objective selects what the covering DP minimises.
type Objective int

// Covering objectives.
const (
	// MinArea minimises total cell area (the paper's objective; delay is
	// reported but not optimised).
	MinArea Objective = iota
	// MinDelay minimises the worst-case arrival time, breaking ties by
	// area.
	MinDelay
)

func (o Objective) String() string {
	if o == MinDelay {
		return "delay"
	}
	return "area"
}

// Options configures a mapping run.
type Options struct {
	// Ctx, when non-nil, bounds the run: the pipeline polls for
	// cancellation at cone, cut-enumeration and binding-search boundaries
	// and Map returns ctx.Err() promptly after the context is cancelled
	// or its deadline passes, leaking no goroutines. Cancellation never
	// changes the result of a run that completes — a mapping that
	// finishes under a context is bit-identical to one run without.
	// Nil means the run is unbounded (and the polling is skipped
	// entirely, so a nil context costs nothing).
	Ctx context.Context
	// Mode selects the synchronous baseline or the asynchronous mapper.
	Mode Mode
	// Objective selects area-driven (default) or delay-driven covering.
	Objective Objective
	// MaxDepth bounds the gate depth of match clusters; the paper's tables
	// all use depth 5. Zero means the default of 5.
	MaxDepth int
	// MaxLeaves bounds the number of distinct input signals of a match
	// cluster (the widest cell pin count worth matching). Zero means the
	// default of 6.
	MaxLeaves int
	// MaxBindings bounds how many alternative pin bindings are examined
	// for a hazardous cell before giving up on it. Zero means 32.
	MaxBindings int
	// Workers sets the number of goroutines used to run the per-cone
	// covering DP; emission stays serial and the result is bit-identical
	// to a single-worker run, whatever the worker count. Zero (the
	// default) means one worker per CPU (runtime.NumCPU()); use 1 to
	// force a serial run.
	Workers int
	// MaxBurst, when positive, enables hazard don't-cares (the paper's
	// future-work §6): in generalized fundamental-mode operation the
	// environment only issues input bursts up to a known width, so hazards
	// on wider multi-input changes can never be exercised. The matching
	// filter then ignores hazardous transitions of the library cell that
	// flip more than MaxBurst of the subnetwork's inputs. Zero means no
	// don't-cares: every transition counts.
	MaxBurst int
	// HazardCache selects the cross-cone hazard-analysis cache consulted
	// by the asynchronous matching filter. Nil means the process-wide
	// shared cache (hazcache.Shared()); supply a private cache to isolate
	// a run. The cache is semantically transparent — mapped netlists are
	// bit-identical with the cache on, off, warm or cold.
	HazardCache *hazcache.Cache
	// DisableHazardCache turns the cross-cone cache off entirely; hazard
	// analyses are then memoised per cone only. Intended for A/B
	// measurement, not for production use.
	DisableHazardCache bool

	// Store, when non-nil, memoizes per-cone covering solutions in a
	// content-addressed mapstore keyed by canonical cone signature ×
	// library fingerprint × option hash, so structurally repeated cones —
	// across designs, across restarts and across processes sharing the
	// store file — skip the covering DP entirely. (Within one run, a
	// repeated cone shares the cover of its first occurrence, store or
	// not.)
	// The store is semantically transparent: a warm-store run's netlist
	// and Stats.Deterministic() view are byte-identical to a cold run's
	// (solutions carry the DP's deterministic work counters and replay
	// them on a hit). A corrupt or stale entry decode-fails into a miss
	// and is repaired in place; it can never change the output.
	Store *mapstore.Store

	// Tracer receives pipeline spans and events: phase spans on the
	// pipeline track, per-cone covering spans on one track per DP worker.
	// Nil disables tracing; the disabled hot path is allocation-free and
	// never reads the clock. Tracing never changes the mapping result.
	Tracer *obs.Tracer
	// Metrics, when non-nil, is populated with the mapper's counters,
	// gauges and latency histograms (see the Metric* constants). New
	// measurements belong here rather than as new Stats fields: Stats is
	// the frozen deterministic summary, the registry is the growth path.
	Metrics *obs.Registry
	// ProfileLabels attaches runtime/pprof labels ("worker", "cone") to
	// the per-cone covering work, so CPU profiles taken during a run can
	// be sliced by worker goroutine and by cone.
	ProfileLabels bool
	// RequestID, when non-empty, correlates this run with a service
	// request: every pipeline phase span carries it as a request_id
	// attribute and (with ProfileLabels) the per-cone work is labelled
	// "request" in CPU profiles, so one request can be followed from the
	// server's access log into traces and profiles. Semantically
	// transparent — it never changes the mapping and is excluded from the
	// store's option hash.
	RequestID string
}

func (o Options) withDefaults() Options {
	if o.MaxDepth == 0 {
		o.MaxDepth = 5
	}
	if o.MaxLeaves == 0 {
		o.MaxLeaves = 6
	}
	if o.MaxBindings == 0 {
		o.MaxBindings = 32
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.DisableHazardCache {
		o.HazardCache = nil
	} else if o.HazardCache == nil {
		o.HazardCache = hazcache.Shared()
	}
	return o
}

// Metric names populated into Options.Metrics by Map. Histograms use
// seconds for latencies and raw counts for sizes.
const (
	// MetricHazardSeconds is the latency histogram of individual hazard
	// analyses performed by the matching filter (fresh analyses and
	// shared-cache lookups; per-cone memo hits are not timed).
	MetricHazardSeconds = "map_hazard_analyze_seconds"
	// MetricConeSeconds is the per-cone covering-DP latency histogram.
	MetricConeSeconds = "map_cone_seconds"
	// MetricCutsPerNode is the histogram of cut counts surviving the
	// depth/leaf bounds at each tree node.
	MetricCutsPerNode = "map_cuts_per_node"
	// MetricClusterLeaves is the histogram of distinct-input counts of
	// enumerated match clusters.
	MetricClusterLeaves = "map_cluster_leaves"
)

// metricSet caches the registry handles consulted on the mapper's hot
// path, so instrumented code never takes the registry lock per event. All
// handles are nil — and therefore free — when no registry is configured.
type metricSet struct {
	hazSeconds    *obs.Histogram
	coneSeconds   *obs.Histogram
	cutsPerNode   *obs.Histogram
	clusterLeaves *obs.Histogram
}

func newMetricSet(r *obs.Registry) metricSet {
	return metricSet{
		hazSeconds:    r.Histogram(MetricHazardSeconds, obs.ExpBuckets(1e-6, 4, 12)),
		coneSeconds:   r.Histogram(MetricConeSeconds, obs.ExpBuckets(1e-5, 4, 12)),
		cutsPerNode:   r.Histogram(MetricCutsPerNode, obs.ExpBuckets(1, 2, 12)),
		clusterLeaves: r.Histogram(MetricClusterLeaves, obs.LinearBuckets(1, 1, 8)),
	}
}

// Stats counts the work done during a mapping run and the wall-clock time
// spent in each phase of the pipeline. Stats is the frozen, deterministic
// run summary; richer distributions (latency histograms, per-shard cache
// state) are published through Options.Metrics instead of growing this
// struct.
type Stats struct {
	Cones              int
	ClustersEnumerated int
	MatchesFound       int
	HazardousMatches   int
	HazardChecks       int
	MatchesRejected    int
	// CutTruncations counts tree nodes whose cut enumeration hit the
	// per-node bound and silently dropped candidate clusters; a nonzero
	// value means pathological cones may have been mapped suboptimally.
	CutTruncations int

	// Boolean-matching accounting. FindInvocations counts the candidate
	// (cell, cluster phase) pairs examined, whether the cell's bindings
	// were searched for or replayed from the library's match memo; IndexProbes
	// counts cluster-signature lookups against the library match index;
	// IndexSkippedCells counts same-pin-count cells the index proved
	// unmatchable without a search; SymmetryPruned counts bindings the
	// symmetry classes collapsed away (orbit size minus the enumerated
	// representative, summed over matches).
	FindInvocations   int
	IndexProbes       int
	IndexSkippedCells int
	SymmetryPruned    int

	// Hazard-analysis accounting for the matching filter: analyses served
	// by the per-cone memo, by the shared cross-cone cache, and performed
	// fresh. LocalHits is deterministic; the split between shared hits and
	// misses depends on cache warmth and worker scheduling (their sum does
	// not). Shared hits and misses count only lookups actually made: a cone
	// replayed from the store, or sharing the cover of an equal cone, adds
	// its memo hits but no lookups.
	HazCacheLocalHits int
	HazCacheHits      int
	HazCacheMisses    int
	// HazCacheEvictions is the number of shared-cache entries evicted
	// while this run was in flight (approximate under concurrent runs).
	HazCacheEvictions int

	// Mapstore accounting: cones whose covering solution was served by
	// Options.Store (hits) versus solved by the DP (misses). A cone that
	// shares the cover of an equal cone earlier in the run counts as a hit
	// when a store is attached. Both depend on store warmth, not on the
	// input alone, so they are excluded from the Deterministic view.
	StoreHits   int
	StoreMisses int

	// Per-phase wall times of the pipeline: technology decomposition,
	// cone partitioning, the covering DP (including matching and hazard
	// analysis), and netlist emission.
	DecomposeTime time.Duration
	PartitionTime time.Duration
	CoverTime     time.Duration
	EmitTime      time.Duration
}

// merge folds a worker's counters into the receiver. Phase times are
// measured only by the coordinating mapper and are not merged.
func (s *Stats) merge(o Stats) {
	s.ClustersEnumerated += o.ClustersEnumerated
	s.MatchesFound += o.MatchesFound
	s.HazardousMatches += o.HazardousMatches
	s.HazardChecks += o.HazardChecks
	s.MatchesRejected += o.MatchesRejected
	s.CutTruncations += o.CutTruncations
	s.FindInvocations += o.FindInvocations
	s.IndexProbes += o.IndexProbes
	s.IndexSkippedCells += o.IndexSkippedCells
	s.SymmetryPruned += o.SymmetryPruned
	s.HazCacheLocalHits += o.HazCacheLocalHits
	s.HazCacheHits += o.HazCacheHits
	s.HazCacheMisses += o.HazCacheMisses
	s.StoreHits += o.StoreHits
	s.StoreMisses += o.StoreMisses
}

// Deterministic returns the counters that are invariant across worker
// counts and cache state, zeroing the scheduling-dependent cache split and
// the wall-clock times. Two runs of the same mapping must agree on this
// view exactly.
func (s Stats) Deterministic() Stats {
	s.HazCacheHits = 0
	s.HazCacheMisses = 0
	s.HazCacheEvictions = 0
	s.StoreHits = 0
	s.StoreMisses = 0
	s.DecomposeTime = 0
	s.PartitionTime = 0
	s.CoverTime = 0
	s.EmitTime = 0
	return s
}

// HazardAnalyses returns the total number of hazard-set computations the
// run asked for, however they were served.
func (s Stats) HazardAnalyses() int {
	return s.HazCacheLocalHits + s.HazCacheHits + s.HazCacheMisses
}

// HazCacheHitRate returns the fraction of hazard-analysis requests served
// by a cache (per-cone memo or shared), in [0, 1]; 0 when none were made.
func (s Stats) HazCacheHitRate() float64 {
	total := s.HazardAnalyses()
	if total == 0 {
		return 0
	}
	return float64(s.HazCacheLocalHits+s.HazCacheHits) / float64(total)
}

// Result is the outcome of a mapping run.
type Result struct {
	Netlist *Netlist
	Area    float64
	Delay   float64
	Stats   Stats
}

// ErrInternal marks a mapper bug surfaced as an error: a panic anywhere
// in the pipeline is recovered at the Map boundary and wrapped with this
// sentinel, so long-lived callers (the CLIs, asyncmapd) degrade to an
// error response instead of process death. Test with errors.Is.
var ErrInternal = errors.New("core: internal error")

// Map runs the technology mapper over a combinational network. When
// Options.Ctx is set, a cancelled or expired context aborts the pipeline
// promptly and Map returns ctx.Err(); see MapContext for the common case.
//
// Map never panics: a defect in the pipeline (or in a hostile input that
// slips past validation) is returned as an error wrapping ErrInternal.
func Map(net *network.Network, lib *library.Library, opts Options) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: panic in mapping pipeline: %v\n%s", ErrInternal, r, debug.Stack())
		}
	}()
	return mapPipeline(net, lib, opts)
}

// optionHash digests the Options fields that can change a mapping result
// or its deterministic work counters; it is the option component of a
// mapstore entry key. Fields that are semantically transparent (Workers,
// hazard-cache selection, tracing, metrics, context, RequestID) are
// deliberately excluded so runs differing only in them share entries.
// opts must already have defaults applied, so explicit defaults and zero
// values hash alike.
func optionHash(o Options) string {
	// The last field is a removed option, kept so older store entries stay warm.
	return fmt.Sprintf("mode=%d;obj=%d;depth=%d;leaves=%d;bindings=%d;burst=%d;noindex=false",
		o.Mode, o.Objective, o.MaxDepth, o.MaxLeaves, o.MaxBindings, o.MaxBurst)
}

func mapPipeline(net *network.Network, lib *library.Library, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, err
	}
	if opts.Mode == Async && !lib.Annotated() {
		// augment-library-with-hazard-info(library)
		if err := lib.Annotate(); err != nil {
			return nil, err
		}
	}
	var evictions0 uint64
	if opts.HazardCache != nil {
		evictions0 = opts.HazardCache.Stats().Evictions
	}
	tr := opts.Tracer
	// stamp correlates a phase span with the service request that owns
	// this run (no-op when RequestID is empty or tracing is off).
	stamp := func(sp *obs.Span) {
		if opts.RequestID != "" {
			sp.SetStr("request_id", opts.RequestID)
		}
	}
	phase := time.Now()
	dsp := tr.StartSpan("decompose")
	stamp(&dsp)
	decomposed, err := network.AsyncTechDecomp(net)
	dsp.End()
	if err != nil {
		return nil, err
	}
	decomposeTime := time.Since(phase)
	phase = time.Now()
	psp := tr.StartSpan("partition")
	stamp(&psp)
	cones, err := network.Partition(decomposed)
	if err != nil {
		psp.End()
		return nil, err
	}
	psp.SetInt("cones", int64(len(cones)))
	psp.End()
	partitionTime := time.Since(phase)
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, err
	}
	nl := NewNetlist(net.Name, net.Inputs, net.Outputs)
	// Serial covering runs draw transient DP memory from a pooled arena
	// scratch (parallel workers acquire their own in prepareCones). The
	// scratch is returned to the pool only on the success path below: an
	// error or cancellation mid-run drops it to the GC instead, so a
	// canceled request can never leak partially-written state — or any
	// request-scoped data — into a scratch the next request would reuse.
	m := &mapper{lib: lib, opts: opts, netlist: nl, tid: 1, met: newMetricSet(opts.Metrics),
		sc: acquireScratch()}
	// Store identity: the library fingerprint is taken *after* annotation
	// (annotation changes matching behaviour, so pre- and post-annotation
	// runs must not share solutions), and store entries are keyed under
	// it, so stale solutions are never even addressed.
	m.store = opts.Store
	if m.store != nil {
		m.libFP = lib.Fingerprint()
		m.optHash = optionHash(opts)
	}
	// Reserve every signal name of the decomposed network up front, so
	// generated names (match signals, inverter outputs) can never collide
	// with a design signal that has not been emitted yet.
	m.reserved = make(map[string]bool, decomposed.NumNodes()+len(decomposed.Inputs))
	for _, name := range decomposed.NodeNames() {
		m.reserved[name] = true
	}
	for _, in := range decomposed.Inputs {
		m.reserved[in] = true
	}
	if err := m.ensureCells(); err != nil {
		return nil, err
	}
	phase = time.Now()
	csp := tr.StartSpan("cover")
	stamp(&csp)
	csp.SetInt("workers", int64(opts.Workers))
	csp.SetInt("cones", int64(len(cones)))
	prepared, distinct, err := m.prepareCones(cones)
	csp.SetInt("distinct", int64(distinct))
	csp.End()
	if err != nil {
		if cerr := ctxErr(opts.Ctx); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	m.stats.CoverTime = time.Since(phase)
	phase = time.Now()
	esp := tr.StartSpan("emit")
	stamp(&esp)
	for i, pc := range prepared {
		if err := ctxErr(opts.Ctx); err != nil {
			esp.End()
			return nil, err
		}
		if err := m.emitCone(pc); err != nil {
			esp.End()
			return nil, fmt.Errorf("core: cone %s: %w", cones[i].Root, err)
		}
	}
	esp.SetInt("gates", int64(nl.GateCount()))
	esp.End()
	m.stats.EmitTime = time.Since(phase)
	m.stats.DecomposeTime = decomposeTime
	m.stats.PartitionTime = partitionTime
	if opts.HazardCache != nil {
		m.stats.HazCacheEvictions = int(opts.HazardCache.Stats().Evictions - evictions0)
	}
	m.stats.Cones = len(cones)
	area := nl.Area()
	delay, err := nl.Delay()
	if err != nil {
		return nil, err
	}
	tr.EventInt(obs.PipelineTrack, "mapped", "gates", int64(nl.GateCount()))
	if reg := opts.Metrics; reg != nil {
		publishStats(reg, m.stats, nl.GateCount(), area, delay)
		opts.HazardCache.ExportMetrics(reg)
		m.store.ExportMetrics(reg)
	}
	releaseScratch(m.sc)
	m.sc = nil
	return &Result{Netlist: nl, Area: area, Delay: delay, Stats: m.stats}, nil
}

// publishStats mirrors the run's deterministic summary into the metrics
// registry, alongside the histograms the mapper filled during the run.
func publishStats(reg *obs.Registry, st Stats, gates int, area, delay float64) {
	reg.Counter("map_cones").Add(uint64(st.Cones))
	reg.Counter("map_clusters_enumerated").Add(uint64(st.ClustersEnumerated))
	reg.Counter("map_matches_found").Add(uint64(st.MatchesFound))
	reg.Counter("map_hazardous_matches").Add(uint64(st.HazardousMatches))
	reg.Counter("map_hazard_checks").Add(uint64(st.HazardChecks))
	reg.Counter("map_matches_rejected").Add(uint64(st.MatchesRejected))
	reg.Counter("map_cut_truncations").Add(uint64(st.CutTruncations))
	reg.Counter("map_match_find_calls").Add(uint64(st.FindInvocations))
	reg.Counter("map_index_probes").Add(uint64(st.IndexProbes))
	reg.Counter("map_index_skipped_cells").Add(uint64(st.IndexSkippedCells))
	reg.Counter("map_symmetry_pruned").Add(uint64(st.SymmetryPruned))
	reg.Counter("map_haz_local_hits").Add(uint64(st.HazCacheLocalHits))
	reg.Counter("map_haz_shared_hits").Add(uint64(st.HazCacheHits))
	reg.Counter("map_haz_misses").Add(uint64(st.HazCacheMisses))
	reg.Counter("map_store_hits").Add(uint64(st.StoreHits))
	reg.Counter("map_store_misses").Add(uint64(st.StoreMisses))
	reg.Gauge("map_gates").Set(float64(gates))
	reg.Gauge("map_area").Set(area)
	reg.Gauge("map_delay").Set(delay)
}

// MapContext runs Map with the given context installed in Options.Ctx.
// It is the entry point long-lived callers (servers, batch drivers) should
// use: the context's cancellation or deadline bounds the whole pipeline.
func MapContext(ctx context.Context, net *network.Network, lib *library.Library, opts Options) (*Result, error) {
	opts.Ctx = ctx
	return Map(net, lib, opts)
}

// ctxErr reports a context's cancellation state; a nil context never
// cancels. Used at the pipeline's coarse phase boundaries.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Tmap is the synchronous mapping procedure of §3.1.
func Tmap(net *network.Network, lib *library.Library, opts Options) (*Result, error) {
	opts.Mode = Sync
	return Map(net, lib, opts)
}

// AsyncTmap is the asynchronous mapping procedure of §3.2.
func AsyncTmap(net *network.Network, lib *library.Library, opts Options) (*Result, error) {
	opts.Mode = Async
	return Map(net, lib, opts)
}

const inf = math.MaxFloat64 / 4

// negName derives the signal name carrying the complement of a signal.
func negName(sig string) string {
	return sig + "_bar"
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		}
		return '_'
	}, s)
}
