package main

// Per-layer accounting for the traced run (--trace 1). Spans come only
// from the tracing the program already has — asyncmap -events and the
// Tracer field of server.Config — and are aggregated here by span name:
// busy time is the sum of span durations, self time subtracts the direct
// child spans nested inside each span on the same track. Counts come from
// the Stats of the untraced half of the run.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"gfmap/internal/core"
	"gfmap/internal/obs"
)

// layerMetrics lists the per-layer metrics every workload reports with
// --trace 1, in BENCHMARK.json order. Values are per round (one pass over
// a CLI corpus, one 40-request serve block, one fleet round) unless the
// name says otherwise. A layer a workload does not reach reads 0; those
// are counts and ratios, never times.
var layerMetrics = []struct{ name, unit string }{
	{"network.decompose_ms", "ms"},
	{"network.partition_ms", "ms"},
	{"network.decompose_scaling", "ratio"},
	{"core.cuts_ms", "ms"},
	{"core.cover_ms", "ms"},
	{"core.emit_ms", "ms"},
	{"core.clusters", "count"},
	{"core.cut_truncations", "count"},
	{"match.self_ms", "ms"},
	{"match.find_calls", "count"},
	{"match.useful_ratio", "ratio"},
	{"hazard.analyze_ms", "ms"},
	{"hazard.checks", "count"},
	{"hazard.accept_ratio", "ratio"},
	{"hazard.infeasible", "count"},
	{"hazard.async_overhead", "ratio"},
	{"hazard.area_overhead", "ratio"},
	{"hazcache.hit_ratio", "ratio"},
	{"hazcache.local_hit_ratio", "ratio"},
	{"library.annotate_ms", "ms"},
	{"eqn.parse_ms", "ms"},
	{"entry.overhead_ms", "ms"},
	{"server.queue_wait_share", "ratio"},
	{"server.rejected", "count"},
	{"hfmin.synthesize_share", "ratio"},
	{"dsim.simulate_share", "ratio"},
	{"dsim.transitions", "count"},
	{"fleet.speedup", "ratio"},
	{"fleet.cone_speedup", "ratio"},
	{"fleet.hedges", "count"},
	{"fleet.retries", "count"},
	{"fleet.local_fallbacks", "count"},
	{"obs.trace_overhead", "ratio"},
	{"obs.trace_records", "count"},
	{"loadgen.lag_p99_ms", "ms"},
}

// requiredSpans are the span names the per-layer metrics are built from;
// a traced run that never sees one of them on a workload that should
// produce it has lost a layer (a renamed span), not measured a zero.
var requiredSpans = []string{"decompose", "partition", "cuts", "match", "hazard", "emit", "synthesize", "simulate"}

type spanStat struct {
	Count  int     `json:"count"`
	BusyMS float64 `json:"busy_ms"`
	SelfMS float64 `json:"self_ms"`
}

// spanAgg aggregates every trace of a traced run and copies the raw
// records to spans.jsonl.
type spanAgg struct {
	Spans      map[string]*spanStat `json:"spans"`
	Records    int                  `json:"records"`
	Traces     int                  `json:"traces"`
	MaxRecords int                  `json:"max_records_per_trace"`
	Truncated  bool                 `json:"truncated"`
	Infeasible int                  `json:"infeasible_analyses"`

	out *bufio.Writer
	f   *os.File
}

func newSpanAgg(dir string) (*spanAgg, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return nil, err
	}
	return &spanAgg{Spans: map[string]*spanStat{}, out: bufio.NewWriter(f), f: f}, nil
}

// jsonlSpan is the subset of obs's JSONL record the aggregation reads.
type jsonlSpan struct {
	TsUs  float64        `json:"ts_us"`
	DurUs *float64       `json:"dur_us"`
	Ph    string         `json:"ph"`
	Tid   int64          `json:"tid"`
	Name  string         `json:"name"`
	Attrs map[string]any `json:"attrs"`
}

// add aggregates one trace: the JSONL export of one tracer (one asyncmap
// run, or one traced server). dropped is the tracer's own count of
// discarded records; a trace that dropped any or reached
// obs.DefaultMaxRecords is truncated and fails the run.
func (a *spanAgg) add(jsonl []byte, dropped uint64) error {
	type node struct {
		name       string
		tid        int64
		start, end float64
		child      float64
	}
	var spans []*node
	records := 0
	sc := bufio.NewScanner(bytes.NewReader(jsonl))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		records++
		var r jsonlSpan
		if err := json.Unmarshal(line, &r); err != nil {
			return fmt.Errorf("trace record %d: %w", records, err)
		}
		a.out.Write(line)
		a.out.WriteByte('\n')
		if r.Ph != "span" || r.DurUs == nil {
			continue
		}
		if r.Name == "hazard" && r.Attrs["infeasible"] == float64(1) {
			a.Infeasible++
		}
		spans = append(spans, &node{name: r.Name, tid: r.Tid, start: r.TsUs, end: r.TsUs + *r.DurUs})
	}
	if err := sc.Err(); err != nil {
		return err
	}
	a.Traces++
	a.Records += records
	a.MaxRecords = max(a.MaxRecords, records)
	if dropped > 0 || records >= obs.DefaultMaxRecords {
		a.Truncated = true
	}
	// Parents start no later and end no earlier than their children on
	// the same track; sort so each parent precedes its children.
	sort.Slice(spans, func(i, j int) bool {
		si, sj := spans[i], spans[j]
		if si.tid != sj.tid {
			return si.tid < sj.tid
		}
		if si.start != sj.start {
			return si.start < sj.start
		}
		return si.end > sj.end
	})
	const eps = 1e-3 // µs; JSONL times carry nanosecond resolution
	var stack []*node
	for _, s := range spans {
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if top.tid == s.tid && top.end >= s.end-eps {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			stack[len(stack)-1].child += s.end - s.start
		}
		stack = append(stack, s)
	}
	for _, s := range spans {
		st := a.Spans[s.name]
		if st == nil {
			st = &spanStat{}
			a.Spans[s.name] = st
		}
		st.Count++
		st.BusyMS += (s.end - s.start) / 1e3
		st.SelfMS += (s.end - s.start - s.child) / 1e3
	}
	return nil
}

func (a *spanAgg) busy(name string) float64 {
	if st := a.Spans[name]; st != nil {
		return st.BusyMS
	}
	return 0
}

func (a *spanAgg) self(name string) float64 {
	if st := a.Spans[name]; st != nil {
		return st.SelfMS
	}
	return 0
}

func (a *spanAgg) close() error {
	if err := a.out.Flush(); err != nil {
		a.f.Close()
		return err
	}
	return a.f.Close()
}

// counters sums the mapper's work counters over a run's results.
type counters struct {
	clusters, matches, finds, truncations int
	checks, rejected                      int
	localHits, sharedHits, misses         int
}

func (c *counters) add(st core.Stats) {
	c.clusters += st.ClustersEnumerated
	c.matches += st.MatchesFound
	c.finds += st.FindInvocations
	c.truncations += st.CutTruncations
	c.checks += st.HazardChecks
	c.rejected += st.MatchesRejected
	c.localHits += st.HazCacheLocalHits
	c.sharedHits += st.HazCacheHits
	c.misses += st.HazCacheMisses
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traced holds what every workload's traced run measures; workload-specific
// layer values go straight into the report.
type traced struct {
	rounds         int
	agg            *spanAgg
	c              counters
	parseMS        float64   // in-process eqn.Parse of every design sent
	annotateMS     float64   // median library Build+Annotate of the workload's libraries
	overheadMS     float64   // sum over operations of client time minus pipeline time
	untracedMS     float64   // sum of untraced operation times
	tracedMS       float64   // sum of the same operations, traced
	lagMS          []float64 // load-generator lag per operation
	pipelineSpans  []string  // span names this workload must produce
	dir            string
	workload, seed string
}

// addTracer aggregates everything a server's tracer recorded.
func (t *traced) addTracer(tr *obs.Tracer) error {
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		return err
	}
	return t.agg.add(buf.Bytes(), tr.Dropped())
}

// newTraced starts a traced run of the given number of rounds that must
// produce every one of spans.
func newTraced(e *env, rounds int, spans ...string) (*traced, error) {
	agg, err := newSpanAgg(e.traceDir)
	if err != nil {
		return nil, err
	}
	return &traced{rounds: rounds, agg: agg, pipelineSpans: spans, dir: e.traceDir,
		workload: e.workload, seed: fmt.Sprint(e.seed)}, nil
}

// finish turns a traced run into per-layer values, writes layers.json and
// fails the run if a trace was truncated or a required span is missing.
func (t *traced) finish(r *report) error {
	n := float64(t.rounds)
	a := t.agg
	v := r.values
	v["network.decompose_ms"] = a.busy("decompose") / n
	v["network.partition_ms"] = a.busy("partition") / n
	v["core.cuts_ms"] = a.busy("cuts") / n
	v["core.cover_ms"] = a.busy("cover") / n
	v["core.emit_ms"] = a.busy("emit") / n
	v["match.self_ms"] = a.self("match") / n
	v["hazard.analyze_ms"] = a.busy("hazard") / n
	v["hazard.infeasible"] = float64(a.Infeasible) / n
	v["obs.trace_records"] = float64(a.Records) / n
	c := t.c
	v["core.clusters"] = float64(c.clusters) / n
	v["core.cut_truncations"] = float64(c.truncations) / n
	v["match.find_calls"] = float64(c.finds) / n
	v["match.useful_ratio"] = ratio(float64(c.matches), float64(c.finds))
	v["hazard.checks"] = float64(c.checks) / n
	v["hazard.accept_ratio"] = ratio(float64(c.checks-c.rejected), float64(c.checks))
	analyses := float64(c.localHits + c.sharedHits + c.misses)
	v["hazcache.hit_ratio"] = ratio(float64(c.localHits+c.sharedHits), analyses)
	v["hazcache.local_hit_ratio"] = ratio(float64(c.localHits), analyses)
	v["library.annotate_ms"] = t.annotateMS
	v["eqn.parse_ms"] = t.parseMS / n
	v["entry.overhead_ms"] = t.overheadMS / n
	v["obs.trace_overhead"] = ratio(t.tracedMS, t.untracedMS)
	v["loadgen.lag_p99_ms"] = quantile(t.lagMS, 0.99)
	for _, m := range layerMetrics {
		if _, ok := v[m.name]; !ok {
			v[m.name] = 0 // a layer this workload does not reach
		}
	}
	if err := a.close(); err != nil {
		return err
	}
	if a.Truncated {
		r.fail(fmt.Errorf("trace truncated: a trace reached %d records (obs.DefaultMaxRecords)", obs.DefaultMaxRecords))
	}
	for _, name := range t.pipelineSpans {
		if a.Spans[name] == nil {
			r.fail(fmt.Errorf("traced run produced no %q spans", name))
		}
	}
	metrics := map[string]float64{}
	for _, m := range layerMetrics {
		metrics[m.name] = v[m.name]
	}
	data, err := json.MarshalIndent(struct {
		Workload string             `json:"workload"`
		Seed     string             `json:"seed"`
		Rounds   int                `json:"rounds"`
		Trace    *spanAgg           `json:"trace"`
		Metrics  map[string]float64 `json:"metrics"`
	}{t.workload, t.seed, t.rounds, a, metrics}, "", "  ")
	if err != nil {
		return err
	}
	logf("traced run: %d traces, %d records (max %d per trace), layers in %s", a.Traces, a.Records, a.MaxRecords, t.dir)
	return os.WriteFile(filepath.Join(t.dir, "layers.json"), append(data, '\n'), 0o644)
}
