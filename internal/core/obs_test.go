package core

// Tests of the observability layer's contract with the mapper: tracing
// and metrics must never perturb the mapping (bit-identical netlists,
// identical deterministic statistics), the trace must contain spans for
// every pipeline phase with per-worker tracks, and the registry must be
// populated coherently with Stats.

import (
	"bytes"
	"encoding/json"
	"testing"

	"gfmap/internal/library"
	"gfmap/internal/obs"
)

const obsSrc = `
INPUT(a, b, c, d, e, f)
OUTPUT(x, y, z)
u = a*b + c;
x = u*d' + e;
y = u + a'*f;
z = (u*e)' + d*f;
`

func TestTracingPreservesMapping(t *testing.T) {
	net := parseNet(t, obsSrc, "obs")
	lib := library.MustGet("Actel")
	base, err := Map(net, lib, Options{Mode: Async, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		tr := obs.NewTracer(0)
		reg := obs.NewRegistry()
		traced, err := Map(net, lib, Options{
			Mode: Async, Workers: workers,
			Tracer: tr, Metrics: reg, ProfileLabels: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if traced.Netlist.String() != base.Netlist.String() {
			t.Errorf("workers=%d: traced netlist differs from untraced:\n%s\nvs\n%s",
				workers, traced.Netlist, base.Netlist)
		}
		if traced.Stats.Deterministic() != base.Stats.Deterministic() {
			t.Errorf("workers=%d: traced stats differ: %+v vs %+v",
				workers, traced.Stats.Deterministic(), base.Stats.Deterministic())
		}
		names := map[string]bool{}
		for _, n := range tr.SpanNames() {
			names[n] = true
		}
		for _, want := range []string{"decompose", "partition", "cover", "emit", "cone", "dp", "cuts", "match", "hazard"} {
			if !names[want] {
				t.Errorf("workers=%d: trace missing span %q (have %v)", workers, want, tr.SpanNames())
			}
		}
		// The registry's counters must mirror the deterministic stats.
		snap := reg.Snapshot()
		if got := snap.Counters["map_clusters_enumerated"]; got != uint64(traced.Stats.ClustersEnumerated) {
			t.Errorf("workers=%d: map_clusters_enumerated = %d, want %d",
				workers, got, traced.Stats.ClustersEnumerated)
		}
		if got := snap.Counters["map_cones"]; got != uint64(traced.Stats.Cones) {
			t.Errorf("workers=%d: map_cones = %d, want %d", workers, got, traced.Stats.Cones)
		}
		if snap.Histograms[MetricCutsPerNode].Count == 0 {
			t.Errorf("workers=%d: cuts-per-node histogram empty", workers)
		}
		if snap.Histograms[MetricClusterLeaves].Count == 0 {
			t.Errorf("workers=%d: cluster-leaves histogram empty", workers)
		}
		if snap.Histograms[MetricHazardSeconds].Count == 0 {
			t.Errorf("workers=%d: hazard-latency histogram empty", workers)
		}
		if snap.Gauges["map_area"] != traced.Area {
			t.Errorf("workers=%d: map_area gauge = %g, want %g", workers, snap.Gauges["map_area"], traced.Area)
		}
		// The exported Chrome trace must be valid JSON with X spans.
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Ph  string `json:"ph"`
				Tid int64  `json:"tid"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("workers=%d: invalid chrome trace: %v", workers, err)
		}
		tids := map[int64]bool{}
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "X" {
				tids[ev.Tid] = true
			}
		}
		if !tids[0] {
			t.Errorf("workers=%d: no pipeline-track spans", workers)
		}
		worker := false
		for tid := range tids {
			if tid >= 1 && tid <= int64(workers) {
				worker = true
			}
		}
		if !worker {
			t.Errorf("workers=%d: no worker-track spans (tids %v)", workers, tids)
		}
	}
}

// TestTracerDisabledStatsIdentical pins the nil-tracer run to the traced
// run's deterministic view — merge and Deterministic must agree whether
// or not observability was on, across worker counts.
func TestTracerDisabledStatsIdentical(t *testing.T) {
	net := parseNet(t, obsSrc, "obs2")
	lib := library.MustGet("CMOS3")
	plain, err := Map(net, lib, Options{Mode: Async, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Map(net, lib, Options{Mode: Async, Workers: 4,
		Tracer: obs.NewTracer(0), Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.Deterministic() != traced.Stats.Deterministic() {
		t.Errorf("deterministic stats differ with tracing:\n%+v\nvs\n%+v",
			plain.Stats.Deterministic(), traced.Stats.Deterministic())
	}
	if plain.Netlist.String() != traced.Netlist.String() {
		t.Error("netlist differs with tracing enabled")
	}
}

// TestDisabledObservabilityHotPathAllocs pins the disabled-path cost of
// the exact tracer/metric call sequence the DP hot loops execute (span
// per node, histogram observations, hazard span with attributes): zero
// allocations when no tracer or registry is configured.
func TestDisabledObservabilityHotPathAllocs(t *testing.T) {
	m := &mapper{tid: 1} // opts.Tracer nil, met zero: observability off
	allocs := testing.AllocsPerRun(1000, func() {
		csp := m.opts.Tracer.StartSpanOn(m.tid, "cuts")
		csp.SetInt("node", 3)
		csp.SetInt("cuts", 17)
		csp.End()
		msp := m.opts.Tracer.StartSpanOn(m.tid, "match")
		msp.SetInt("node", 3)
		msp.End()
		m.met.cutsPerNode.Observe(17)
		m.met.clusterLeaves.Observe(4)
		sp := m.opts.Tracer.StartSpanOn(m.tid, "hazard")
		sp.SetInt("phase", 1)
		sp.SetInt("cache_hit", 0)
		sp.End()
		if m.met.hazSeconds != nil {
			t.Error("unexpected histogram handle")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled observability hot path allocates: %v allocs/op", allocs)
	}
}

// TestTracerBufferOverflowSafe: a tiny trace buffer must truncate, not
// corrupt, and must not affect the mapping.
func TestTracerBufferOverflowSafe(t *testing.T) {
	net := parseNet(t, obsSrc, "obs3")
	lib := library.MustGet("LSI9K")
	tr := obs.NewTracer(4)
	res, err := Map(net, lib, Options{Mode: Async, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() > 4 {
		t.Errorf("buffer exceeded cap: %d", tr.Len())
	}
	if tr.Dropped() == 0 {
		t.Error("expected dropped records with a 4-entry buffer")
	}
	if err := res.Netlist.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("truncated trace is not valid JSON")
	}
}
