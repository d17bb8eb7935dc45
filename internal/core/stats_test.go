package core

// Tests of the Stats taxonomy: WorkCounters and Phases describe every
// field of Stats, in field order, and the loops built on them (merge,
// statsDelta, Deterministic, the store encoding, the registry counters
// and the cone span) keep today's names, values and order.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gfmap/internal/library"
	"gfmap/internal/mapstore"
	"gfmap/internal/obs"
)

// pinnedCounters is the work-counter table as every surface shows it:
// the Stats field, its registry counter, its cone-span attribute and its
// class. A change here changes /metrics, traces or the store format.
var pinnedCounters = []struct {
	field, metric, span string
	class               counterClass
}{
	{"Cones", "map_cones", "", perRun},
	{"ClustersEnumerated", "map_clusters_enumerated", "clusters", perCone},
	{"MatchesFound", "map_matches_found", "matches", perCone},
	{"HazardousMatches", "map_hazardous_matches", "", perCone},
	{"HazardChecks", "map_hazard_checks", "", perCone},
	{"MatchesRejected", "map_matches_rejected", "rejected", perCone},
	{"CutTruncations", "map_cut_truncations", "", perCone},
	{"FindInvocations", "map_match_find_calls", "", perCone},
	{"IndexProbes", "map_index_probes", "", perCone},
	{"IndexSkippedCells", "map_index_skipped_cells", "", perCone},
	{"SymmetryPruned", "map_symmetry_pruned", "", perCone},
	{"HazCacheLocalHits", "map_haz_local_hits", "haz_local_hits", perCone},
	{"HazCacheHits", "map_haz_shared_hits", "haz_shared_hits", scheduling},
	{"HazCacheMisses", "map_haz_misses", "haz_misses", scheduling},
	{"StoreHits", "map_store_hits", "", scheduling},
	{"StoreMisses", "map_store_misses", "", scheduling},
}

// statsFields returns the names and addresses of s's int fields and of
// its time.Duration fields, each in field order.
func statsFields(t *testing.T, s *Stats) (ints []string, intPtrs []*int, durs []string, durPtrs []*time.Duration) {
	t.Helper()
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch f.Type() {
		case reflect.TypeOf(0):
			ints, intPtrs = append(ints, name), append(intPtrs, f.Addr().Interface().(*int))
		case reflect.TypeOf(time.Duration(0)):
			durs, durPtrs = append(durs, name), append(durPtrs, f.Addr().Interface().(*time.Duration))
		default:
			t.Fatalf("Stats.%s has type %s: neither a work counter nor a phase time", name, f.Type())
		}
	}
	return ints, intPtrs, durs, durPtrs
}

// Every int field of Stats is in WorkCounters exactly once, in field
// order, with its pinned name, span attribute and class; every Duration
// field is exactly one phase's time.
func TestWorkCountersCoverStats(t *testing.T) {
	var s Stats
	ints, intPtrs, durs, durPtrs := statsFields(t, &s)
	counts := s.Counts()
	if len(ints) != len(WorkCounters) || len(pinnedCounters) != len(WorkCounters) {
		t.Fatalf("Stats has %d int fields, WorkCounters %d rows, the pinned table %d",
			len(ints), len(WorkCounters), len(pinnedCounters))
	}
	for i, want := range pinnedCounters {
		if counts[i] != intPtrs[i] {
			t.Errorf("Counts()[%d] is not Stats.%s", i, ints[i])
		}
		got := WorkCounters[i]
		if ints[i] != want.field || got.Metric != want.metric || got.Span != want.span || got.class != want.class {
			t.Errorf("row %d: Stats.%s %+v, want Stats.%s %+v", i, ints[i], got, want.field, want)
		}
	}
	if want := []string{"decompose", "partition", "cover", "emit"}; !slices.Equal(Phases[:], want) {
		t.Errorf("Phases = %v, want %v", Phases, want)
	}
	times := s.PhaseTimes()
	if len(durs) != len(Phases) {
		t.Fatalf("Stats has %d Duration fields for %d phases", len(durs), len(Phases))
	}
	for i, p := range durPtrs {
		if times[i] != p {
			t.Errorf("PhaseTimes()[%d] (%s) is not Stats.%s", i, Phases[i], durs[i])
		}
	}
}

// The per-cone counters are what a mapstore solution stores, in this
// order; reordering them would misread every store file already written.
func TestPerConeCountersKeepStoreOrder(t *testing.T) {
	want := []string{
		"ClustersEnumerated", "MatchesFound", "HazardousMatches",
		"HazardChecks", "MatchesRejected", "CutTruncations",
		"FindInvocations", "IndexProbes", "IndexSkippedCells",
		"SymmetryPruned", "HazCacheLocalHits",
	}
	var s Stats
	ints, _, _, _ := statsFields(t, &s)
	var got []string
	for i, c := range WorkCounters {
		if c.class == perCone {
			got = append(got, ints[i])
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("store-encoding counters %v, want %v", got, want)
	}
}

// merge, statsDelta and Deterministic run per repeated cone and per
// worker; none of them may allocate.
func TestStatsLoopsAllocateNothing(t *testing.T) {
	var a, b Stats
	for i, c := range a.Counts() {
		*c = 100 + i
	}
	for i, c := range b.Counts() {
		*c = i
	}
	a.CoverTime = time.Second
	var d Stats
	for name, fn := range map[string]func(){
		"merge":         func() { d.merge(b) },
		"statsDelta":    func() { d = statsDelta(a, b) },
		"Deterministic": func() { d = a.Deterministic() },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
	if got := statsDelta(a, b); got.Cones != 0 || got.StoreHits != 0 || got.ClustersEnumerated != 100 || got.HazCacheLocalHits != 100 {
		t.Errorf("statsDelta kept only per-cone counters? %+v", got)
	}
	if got := a.Deterministic(); got.Cones != 100 || got.HazCacheHits != 0 || got.StoreMisses != 0 || got.CoverTime != 0 || got.HazCacheLocalHits != 111 {
		t.Errorf("Deterministic zeroed the wrong fields: %+v", got)
	}
}

// The registry carries one counter per WorkCounters row with the run's
// Stats value, and each cone span carries its node count and the cone's
// counter deltas under their attribute names, filling every span slot.
func TestCounterSurfacesMatchStats(t *testing.T) {
	net := parseNet(t, obsSrc, "surfaces")
	reg, tr := obs.NewRegistry(), obs.NewTracer(0)
	res, err := Map(net, library.MustGet("Actel"), Options{Mode: Async, Workers: 1,
		Metrics: reg, Tracer: tr, Store: mapstore.NewMemory(0)})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	st := res.Stats
	for i, c := range st.Counts() {
		if got := snap.Counters[WorkCounters[i].Metric]; got != uint64(*c) {
			t.Errorf("%s = %d, want %d", WorkCounters[i].Metric, got, *c)
		}
	}
	if st.HazardChecks == 0 || st.StoreMisses == 0 {
		t.Fatalf("design must exercise both the hazard filter and the store: %+v", st)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"cone", "nodes"}
	for _, c := range WorkCounters {
		if c.Span != "" {
			wantKeys = append(wantKeys, c.Span)
		}
	}
	if len(wantKeys) != obs.MaxAttrs {
		t.Fatalf("cone span wants %d attributes, a span holds %d", len(wantKeys), obs.MaxAttrs)
	}
	slices.Sort(wantKeys)
	sums := map[string]float64{}
	cones := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec struct {
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Name != "cone" {
			continue
		}
		cones++
		var keys []string
		for k, v := range rec.Attrs {
			keys = append(keys, k)
			if f, ok := v.(float64); ok {
				sums[k] += f
			}
		}
		slices.Sort(keys)
		if !slices.Equal(keys, wantKeys) {
			t.Errorf("cone span attributes %v, want %v", keys, wantKeys)
		}
	}
	if cones == 0 {
		t.Fatal("no cone spans")
	}
	// With Workers 1 and no repeated cone, the cone spans' deltas add up
	// to the run's counters.
	if cones != st.Cones {
		t.Fatalf("%d cone spans for %d cones: the design repeats a cone", cones, st.Cones)
	}
	for i, c := range st.Counts() {
		if span := WorkCounters[i].Span; span != "" && sums[span] != float64(*c) {
			t.Errorf("cone spans' %s add up to %g, Stats has %d", span, sums[span], *c)
		}
	}
}
