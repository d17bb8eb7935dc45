package core_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"gfmap/internal/bench"
	"gfmap/internal/core"
	"gfmap/internal/library"
	"gfmap/internal/mapstore"
	"gfmap/internal/obs"
)

// synthDesign returns a design of the synthetic benchmark corpus by name.
func synthDesign(t *testing.T, name string) *bench.Design {
	t.Helper()
	synthetic, err := bench.SynthDesigns()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range synthetic {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("no synthetic design %s", name)
	return nil
}

// TestDistinctConesCoveredOnce: scsi's 726 cones have 6 distinct
// signatures, so a run covers 6 cones and every other cone shares the
// cover of the first cone with its signature. The result must be the one
// a run that covers every cone on its own produces, at any worker count.
func TestDistinctConesCoveredOnce(t *testing.T) {
	scsi, err := bench.DesignByName("scsi")
	if err != nil {
		t.Fatal(err)
	}
	lib := library.MustGet("Actel")
	wantNl, wantStats := core.MapEachCone(t, scsi.Net, lib, core.Options{Mode: core.Async, Workers: 1})
	for _, workers := range []int{1, 4} {
		reg, tr := obs.NewRegistry(), obs.NewTracer(0)
		res, err := core.Map(scsi.Net, lib, core.Options{Mode: core.Async, Workers: workers, Metrics: reg, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Cones != 726 {
			t.Fatalf("workers=%d: %d cones, want 726", workers, res.Stats.Cones)
		}
		if n := reg.Snapshot().Histograms[core.MetricConeSeconds].Count; n != 6 {
			t.Errorf("workers=%d: %s counted %d cones, want 6", workers, core.MetricConeSeconds, n)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		dps, distinct := 0, -1.0
		for sc := bufio.NewScanner(&buf); sc.Scan(); {
			var rec struct {
				Name  string         `json:"name"`
				Attrs map[string]any `json:"attrs"`
			}
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatal(err)
			}
			switch rec.Name {
			case "dp":
				dps++
			case "cover":
				distinct, _ = rec.Attrs["distinct"].(float64)
			}
		}
		if dps != 6 || distinct != 6 {
			t.Errorf("workers=%d: %d dp spans, cover span distinct=%v; want 6 and 6", workers, dps, distinct)
		}
		if res.Netlist.String() != wantNl {
			t.Errorf("workers=%d: netlist differs from covering every cone on its own", workers)
		}
		if got := res.Stats.Deterministic(); got != wantStats.Deterministic() {
			t.Errorf("workers=%d: deterministic stats differ from covering every cone on its own:\n%+v\nvs\n%+v",
				workers, got, wantStats.Deterministic())
		}
	}
}

// TestStoreKeysTellGroupingsApart: synth-deep-120 has cones whose trees
// differ only in how an OR chain is grouped, such as v0 + ((v1+v2)+(v3+v4))
// and ((v0+v1)+(v2+v3)) + v4. Their signatures differ, so a warm store
// serves every cone and no entry of the cold run reads as corrupt.
func TestStoreKeysTellGroupingsApart(t *testing.T) {
	deep := synthDesign(t, "synth-deep-120")
	lib := library.MustGet("LSI9K")
	for _, workers := range []int{1, 4} {
		store := mapstore.NewMemory(0)
		opts := core.Options{Mode: core.Async, Workers: workers, Store: store}
		cold, err := core.Map(deep.Net, lib, opts)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := core.Map(deep.Net, lib, opts)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Stats.StoreHits != warm.Stats.Cones || warm.Stats.StoreMisses != 0 {
			t.Errorf("workers=%d: warm run hits=%d misses=%d, want %d and 0",
				workers, warm.Stats.StoreHits, warm.Stats.StoreMisses, warm.Stats.Cones)
		}
		if c := store.Stats().Corrupt; c != 0 {
			t.Errorf("workers=%d: store counted %d corrupt entries", workers, c)
		}
		if warm.Netlist.String() != cold.Netlist.String() {
			t.Errorf("workers=%d: warm netlist differs from the cold run", workers)
		}
	}
}

// TestNoHazardCacheByDefault: without Options.HazardCache no hazard
// analysis crosses runs. abcs on Actel makes analyses past the per-cone
// memo; mapping it a second time in the same process makes them all again,
// and neither run reports a cache hit.
func TestNoHazardCacheByDefault(t *testing.T) {
	abcs, err := bench.DesignByName("abcs")
	if err != nil {
		t.Fatal(err)
	}
	lib := library.MustGet("Actel")
	var runs [2]core.Stats
	for i := range runs {
		res, err := core.AsyncTmap(abcs.Net, lib, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res.Stats
		if res.Stats.HazCacheHits != 0 {
			t.Errorf("run %d: %d cache hits without a cache", i+1, res.Stats.HazCacheHits)
		}
	}
	if runs[0].HazCacheMisses == 0 {
		t.Fatal("abcs made no hazard analyses past the per-cone memo")
	}
	if runs[1].HazCacheMisses != runs[0].HazCacheMisses {
		t.Errorf("second run made %d fresh analyses, the first %d", runs[1].HazCacheMisses, runs[0].HazCacheMisses)
	}
}
