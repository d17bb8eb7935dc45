package bench

import (
	"sync"
	"testing"

	"gfmap/internal/core"
	"gfmap/internal/hazcache"
	"gfmap/internal/library"
)

// TestParallelSharedCacheStress maps benchmark designs with many workers
// through one private hazard-analysis cache, from two goroutines at once
// (run under -race in CI), as an in-process fleet's servers share one.
// Every run must reproduce the serial, cache-less reference bit for bit,
// and on the hazard-exercising library every multi-cone design must see a
// nonzero cache hit rate.
func TestParallelSharedCacheStress(t *testing.T) {
	ds, err := Designs()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := library.Get("Actel")
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		ds = ds[:5] // skip the big replicated controllers
	}
	cache := hazcache.New(0)
	for _, d := range ds {
		ref, err := core.AsyncTmap(d.Net, lib, core.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: reference: %v", d.Name, err)
		}
		var wg sync.WaitGroup
		results := make([]*core.Result, 2)
		errs := make([]error, 2)
		for i := range results {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = core.AsyncTmap(d.Net, lib,
					core.Options{Workers: 8, HazardCache: cache})
			}(i)
		}
		wg.Wait()
		for i, res := range results {
			if errs[i] != nil {
				t.Fatalf("%s: run %d: %v", d.Name, i, errs[i])
			}
			if res.Netlist.String() != ref.Netlist.String() {
				t.Errorf("%s: run %d netlist differs from the serial cache-less reference", d.Name, i)
			}
			if got, want := res.Stats.Deterministic(), ref.Stats.Deterministic(); got != want {
				t.Errorf("%s: run %d deterministic stats differ:\n got %+v\nwant %+v", d.Name, i, got, want)
			}
			if res.Stats.HazardAnalyses() > 0 && res.Stats.HazCacheHitRate() == 0 {
				t.Errorf("%s: run %d: zero cache hit rate over %d analyses",
					d.Name, i, res.Stats.HazardAnalyses())
			}
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Errorf("stress run never hit the cache: %+v", st)
	}
}
