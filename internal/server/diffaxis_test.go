package server

// End-to-end fleet diffcheck axis: diffcheck.Check drives a real
// in-process fleet through the FleetMap hook and must report zero
// violations — on a healthy fleet and under fault injection. This is
// the test-side twin of the wiring cmd/gfmfuzz -fleet performs.

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"gfmap/internal/core"
	"gfmap/internal/diffcheck"
	"gfmap/internal/eqn"
	"gfmap/internal/library"
	"gfmap/internal/network"
)

// fleetAxisHook adapts an in-process fleet to diffcheck's FleetMap
// contract: serialize the design once, map the identical text through
// the coordinator and the local twin, return the pair.
func fleetAxisHook(f *InProcessFleet, libName string) diffcheck.FleetMapFunc {
	return func(net *network.Network, mode core.Mode) (*diffcheck.FleetOutcome, error) {
		req := MapRequest{
			Name:    net.Name,
			Format:  "eqn",
			Design:  eqn.WriteString(net),
			Library: libName,
			Mode:    mode.String(),
		}
		viaFleet, viaLocal, err := f.MapBoth(req)
		if err != nil {
			return nil, err
		}
		fo := &diffcheck.FleetOutcome{FleetErr: viaFleet.Error, LocalErr: viaLocal.Error}
		if viaFleet.MapResponse != nil {
			fo.FleetNetlist, fo.FleetStats = viaFleet.Netlist, viaFleet.Stats
		}
		if viaLocal.MapResponse != nil {
			fo.LocalNetlist, fo.LocalStats = viaLocal.Netlist, viaLocal.Stats
		}
		return fo, nil
	}
}

func diffAxisOptions(t *testing.T, f *InProcessFleet) diffcheck.Options {
	t.Helper()
	lib, err := library.Get("LSI9K")
	if err != nil {
		t.Fatal(err)
	}
	// SkipVerify: the semantic oracles are exercised by the diffcheck
	// suite itself; here the fleet axis is the invariant under test.
	return diffcheck.Options{Lib: lib, SkipVerify: true, SkipStoreAxes: true,
		FleetMap: fleetAxisHook(f, "LSI9K")}
}

func checkSeeds(t *testing.T, opts diffcheck.Options, seeds ...uint64) {
	t.Helper()
	for _, seed := range seeds {
		net := diffcheck.Generate(seed, diffcheck.GenConfig{Inputs: 5, Nodes: 8, MaxFanin: 3})
		if rep := diffcheck.Check(net, opts); rep.Failed() {
			for _, v := range rep.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
		}
	}
}

// TestFleetDiffcheckAxis: zero violations over a healthy two-worker
// fleet (single-design batches are dispatched design-wise, one /map job
// each).
func TestFleetDiffcheckAxis(t *testing.T) {
	defer fleetGuard(t)()
	f, err := StartInProcessFleet(2, Config{Libraries: []string{"LSI9K"}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	checkSeeds(t, diffAxisOptions(t, f), 1, 2, 3)
}

// TestFleetDiffcheckAxisUnderFaults: the axis still reports zero
// violations when one worker of the fleet corrupts every other reply —
// retries, validation and local fallback keep byte identity. Each design
// is a single-design batch, dispatched design-wise.
func TestFleetDiffcheckAxisUnderFaults(t *testing.T) {
	corrupting, _ := wrapWorker(t, func(n int64, w http.ResponseWriter, r *http.Request) bool {
		if n%2 == 1 {
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte("}{ not json"))
			return true
		}
		return false
	})
	healthy, _ := wrapWorker(t, func(int64, http.ResponseWriter, *http.Request) bool { return false })
	coord, local := fleetOverWorkers(t, -1, corrupting.URL, healthy.URL)
	coordSrv := httptest.NewServer(coord.Handler())
	t.Cleanup(coordSrv.Close)
	localSrv := httptest.NewServer(local.Handler())
	t.Cleanup(localSrv.Close)
	defer fleetGuard(t)()

	f := &InProcessFleet{CoordinatorURL: coordSrv.URL, LocalURL: localSrv.URL}
	checkSeeds(t, diffAxisOptions(t, f), 4, 5)
}
