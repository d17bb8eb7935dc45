package diffcheck

// Unit tests for the fleet axis harness logic: checkFleet's verdicts on
// every shape a FleetMap hook can return. The end-to-end axis over a
// real in-process fleet lives in internal/server (diffaxis_test.go),
// next to the harness it needs.

import (
	"errors"
	"strings"
	"testing"

	"gfmap/internal/core"
	"gfmap/internal/library"
	"gfmap/internal/network"
)

func fleetTestOptions(t *testing.T, hook FleetMapFunc) Options {
	t.Helper()
	lib, err := library.Get("LSI9K")
	if err != nil {
		t.Fatal(err)
	}
	// The fleet axis is what's under test; skip the semantic oracles and
	// store axes to keep the matrix part cheap.
	return Options{Lib: lib, Modes: []core.Mode{core.Async}, SkipVerify: true,
		SkipStoreAxes: true, FleetMap: hook}
}

func fleetViolations(rep *Report) []Violation {
	var out []Violation
	for _, v := range rep.Violations {
		if v.Variant == FleetVariant {
			out = append(out, v)
		}
	}
	return out
}

func fleetTestNet() *network.Network {
	return Generate(7, GenConfig{Inputs: 4, Nodes: 5, MaxFanin: 3})
}

func TestFleetAxisAgreementPasses(t *testing.T) {
	calls := 0
	opts := fleetTestOptions(t, func(net *network.Network, mode core.Mode) (*FleetOutcome, error) {
		calls++
		st := core.Stats{Cones: 3}
		return &FleetOutcome{FleetNetlist: "nl\n", LocalNetlist: "nl\n",
			FleetStats: st, LocalStats: st}, nil
	})
	rep := Check(fleetTestNet(), opts)
	if got := fleetViolations(rep); len(got) != 0 {
		t.Fatalf("agreeing fleet outcome produced violations: %v", got)
	}
	if calls != 1 {
		t.Fatalf("hook called %d times, want once per mode", calls)
	}
}

func TestFleetAxisNetlistMismatch(t *testing.T) {
	opts := fleetTestOptions(t, func(*network.Network, core.Mode) (*FleetOutcome, error) {
		return &FleetOutcome{FleetNetlist: "a\n", LocalNetlist: "b\n"}, nil
	})
	got := fleetViolations(Check(fleetTestNet(), opts))
	if len(got) != 1 || got[0].Kind != KindByteIdentity {
		t.Fatalf("netlist mismatch reported as %v, want one %s", got, KindByteIdentity)
	}
}

func TestFleetAxisStatsMismatch(t *testing.T) {
	opts := fleetTestOptions(t, func(*network.Network, core.Mode) (*FleetOutcome, error) {
		return &FleetOutcome{FleetNetlist: "nl\n", LocalNetlist: "nl\n",
			FleetStats: core.Stats{Cones: 2}, LocalStats: core.Stats{Cones: 3}}, nil
	})
	got := fleetViolations(Check(fleetTestNet(), opts))
	if len(got) != 1 || got[0].Kind != KindStats {
		t.Fatalf("stats mismatch reported as %v, want one %s", got, KindStats)
	}
}

func TestFleetAxisNondeterministicStatsIgnored(t *testing.T) {
	// Cache warmth legitimately differs between fleet and local runs; only
	// the Deterministic view must agree.
	opts := fleetTestOptions(t, func(*network.Network, core.Mode) (*FleetOutcome, error) {
		return &FleetOutcome{FleetNetlist: "nl\n", LocalNetlist: "nl\n",
			FleetStats: core.Stats{Cones: 3, StoreHits: 1},
			LocalStats: core.Stats{Cones: 3}}, nil
	})
	if got := fleetViolations(Check(fleetTestNet(), opts)); len(got) != 0 {
		t.Fatalf("cache-warmth stat difference reported: %v", got)
	}
}

func TestFleetAxisFailureDisagreement(t *testing.T) {
	opts := fleetTestOptions(t, func(*network.Network, core.Mode) (*FleetOutcome, error) {
		return &FleetOutcome{FleetErr: "boom", LocalNetlist: "nl\n"}, nil
	})
	got := fleetViolations(Check(fleetTestNet(), opts))
	if len(got) != 1 || got[0].Kind != KindMapError {
		t.Fatalf("failure disagreement reported as %v, want one %s", got, KindMapError)
	}
}

func TestFleetAxisAgreedFailurePasses(t *testing.T) {
	opts := fleetTestOptions(t, func(*network.Network, core.Mode) (*FleetOutcome, error) {
		return &FleetOutcome{FleetErr: "no cover for cone x", LocalErr: "no cover for cone y"}, nil
	})
	if got := fleetViolations(Check(fleetTestNet(), opts)); len(got) != 0 {
		t.Fatalf("agreed failure produced violations: %v", got)
	}
}

func TestFleetAxisHarnessError(t *testing.T) {
	opts := fleetTestOptions(t, func(*network.Network, core.Mode) (*FleetOutcome, error) {
		return nil, errors.New("coordinator unreachable")
	})
	got := fleetViolations(Check(fleetTestNet(), opts))
	if len(got) != 1 || got[0].Kind != KindMapError ||
		!strings.Contains(got[0].Detail, "harness error") {
		t.Fatalf("harness error reported as %v", got)
	}
}

func TestFleetAxisNilOutcomeSkips(t *testing.T) {
	opts := fleetTestOptions(t, func(*network.Network, core.Mode) (*FleetOutcome, error) {
		return nil, nil
	})
	if got := fleetViolations(Check(fleetTestNet(), opts)); len(got) != 0 {
		t.Fatalf("skipped axis produced violations: %v", got)
	}
}
