package diffcheck

// The fleet axis: fleet-vs-local byte identity over the serving stack.
//
// Unlike the in-process option matrix, this axis crosses the HTTP
// boundary: the same serialized design text is mapped once through a
// fleet coordinator (design-wise dispatch, hedged retries, worker
// failures and all) and once through a plain
// single-process server, and the two responses must agree exactly.
//
// The comparison is deliberately fleet-vs-local of the *same served
// text*, not fleet-vs-the-harness's in-memory baseline: the eqn/BLIF
// round trip preserves Boolean equivalence, not structural identity, so
// only two servers parsing identical text are promised byte-identical
// netlists.
//
// The hook lives behind a function type so this package never imports
// the server: cmd/gfmfuzz (and the server's own tests) wire it up with
// server.StartInProcessFleet.

import (
	"fmt"

	"gfmap/internal/core"
	"gfmap/internal/network"
)

// FleetVariant names the fleet axis in violation reports.
const FleetVariant = "fleet"

// FleetOutcome is one design's paired serving outcome: the same request
// mapped via the fleet coordinator and via the single-process local
// twin. Err fields carry the served error text ("" for success); on
// success the netlists and stats must match.
type FleetOutcome struct {
	FleetNetlist string
	LocalNetlist string
	FleetStats   core.Stats
	LocalStats   core.Stats
	FleetErr     string
	LocalErr     string
}

// FleetMapFunc maps one design through a fleet coordinator and a local
// single-process server fed the identical serialized request. Returning
// (nil, nil) skips the axis for this design; an error is a harness
// failure and reported as such.
type FleetMapFunc func(net *network.Network, mode core.Mode) (*FleetOutcome, error)

// checkFleet runs the fleet axis for one mode. The invariants mirror
// the in-process matrix: fleet and local must agree on failure, and on
// success the netlist text and the deterministic stats view must be
// identical — no matter which workers died, straggled or returned
// garbage before the coordinator got its answer.
func checkFleet(net *network.Network, mode core.Mode, opts Options, rep *Report) {
	ms := mode.String()
	fo, err := opts.FleetMap(net, mode)
	if err != nil {
		rep.add(KindMapError, ms, FleetVariant, "fleet axis harness error: "+err.Error())
		return
	}
	if fo == nil {
		return
	}
	if (fo.FleetErr == "") != (fo.LocalErr == "") {
		rep.add(KindMapError, ms, FleetVariant,
			fmt.Sprintf("fleet and local disagree on failure: fleet=%q local=%q", fo.FleetErr, fo.LocalErr))
		return
	}
	if fo.FleetErr != "" {
		return // both failed: agreement is the invariant, exact text is the server's business
	}
	if fo.FleetNetlist != fo.LocalNetlist {
		rep.add(KindByteIdentity, ms, FleetVariant,
			fmt.Sprintf("fleet netlist differs from local single-process run:\n--- local ---\n%s--- fleet ---\n%s",
				fo.LocalNetlist, fo.FleetNetlist))
	}
	if fs, ls := fo.FleetStats.Deterministic(), fo.LocalStats.Deterministic(); fs != ls {
		rep.add(KindStats, ms, FleetVariant,
			fmt.Sprintf("deterministic stats differ: fleet %+v vs local %+v", fs, ls))
	}
}
