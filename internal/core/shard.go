package core

// Sharded cone solving: the distributed-fleet face of the pipeline.
//
// The covering DP is embarrassingly parallel at cone granularity and its
// per-cone outcome is already serialized (solution.go) for the mapstore
// and MapDelta. MapCones exposes exactly that: run decompose + partition,
// solve only the cones a shard owns, and return their encoded solutions.
// A coordinator unions the shards' solution maps into a seed
// (NewSolutionSeed) and runs MapDelta locally: every shard-solved cone
// replays its recorded choices, every missing / corrupt / wrong-identity
// solution degrades to a local solve, and emission — which is serial and
// recomputes all naming from live netlist state — produces a netlist
// byte-identical to a plain single-process Map. Worker failure therefore
// costs duplicated work, never a different answer.

import (
	"context"
	"fmt"
	"runtime/debug"

	"gfmap/internal/library"
	"gfmap/internal/network"
)

// ConeSolutions is the outcome of one shard's MapCones run: the encoded
// covering solutions of the cones the shard owns, tagged with the
// identity pair (library fingerprint × option hash) they are only valid
// under.
type ConeSolutions struct {
	// LibFP and OptHash identify what the solutions were computed against;
	// a coordinator must discard a shard whose pair differs from its own
	// (SolutionIdentity) — MapDelta would ignore them anyway.
	LibFP   string
	OptHash string
	// Cones is the design's total cone count; Solved how many this shard
	// owned (every shards-th cone by partition ordinal).
	Cones  int
	Solved int
	// Solutions maps canonical cone signature → encoded solution, exactly
	// the encoding mapstore records and MapDelta seeds replay.
	Solutions map[string][]byte
	// Stats covers only this shard's solving work.
	Stats Stats
}

// MapCones runs the front half of the pipeline (decompose, partition,
// covering DP) for one shard of a design's cones: cone i is owned by
// shard i mod shards, a pure function of the deterministic partition
// order, so `shards` concurrent calls cover every cone exactly once with
// no coordination. No emission happens here — the caller assembles the
// final netlist by seeding MapDelta with the union of shard solutions.
//
// Like Map, MapCones never panics (defects surface as ErrInternal) and a
// cancelled ctx aborts promptly with ctx.Err().
func MapCones(ctx context.Context, net *network.Network, lib *library.Library, opts Options, shard, shards int) (cs *ConeSolutions, err error) {
	defer func() {
		if r := recover(); r != nil {
			cs, err = nil, fmt.Errorf("%w: panic in mapping pipeline: %v\n%s", ErrInternal, r, debug.Stack())
		}
	}()
	if shards < 1 || shard < 0 || shard >= shards {
		return nil, fmt.Errorf("core: shard %d of %d out of range", shard, shards)
	}
	opts.Ctx = ctx
	opts = opts.withDefaults()
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, err
	}
	if opts.Mode == Async && !lib.Annotated() {
		if err := lib.Annotate(); err != nil {
			return nil, err
		}
	}
	decomposed, err := network.AsyncTechDecomp(net)
	if err != nil {
		return nil, err
	}
	cones, err := network.Partition(decomposed)
	if err != nil {
		return nil, err
	}
	assigned := make([]network.Cone, 0, (len(cones)+shards-1)/shards)
	for i := shard; i < len(cones); i += shards {
		assigned = append(assigned, cones[i])
	}
	m := &mapper{lib: lib, opts: opts,
		netlist: NewNetlist(net.Name, net.Inputs, net.Outputs),
		tid:     1, met: newMetricSet(opts.Metrics), sc: acquireScratch()}
	// Same identity discipline as mapPipeline: fingerprint after
	// annotation, so pre- and post-annotation solutions never mix.
	m.libFP = lib.Fingerprint()
	m.optHash = optionHash(opts)
	m.store = opts.Store
	if err := m.ensureCells(); err != nil {
		return nil, err
	}
	prepared, _, err := m.prepareCones(assigned)
	if err != nil {
		if cerr := ctxErr(opts.Ctx); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	m.stats.Cones = len(assigned)
	sols := make(map[string][]byte, len(prepared))
	for _, pc := range prepared {
		sols[pc.coneKey] = pc.encoded
	}
	// Pool the scratch only on the clean path, mirroring mapPipeline.
	releaseScratch(m.sc)
	m.sc = nil
	return &ConeSolutions{LibFP: m.libFP, OptHash: m.optHash,
		Cones: len(cones), Solved: len(assigned),
		Solutions: sols, Stats: m.stats}, nil
}

// SolutionIdentity returns the (library fingerprint, option hash) pair a
// Map/MapCones run under these options tags its solutions with, so a
// coordinator can reject a shard response computed against a different
// library or semantically different options before seeding assembly.
// Annotates the library first in Async mode, exactly as mapping would.
func SolutionIdentity(lib *library.Library, opts Options) (libFP, optHash string, err error) {
	opts = opts.withDefaults()
	if opts.Mode == Async && !lib.Annotated() {
		if err := lib.Annotate(); err != nil {
			return "", "", err
		}
	}
	return lib.Fingerprint(), optionHash(opts), nil
}

// Solutions exposes the per-cone covering solutions a Result retains for
// MapDelta, so a worker process can ship them to its coordinator. The
// returned map is shared with the Result — treat it as read-only.
func (r *Result) Solutions() (libFP, optHash string, solutions map[string][]byte) {
	if r == nil || r.delta == nil {
		return "", "", nil
	}
	return r.delta.libFP, r.delta.optHash, r.delta.solutions
}

// NewSolutionSeed builds a Result usable as MapDelta's prev from
// externally transported solutions — the coordinator half of a sharded
// run. Only the delta seed is populated; the other Result fields are
// zero. MapDelta validates the identity pair wholesale and every
// individual solution exhaustively before replaying it, so a wrong,
// corrupt or missing entry degrades that cone to a local solve — it can
// never change the assembled netlist, only how much work assembly does.
func NewSolutionSeed(libFP, optHash string, solutions map[string][]byte) *Result {
	return &Result{delta: &deltaState{libFP: libFP, optHash: optHash, solutions: solutions}}
}
