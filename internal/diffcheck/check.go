package diffcheck

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"gfmap/internal/blif"
	"gfmap/internal/core"
	"gfmap/internal/eqn"
	"gfmap/internal/hazcache"
	"gfmap/internal/library"
	"gfmap/internal/mapstore"
	"gfmap/internal/network"
)

// Violation kinds reported by Check. Each kind maps to one invariant of
// the mapping pipeline.
const (
	// KindPanic: a panic escaped core.Map (or surfaced as ErrInternal).
	KindPanic = "panic"
	// KindMapError: variants disagree on whether/how mapping fails.
	KindMapError = "map-error"
	// KindByteIdentity: emitted netlists differ across cache/index/worker
	// axes that are documented to be semantically transparent.
	KindByteIdentity = "byte-identity"
	// KindStats: the deterministic stats view differs across variants
	// that must agree on it.
	KindStats = "stats"
	// KindNetlist: the netlist is malformed (undriven or doubly driven
	// signals, unresolved loads, cycles).
	KindNetlist = "netlist"
	// KindEquivalence: the mapping changed the Boolean function.
	KindEquivalence = "equivalence"
	// KindHazard: asynchronous mapping introduced a hazard a cone did not
	// already have (violates Theorems 3.1/3.2).
	KindHazard = "hazard"
	// KindRoundTrip: eqn/BLIF write→parse does not preserve the design.
	KindRoundTrip = "round-trip"
	// KindStore: the persistent mapping store violated its coherence
	// contract — a warm run missed entries its own cold run just wrote.
	KindStore = "store"
)

// Violation is one failed invariant.
type Violation struct {
	Kind    string // one of the Kind* constants
	Mode    string // "sync" or "async" ("" for mode-independent checks)
	Variant string // option-matrix variant that exposed it
	Detail  string
}

func (v Violation) String() string {
	mode := v.Mode
	if mode == "" {
		mode = "-"
	}
	return fmt.Sprintf("[%s] mode=%s variant=%s: %s", v.Kind, mode, v.Variant, v.Detail)
}

// Options configures a differential check. The zero value is not usable:
// Lib is required (library.Get a builtin).
type Options struct {
	// Lib is the target cell library.
	Lib *library.Library
	// Modes to exercise; nil means both Sync and Async.
	Modes []core.Mode
	// Workers is the parallel worker count tested against the serial
	// baseline; 0 means 4.
	Workers int
	// SkipVerify disables the semantic oracles (equivalence, hazard
	// safety, round trips), keeping only the differential and
	// well-formedness checks. Used by tight fuzz loops on large designs.
	SkipVerify bool
	// SkipStoreAxes drops the storecold/storewarm variants from the
	// matrix, reverting to the pre-store matrix. For A/B measurement of
	// the fuzz budget; the axes are on by default because stale-key and
	// invalidation bugs are exactly what differential fuzzing flushes out.
	SkipStoreAxes bool
	// MaxBurst and Objective are forwarded to every variant.
	MaxBurst  int
	Objective core.Objective
	// FleetMap, when non-nil, adds the fleet axis: every checked design is
	// also mapped through a fleet coordinator and a single-process server
	// fed the identical serialized request, and the pair must agree
	// byte-for-byte (see fleet.go). Wired up by cmd/gfmfuzz -fleet.
	FleetMap FleetMapFunc
}

// Report is the outcome of checking one design across the option matrix.
type Report struct {
	Design     *network.Network
	Violations []Violation
	// MappedModes lists the modes whose baseline run mapped successfully;
	// designs the library genuinely cannot cover are not violations as
	// long as every variant agrees on the failure.
	MappedModes []string
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

func (r *Report) add(kind, mode, variant, detail string) {
	r.Violations = append(r.Violations, Violation{Kind: kind, Mode: mode, Variant: variant, Detail: detail})
}

// variant is one point of the option matrix. Every variant of a mode must
// produce a byte-identical netlist and agree on Stats.Deterministic().
type variant struct {
	name string
	opts func(core.Options) core.Options
	ctx  context.Context
}

func matrix(workers int, store *mapstore.Store) []variant {
	// The hazard-cache axes: cache fills a private, empty cache and
	// cachewarm maps again against it, so its lookups hit.
	cache := hazcache.New(0)
	withCache := func(o core.Options) core.Options { o.Workers = 1; o.HazardCache = cache; return o }
	vars := []variant{
		{name: "serial",
			opts: func(o core.Options) core.Options { o.Workers = 1; return o }},
		{name: "workers",
			opts: func(o core.Options) core.Options { o.Workers = workers; return o }},
		{name: "cache", opts: withCache},
		{name: "cachewarm", opts: withCache},
		{name: "ctx", ctx: context.Background(),
			opts: func(o core.Options) core.Options { o.Workers = 1; return o }},
	}
	if store != nil {
		// The persistent-store axes. storecold populates the (private,
		// empty) store; storewarm re-maps against the entries it wrote.
		// Both must be byte-identical to the baseline with identical
		// deterministic stats — this is exactly the harness shape that
		// flushes out stale-key and invalidation bugs.
		withStore := func(o core.Options) core.Options { o.Workers = 1; o.Store = store; return o }
		vars = append(vars,
			variant{name: "storecold", opts: withStore},
			variant{name: "storewarm", opts: withStore},
		)
	}
	return vars
}

// outcome is one variant's mapping result.
type outcome struct {
	variant variant
	res     *core.Result
	err     error
}

// Check maps the design across the option matrix and asserts every
// invariant. It never panics on any input: harness-level recovery records
// an escaped panic as a KindPanic violation.
func Check(net *network.Network, opts Options) *Report {
	rep := &Report{Design: net}
	if opts.Lib == nil {
		rep.add(KindMapError, "", "config", "no library configured")
		return rep
	}
	if err := net.Validate(); err != nil {
		rep.add(KindMapError, "", "generator", "generated network invalid: "+err.Error())
		return rep
	}
	modes := opts.Modes
	if modes == nil {
		modes = []core.Mode{core.Sync, core.Async}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 4
	}
	if !opts.SkipVerify {
		checkRoundTrips(net, rep)
	}
	for _, mode := range modes {
		checkMode(net, mode, workers, opts, rep)
		if opts.FleetMap != nil {
			// The fleet axis runs even when the matrix baseline failed:
			// fleet and local must agree on the failure too.
			checkFleet(net, mode, opts, rep)
		}
	}
	return rep
}

func checkMode(net *network.Network, mode core.Mode, workers int, opts Options, rep *Report) {
	ms := mode.String()
	base := core.Options{
		Mode:      mode,
		Objective: opts.Objective,
		MaxBurst:  opts.MaxBurst,
	}
	// Each mode gets a private, empty store so the cold/warm split is
	// controlled by the matrix, not by whatever ran before.
	var store *mapstore.Store
	if !opts.SkipStoreAxes {
		store = mapstore.NewMemory(0)
	}
	vars := matrix(workers, store)
	outs := make([]outcome, 0, len(vars))
	for _, v := range vars {
		res, err := safeMap(v.ctx, net, opts.Lib, v.opts(base))
		if err != nil && errors.Is(err, core.ErrInternal) {
			rep.add(KindPanic, ms, v.name, err.Error())
		}
		outs = append(outs, outcome{variant: v, res: res, err: err})
	}

	baseline := outs[0]
	if baseline.err != nil {
		// The design is unmappable under this library: not a violation by
		// itself (unless internal), but every variant must agree.
		for _, o := range outs[1:] {
			if o.err == nil {
				rep.add(KindMapError, ms, o.variant.name,
					fmt.Sprintf("variant mapped successfully but baseline failed with: %v", baseline.err))
			} else if o.err.Error() != baseline.err.Error() {
				rep.add(KindMapError, ms, o.variant.name,
					fmt.Sprintf("error differs from baseline: %q vs %q", o.err, baseline.err))
			}
		}
		return
	}
	rep.MappedModes = append(rep.MappedModes, ms)

	baseNl := baseline.res.Netlist.String()
	baseStats := baseline.res.Stats.Deterministic()
	for _, o := range outs[1:] {
		if o.err != nil {
			rep.add(KindMapError, ms, o.variant.name,
				fmt.Sprintf("baseline mapped but variant failed: %v", o.err))
			continue
		}
		if nl := o.res.Netlist.String(); nl != baseNl {
			rep.add(KindByteIdentity, ms, o.variant.name,
				fmt.Sprintf("netlist differs from serial baseline:\n--- baseline ---\n%s--- %s ---\n%s", baseNl, o.variant.name, nl))
		}
		if st := o.res.Stats.Deterministic(); st != baseStats {
			rep.add(KindStats, ms, o.variant.name,
				fmt.Sprintf("deterministic stats differ: %+v vs baseline %+v", st, baseStats))
		}
		// Store coherence: a warm run over the very store its cold twin
		// filled must hit on every cone. A shortfall is a key-derivation or
		// invalidation bug even when the netlist happens to match.
		if st := o.res.Stats; o.variant.name == "storewarm" && st.StoreHits != st.Cones {
			rep.add(KindStore, ms, o.variant.name,
				fmt.Sprintf("warm store hit %d of %d cones", st.StoreHits, st.Cones))
		}
	}

	checkWellFormed(baseline.res, net, ms, rep)
	if !opts.SkipVerify {
		if err := core.VerifyEquivalence(net, baseline.res.Netlist); err != nil {
			rep.add(KindEquivalence, ms, "serial", err.Error())
		}
		if mode == core.Async {
			srep, err := core.VerifyHazardSafety(net, baseline.res.Netlist)
			if err != nil {
				rep.add(KindHazard, ms, "serial", "hazard safety verification failed: "+err.Error())
			} else if !srep.Clean() {
				rep.add(KindHazard, ms, "serial",
					fmt.Sprintf("%s; %s", srep.String(), strings.Join(srep.Details, "; ")))
			}
		}
	}
}

// safeMap invokes the mapper with a harness-level panic backstop. Map
// already converts pipeline panics to ErrInternal; anything the backstop
// catches is a bug in that boundary itself.
func safeMap(ctx context.Context, net *network.Network, lib *library.Library, o core.Options) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: panic escaped core.Map: %v", core.ErrInternal, r)
		}
	}()
	if ctx != nil {
		return core.MapContext(ctx, net, lib, o)
	}
	return core.Map(net, lib, o)
}

// checkWellFormed asserts netlist structural invariants beyond
// Netlist.Validate: single drivers, resolved loads, acyclicity (via
// Delay's topological sort), and output coverage.
func checkWellFormed(res *core.Result, net *network.Network, mode string, rep *Report) {
	nl := res.Netlist
	if err := nl.Validate(); err != nil {
		rep.add(KindNetlist, mode, "serial", "netlist validation: "+err.Error())
	}
	if _, err := nl.Delay(); err != nil {
		rep.add(KindNetlist, mode, "serial", "netlist not acyclic: "+err.Error())
	}
	inputs := make(map[string]bool, len(net.Inputs))
	for _, in := range net.Inputs {
		inputs[in] = true
	}
	drivers := make(map[string]int)
	for _, g := range nl.Gates {
		drivers[g.Out]++
		if inputs[g.Out] {
			rep.add(KindNetlist, mode, "serial", "gate drives primary input "+g.Out)
		}
	}
	for sig, n := range drivers {
		if n > 1 {
			rep.add(KindNetlist, mode, "serial",
				fmt.Sprintf("signal %s driven by %d gates", sig, n))
		}
	}
	for _, g := range nl.Gates {
		for _, pin := range g.Pins {
			if !inputs[pin] && drivers[pin] == 0 {
				rep.add(KindNetlist, mode, "serial",
					fmt.Sprintf("gate %s input %s is neither a primary input nor driven", g.Out, pin))
			}
		}
	}
	for _, out := range net.Outputs {
		if !inputs[out] && drivers[out] == 0 {
			rep.add(KindNetlist, mode, "serial", "primary output "+out+" is undriven")
		}
	}
}

// checkRoundTrips asserts that the eqn and BLIF writers emit text their
// parsers accept and that the reparsed network is equivalent — the
// foundation the reproducer corpus (and every CLI pipeline) rests on.
func checkRoundTrips(net *network.Network, rep *Report) {
	if len(net.Inputs) > 16 {
		return // exhaustive equivalence would not be cheap
	}
	src := eqn.WriteString(net)
	re, err := eqn.ParseString(src, net.Name)
	if err != nil {
		rep.add(KindRoundTrip, "", "eqn", "reparse failed: "+err.Error()+"\n"+src)
	} else if eq, err := network.Equivalent(net, re); err != nil {
		rep.add(KindRoundTrip, "", "eqn", "equivalence check failed: "+err.Error())
	} else if !eq {
		rep.add(KindRoundTrip, "", "eqn", "reparsed network differs:\n"+src)
	}
	bsrc, err := blif.WriteString(net)
	if err != nil {
		rep.add(KindRoundTrip, "", "blif", "write failed: "+err.Error())
		return
	}
	rb, err := blif.Parse(strings.NewReader(bsrc), net.Name)
	if err != nil {
		rep.add(KindRoundTrip, "", "blif", "reparse failed: "+err.Error()+"\n"+bsrc)
	} else if eq, err := network.Equivalent(net, rb); err != nil {
		rep.add(KindRoundTrip, "", "blif", "equivalence check failed: "+err.Error())
	} else if !eq {
		rep.add(KindRoundTrip, "", "blif", "reparsed network differs:\n"+bsrc)
	}
}
