// Command gfmfuzz is the differential fuzzing driver for the mapping
// pipeline: it generates seeded random networks, maps each across the
// full option matrix (worker counts, hazard cache none/cold/warm, context
// on/off, store cold/warm) in both modes, and asserts the pipeline's
// invariants — byte-identical netlists, deterministic stats, well-formed
// netlists, functional equivalence, hazard non-introduction, parser round
// trips.
//
// Failing designs are shrunk to minimal reproducers and written to
// -out (testdata/regressions by default). Exit status is non-zero when
// any invariant is violated, so CI can run it as a gate:
//
//	gfmfuzz -seeds 200
//	gfmfuzz -replay testdata/regressions   # re-check the corpus
//	gfmfuzz -seeds 50 -fleet               # add the fleet-vs-local serving axis
//	gfmfuzz -seeds 50 -synth               # fuzz the spec-to-silicon pipeline
//
// With -fleet, every design is additionally mapped through an
// in-process fleet (coordinator + workers + a single-process twin, see
// internal/server.StartInProcessFleet) and the served results must be
// byte-identical — the distributed-dispatch determinism bar from
// docs/SERVING.md.
//
// With -synth, the generator produces random burst-mode machines instead
// of random networks and drives each through the whole synthesis
// pipeline (bmspec → hfmin → core.Map → dsim evidence) across its option
// matrix: netlists and evidence must be byte-identical on every variant,
// and the mapped netlist must simulate hazard-free on every specified
// transition. Failing machines are written as .bm reproducers, which
// -replay re-checks alongside the .eqn corpus.
//
// See docs/FUZZING.md for the full workflow.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gfmap/internal/bmspec"
	"gfmap/internal/core"
	"gfmap/internal/diffcheck"
	"gfmap/internal/eqn"
	"gfmap/internal/library"
	"gfmap/internal/network"
	"gfmap/internal/obs"
	"gfmap/internal/server"
)

func main() {
	var (
		seeds    = flag.Int("seeds", 200, "number of random designs to check")
		seed0    = flag.Uint64("seed0", 1, "first seed (seeds are seed0..seed0+seeds-1)")
		libName  = flag.String("lib", "LSI9K", "target cell library")
		inputs   = flag.Int("inputs", 6, "primary inputs per generated design")
		nodes    = flag.Int("nodes", 10, "internal nodes per generated design")
		fanin    = flag.Int("fanin", 4, "max distinct fanins per node")
		mode     = flag.String("mode", "both", "modes to check: both, sync or async")
		outDir   = flag.String("out", "testdata/regressions", "directory for minimised reproducers")
		minimize = flag.Bool("minimize", true, "shrink failing designs before writing them")
		budget   = flag.Int("shrink-budget", 400, "max predicate evaluations per minimisation")
		maxFail  = flag.Int("maxfail", 5, "stop after this many failing seeds (0 = never)")
		replay   = flag.String("replay", "", "instead of generating, re-check every .eqn design in this directory")
		metrics  = flag.Bool("metrics", false, "print the harness metrics snapshot at the end")
		nostore  = flag.Bool("nostore", false, "skip the persistent-store axes of the option matrix")
		fleetOn  = flag.Bool("fleet", false, "add the fleet axis: map every design through an in-process fleet coordinator and a single-process server; results must be byte-identical")
		fleetN   = flag.Int("fleet-workers", 2, "workers in the in-process fleet (with -fleet)")
		synthOn  = flag.Bool("synth", false, "fuzz the spec-to-silicon pipeline: generate burst-mode machines and check synthesis determinism plus hazard-freedom evidence")
		trials   = flag.Int("trials", 0, "with -synth: random-delay evidence trials per transition (0 = harness default)")
		verbose  = flag.Bool("v", false, "log every seed")
	)
	flag.Parse()

	lib, err := library.Get(*libName)
	if err != nil {
		fatal(err)
	}
	opts := diffcheck.Options{Lib: lib, Modes: modesFor(*mode), SkipStoreAxes: *nostore}
	synthOpts := diffcheck.SynthOptions{Lib: lib, Trials: *trials, SkipStoreAxes: *nostore}
	if *fleetOn {
		f, err := server.StartInProcessFleet(*fleetN, server.Config{Libraries: []string{*libName}})
		if err != nil {
			fatal(fmt.Errorf("start fleet axis: %w", err))
		}
		defer f.Close()
		opts.FleetMap = fleetMapHook(f, *libName)
	}
	reg := obs.NewRegistry()

	if *replay != "" {
		os.Exit(replayDir(*replay, opts, synthOpts, reg, *metrics))
	}
	if *synthOn {
		os.Exit(synthLoop(*seeds, *seed0, synthOpts, *outDir, *maxFail, *verbose, reg, *metrics))
	}

	cfg := diffcheck.GenConfig{Inputs: *inputs, Nodes: *nodes, MaxFanin: *fanin}
	failures := 0
	for i := 0; i < *seeds; i++ {
		seed := *seed0 + uint64(i)
		net := diffcheck.Generate(seed, cfg)
		rep := diffcheck.Check(net, opts)
		rep.Publish(reg)
		if *verbose {
			fmt.Fprintf(os.Stderr, "seed %d: %d nodes, mapped=%v, violations=%d\n",
				seed, net.NumNodes(), rep.MappedModes, len(rep.Violations))
		}
		if !rep.Failed() {
			continue
		}
		failures++
		fmt.Fprintf(os.Stderr, "seed %d FAILED (%s):\n", seed, strings.Join(rep.Kinds(), ", "))
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "  %s\n", firstLine(v.String()))
		}
		final := rep
		if *minimize {
			kinds := rep.Kinds()
			shrunk := diffcheck.Minimize(net, func(cand *network.Network) bool {
				r := diffcheck.Check(cand, opts)
				for _, k := range kinds {
					if r.HasKind(k) {
						return true
					}
				}
				return false
			}, *budget)
			final = diffcheck.Check(shrunk, opts)
			if !final.Failed() { // should not happen: Minimize preserves failure
				final = rep
			}
		}
		path, werr := diffcheck.WriteReproducer(*outDir, seed, final)
		if werr != nil {
			fmt.Fprintf(os.Stderr, "  write reproducer: %v\n", werr)
		} else {
			fmt.Fprintf(os.Stderr, "  reproducer: %s (%d nodes)\n", path, final.Design.NumNodes())
		}
		if *maxFail > 0 && failures >= *maxFail {
			fmt.Fprintf(os.Stderr, "stopping after %d failing seeds\n", failures)
			break
		}
	}

	snap := reg.Snapshot()
	if *metrics {
		fmt.Print(snap.Format(""))
	}
	fmt.Printf("gfmfuzz: %d designs, %d mapped (design,mode) pairs, %d violations, %d failing seeds\n",
		snap.Counters[diffcheck.MetricDesigns],
		snap.Counters[diffcheck.MetricMappedModes],
		snap.Counters[diffcheck.MetricViolations],
		failures)
	if failures > 0 {
		os.Exit(1)
	}
}

// synthLoop fuzzes the spec-to-silicon pipeline: seeded random burst-mode
// machines through diffcheck.CheckSynth. Failing machines are written as
// .bm reproducers (machines are already small; there is no shrinker).
func synthLoop(seeds int, seed0 uint64, opts diffcheck.SynthOptions, outDir string, maxFail int, verbose bool, reg *obs.Registry, metrics bool) int {
	failures := 0
	for i := 0; i < seeds; i++ {
		seed := seed0 + uint64(i)
		m := diffcheck.GenerateMachine(seed, diffcheck.MachineConfig{})
		rep := diffcheck.CheckSynth(m, opts)
		rep.Publish(reg)
		if verbose {
			fmt.Fprintf(os.Stderr, "seed %d: %s, %d states, %d edges, violations=%d\n",
				seed, m.Name, len(m.States()), len(m.Edges), len(rep.Violations))
		}
		if !rep.Failed() {
			continue
		}
		failures++
		fmt.Fprintf(os.Stderr, "seed %d FAILED (%s):\n", seed, strings.Join(rep.Kinds(), ", "))
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "  %s\n", firstLine(v.String()))
		}
		path, werr := diffcheck.WriteMachineReproducer(outDir, seed, m, rep)
		if werr != nil {
			fmt.Fprintf(os.Stderr, "  write reproducer: %v\n", werr)
		} else {
			fmt.Fprintf(os.Stderr, "  reproducer: %s\n", path)
		}
		if maxFail > 0 && failures >= maxFail {
			fmt.Fprintf(os.Stderr, "stopping after %d failing seeds\n", failures)
			break
		}
	}
	snap := reg.Snapshot()
	if metrics {
		fmt.Print(snap.Format(""))
	}
	fmt.Printf("gfmfuzz: %d machines, %d violations, %d failing seeds\n",
		seeds, snap.Counters[diffcheck.MetricViolations], failures)
	if failures > 0 {
		return 1
	}
	return 0
}

// replayDir re-checks every .eqn (mapping) and .bm (synthesis pipeline)
// file of a reproducer corpus; all of them must pass (their bugs are
// fixed) for exit status 0.
func replayDir(dir string, opts diffcheck.Options, synthOpts diffcheck.SynthOptions, reg *obs.Registry, metrics bool) int {
	paths, err := filepath.Glob(filepath.Join(dir, "*.eqn"))
	if err != nil {
		fatal(err)
	}
	bmPaths, err := filepath.Glob(filepath.Join(dir, "*.bm"))
	if err != nil {
		fatal(err)
	}
	sort.Strings(paths)
	sort.Strings(bmPaths)
	if len(paths)+len(bmPaths) == 0 {
		fmt.Printf("gfmfuzz: no .eqn or .bm designs under %s\n", dir)
		return 0
	}
	bad := 0
	report := func(p string, rep *diffcheck.Report) {
		rep.Publish(reg)
		if rep.Failed() {
			bad++
			fmt.Fprintf(os.Stderr, "%s: %d violations (%s)\n", p, len(rep.Violations), strings.Join(rep.Kinds(), ", "))
			for _, v := range rep.Violations {
				fmt.Fprintf(os.Stderr, "  %s\n", firstLine(v.String()))
			}
		} else {
			fmt.Printf("%s: ok\n", p)
		}
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			fatal(err)
		}
		net, err := eqn.ParseString(string(data), filepath.Base(p))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: parse: %v\n", p, err)
			bad++
			continue
		}
		report(p, diffcheck.Check(net, opts))
	}
	for _, p := range bmPaths {
		data, err := os.ReadFile(p)
		if err != nil {
			fatal(err)
		}
		m, err := bmspec.ParseString(string(data))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: parse: %v\n", p, err)
			bad++
			continue
		}
		report(p, diffcheck.CheckSynth(m, synthOpts))
	}
	if metrics {
		fmt.Print(reg.Snapshot().Format(""))
	}
	fmt.Printf("gfmfuzz: replayed %d reproducers, %d failing\n", len(paths)+len(bmPaths), bad)
	if bad > 0 {
		return 1
	}
	return 0
}

// fleetMapHook adapts the in-process fleet to diffcheck's FleetMap
// contract: the same serialized design text goes through the coordinator
// and the single-process local twin, and the axis requires the two
// responses to agree byte-for-byte.
func fleetMapHook(f *server.InProcessFleet, libName string) diffcheck.FleetMapFunc {
	return func(net *network.Network, mode core.Mode) (*diffcheck.FleetOutcome, error) {
		req := server.MapRequest{
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

func modesFor(s string) []core.Mode {
	switch s {
	case "both", "":
		return nil
	case "sync":
		return []core.Mode{core.Sync}
	case "async":
		return []core.Mode{core.Async}
	default:
		fatal(fmt.Errorf("unknown -mode %q (want both, sync or async)", s))
		return nil
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " ..."
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gfmfuzz:", err)
	os.Exit(1)
}
