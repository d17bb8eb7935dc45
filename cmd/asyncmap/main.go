// Command asyncmap is the hazard-aware technology mapper: it reads a
// technology-independent logic network (eqn or BLIF format), maps it onto
// a cell library, and writes the mapped netlist with area/delay statistics.
//
// Usage:
//
//	asyncmap -lib LSI9K [-mode async|sync] [-depth 5] [-verify] design.eqn
//	asyncmap -libfile mylib.genlib design.blif
//	asyncmap -trace out.json -events out.jsonl -hist design.eqn
//	asyncmap -cpuprofile cpu.pprof big-design.eqn
//	asyncmap -spec [-trials 8] [-evidence ev.json] [-vcd] machine.bm
//
// With no positional argument the network is read from standard input in
// eqn format.
//
// With -spec (or a .bm input file) the input is a burst-mode machine
// specification and asyncmap runs the full spec-to-silicon pipeline:
// synthesize hazard-free two-level logic, technology map it (async mode),
// and simulate every specified transition on the mapped netlist to
// produce a hazard-freedom certificate. The mapped netlist goes to
// standard output exactly as in mapping mode — byte-identical to what
// asyncmapd's POST /synth returns for the same spec, library and seed —
// followed by "#"-prefixed evidence summary lines; -evidence writes the
// full evidence JSON to a file ("-" for stdout, for use with -q). The
// exit status is 2 when the certificate fails. See docs/SYNTHESIS.md.
//
// Stream contract: the mapped netlist (or Verilog) is the only
// machine-parseable payload on standard output, optionally followed by
// "#"-prefixed comment lines (text statistics, -hist histograms, -path
// report) that netlist parsers skip. When -stats json is combined with
// netlist output on stdout, the stats JSON object is written to standard
// error, so `asyncmap -stats json design.eqn > mapped.net` leaves
// mapped.net parseable and the JSON separable via 2>stats.json. With -q
// (no netlist) the JSON goes to stdout.
//
// Observability: -trace writes a Chrome trace-event JSON file of the
// whole pipeline (load it at https://ui.perfetto.dev — one track per DP
// worker), -events writes the same records as grep/jq-friendly JSONL,
// -hist prints metric histograms (hazard-analysis latency, cuts per
// node, cluster leaf widths), and -cpuprofile writes a runtime/pprof CPU
// profile of the whole run to a file, with per-worker and per-cone labels
// on the covering work (go tool pprof -tags cpu.pprof). The profile is
// stopped and flushed on every exit, failures included. A live heap of a
// long run goes through asyncmapd's -pprof. See docs/OBSERVABILITY.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"gfmap/internal/blif"
	"gfmap/internal/core"
	"gfmap/internal/eqn"
	"gfmap/internal/library"
	"gfmap/internal/mapstore"
	"gfmap/internal/network"
	"gfmap/internal/obs"
	"gfmap/internal/synth"
)

func main() {
	libName := flag.String("lib", "LSI9K", "built-in library: LSI9K, CMOS3, GDT or Actel")
	libFile := flag.String("libfile", "", "library file in the GATE format (overrides -lib)")
	mode := flag.String("mode", "async", "mapping mode: async (hazard-aware) or sync")
	depth := flag.Int("depth", 5, "maximum match-cluster depth")
	leaves := flag.Int("leaves", 6, "maximum match-cluster inputs")
	objective := flag.String("objective", "area", "covering objective: area or delay")
	workers := flag.Int("workers", 0, "parallel covering workers; 0 = one per CPU, 1 = serial (result is deterministic either way)")
	maxBurst := flag.Int("maxburst", 0, "hazard don't-cares: ignore cell hazards on bursts wider than this (0 = off)")
	verify := flag.Bool("verify", false, "verify functional equivalence and per-cone hazard safety")
	quiet := flag.Bool("q", false, "print statistics only, not the netlist")
	format := flag.String("o", "netlist", "output format: netlist or verilog")
	showPath := flag.Bool("path", false, "print the critical path")
	statsFmt := flag.String("stats", "text", "statistics format: text or json (json goes to stderr when the netlist is on stdout)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file of the pipeline (open in Perfetto)")
	eventsOut := flag.String("events", "", "write the span/event log as JSONL to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file, with worker/cone labels on the covering work (go tool pprof)")
	hist := flag.Bool("hist", false, "print metric histograms (hazard latency, cuts/node, cluster widths) as comment lines")
	storePath := flag.String("store", "", "persistent cone-solution store file; a warm store skips the covering DP for unchanged cones (results are byte-identical)")
	specMode := flag.Bool("spec", false, "treat the input as a burst-mode specification and run the spec-to-silicon pipeline (implied by a .bm input file)")
	trials := flag.Int("trials", 0, "with -spec: random-delay evidence trials per transition (0 = default, capped)")
	evidenceSeed := flag.Uint64("seed", 0, "with -spec: base seed of the evidence delay RNG")
	evidenceOut := flag.String("evidence", "", "with -spec: write the hazard-freedom evidence JSON to this file (- for stdout; combine with -q)")
	withVCD := flag.Bool("vcd", false, "with -spec: attach a VCD waveform dump to each transition's evidence")
	flag.Parse()

	if *cpuProfile != "" {
		startCPUProfile(*cpuProfile)
		defer stopProfile()
	}
	if *statsFmt != "text" && *statsFmt != "json" {
		fatal(fmt.Errorf("unknown stats format %q", *statsFmt))
	}
	lib, err := loadLibrary(*libName, *libFile)
	if err != nil {
		fatal(err)
	}
	opts := core.Options{MaxDepth: *depth, MaxLeaves: *leaves, Workers: *workers,
		MaxBurst: *maxBurst, ProfileLabels: *cpuProfile != ""}
	switch *objective {
	case "area":
		opts.Objective = core.MinArea
	case "delay":
		opts.Objective = core.MinDelay
	default:
		fatal(fmt.Errorf("unknown objective %q", *objective))
	}
	switch *mode {
	case "async":
		opts.Mode = core.Async
	case "sync":
		opts.Mode = core.Sync
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	if *traceOut != "" || *eventsOut != "" {
		opts.Tracer = obs.NewTracer(0)
	}
	if *hist {
		opts.Metrics = obs.NewRegistry()
	}
	if *storePath != "" {
		store, err := mapstore.Open(*storePath, mapstore.Options{})
		if err != nil {
			fatal(fmt.Errorf("open store %s: %w", *storePath, err))
		}
		defer store.Close()
		opts.Store = store
	}
	if *specMode || strings.HasSuffix(flag.Arg(0), ".bm") {
		runSpec(flag.Arg(0), lib, opts, specRun{
			trials: *trials, seed: *evidenceSeed, vcd: *withVCD,
			evidenceOut: *evidenceOut, quiet: *quiet, format: *format,
		})
		return
	}
	net, err := readNetwork(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	res, err := core.Map(net, lib, opts)
	if err != nil {
		fatal(err)
	}
	if *traceOut != "" {
		if err := writeFileWith(*traceOut, opts.Tracer.WriteChromeTrace); err != nil {
			fatal(err)
		}
	}
	if *eventsOut != "" {
		if err := writeFileWith(*eventsOut, opts.Tracer.WriteJSONL); err != nil {
			fatal(err)
		}
	}
	netlistOnStdout := !*quiet
	if netlistOnStdout {
		switch *format {
		case "netlist":
			fmt.Print(res.Netlist)
		case "verilog":
			text, err := res.Netlist.VerilogString()
			if err != nil {
				fatal(err)
			}
			fmt.Print(text)
		default:
			fatal(fmt.Errorf("unknown output format %q", *format))
		}
	}
	if *showPath {
		report, err := res.Netlist.FormatCriticalPath()
		if err != nil {
			fatal(err)
		}
		fmt.Print(report)
	}
	switch *statsFmt {
	case "json":
		// Stream contract: keep stdout machine-parseable when it carries
		// the netlist — the stats object then goes to stderr.
		statsW := io.Writer(os.Stdout)
		if netlistOnStdout {
			statsW = os.Stderr
		}
		if err := printStatsJSON(statsW, *mode, lib.Name, res); err != nil {
			fatal(err)
		}
	case "text":
		printStatsText(*mode, lib.Name, res)
	}
	if *hist {
		fmt.Print(opts.Metrics.Snapshot().Format("# "))
	}
	if *verify {
		if err := core.VerifyEquivalence(net, res.Netlist); err != nil {
			fatal(err)
		}
		rep, err := core.VerifyHazardSafety(net, res.Netlist)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# verify: equivalent; hazard safety: %s\n", rep)
		if !rep.Clean() {
			for _, d := range rep.Details {
				fmt.Println("#   " + d)
			}
			exit(2)
		}
	}
}

// specRun bundles the -spec pipeline's knobs.
type specRun struct {
	trials      int
	seed        uint64
	vcd         bool
	evidenceOut string
	quiet       bool
	format      string
}

// runSpec drives the spec-to-silicon pipeline over a burst-mode
// specification: synthesize, map, simulate. The mapped netlist is printed
// exactly as in mapping mode (byte-identical to asyncmapd's /synth for
// the same spec, library and seed); the evidence summary trails it as
// comment lines. Exit status 2 means the pipeline ran but the mapped
// netlist failed its hazard-freedom certificate.
func runSpec(path string, lib *library.Library, mapOpts core.Options, cfg specRun) {
	text, err := readSpecText(path)
	if err != nil {
		fatal(err)
	}
	res, err := synth.Run(context.Background(), text, synth.Options{
		Library: lib,
		Map:     mapOpts,
		Trials:  cfg.trials,
		Seed:    cfg.seed,
		WithVCD: cfg.vcd,
	})
	if err != nil {
		fatal(err)
	}
	if !cfg.quiet {
		switch cfg.format {
		case "netlist":
			fmt.Print(res.Mapped.Netlist)
		case "verilog":
			text, err := res.Mapped.Netlist.VerilogString()
			if err != nil {
				fatal(err)
			}
			fmt.Print(text)
		default:
			fatal(fmt.Errorf("unknown output format %q", cfg.format))
		}
	}
	m, ev := res.Machine, res.Evidence
	fmt.Printf("# spec=%s states=%d edges=%d library=%s gates=%d area=%g delay=%.2fns\n",
		m.Name, len(m.States()), len(m.Edges), lib.Name,
		res.Mapped.Netlist.GateCount(), res.Mapped.Area, res.Mapped.Delay)
	fmt.Printf("# evidence: transitions=%d trials=%d seed=%d hazard_free=%v settled=%v\n",
		len(ev.Transitions), ev.Trials, ev.Seed, ev.HazardFree, ev.Settled)
	fmt.Printf("# phases: synthesize=%s map=%s simulate=%s\n",
		res.Durations.Synthesize.Round(time.Microsecond),
		res.Durations.Map.Round(time.Microsecond),
		res.Durations.Simulate.Round(time.Microsecond))
	if cfg.evidenceOut != "" {
		data, err := json.Marshal(ev)
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		if cfg.evidenceOut == "-" {
			_, err = os.Stdout.Write(data)
		} else {
			err = os.WriteFile(cfg.evidenceOut, data, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if !ev.HazardFree || !ev.Settled {
		fmt.Fprintln(os.Stderr, "asyncmap: hazard-freedom certificate FAILED")
		exit(2)
	}
}

func readSpecText(path string) (string, error) {
	if path == "" {
		data, err := io.ReadAll(os.Stdin)
		return string(data), err
	}
	data, err := os.ReadFile(path)
	return string(data), err
}

// writeFileWith streams an exporter into a freshly created file.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printStatsText writes the run summary as "#"-prefixed comment lines, so
// the statistics can trail a netlist without breaking downstream parsers.
func printStatsText(mode, libName string, res *core.Result) {
	st := res.Stats
	fmt.Printf("# mode=%s library=%s gates=%d area=%g delay=%.2fns\n",
		mode, libName, res.Netlist.GateCount(), res.Area, res.Delay)
	fmt.Printf("# cones=%d clusters=%d matches=%d hazardous=%d rejected=%d\n",
		st.Cones, st.ClustersEnumerated, st.MatchesFound,
		st.HazardousMatches, st.MatchesRejected)
	fmt.Printf("# matching: finds=%d index probes=%d cells skipped=%d symmetry pruned=%d\n",
		st.FindInvocations, st.IndexProbes, st.IndexSkippedCells, st.SymmetryPruned)
	fmt.Printf("# hazard analyses=%d cache: local=%d fresh=%d hit-rate=%.1f%%\n",
		st.HazardAnalyses(), st.HazCacheLocalHits, st.HazCacheMisses, 100*st.HazCacheHitRate())
	if st.StoreHits+st.StoreMisses > 0 {
		fmt.Printf("# store: hits=%d misses=%d (cones whose covering DP was replayed from the store)\n",
			st.StoreHits, st.StoreMisses)
	}
	fmt.Printf("# phases: decompose=%s partition=%s cover=%s emit=%s\n",
		st.DecomposeTime.Round(time.Microsecond), st.PartitionTime.Round(time.Microsecond),
		st.CoverTime.Round(time.Microsecond), st.EmitTime.Round(time.Microsecond))
	if st.CutTruncations > 0 {
		fmt.Printf("# warning: cut enumeration truncated at %d node(s); pathological cones may be mapped suboptimally (lower -depth/-leaves to silence)\n",
			st.CutTruncations)
	}
}

// printStatsJSON writes the run summary as one JSON object.
func printStatsJSON(w io.Writer, mode, libName string, res *core.Result) error {
	out := struct {
		Mode    string
		Library string
		Gates   int
		Area    float64
		Delay   float64
		Stats   core.Stats
	}{mode, libName, res.Netlist.GateCount(), res.Area, res.Delay, res.Stats}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func readNetwork(path string) (*network.Network, error) {
	if path == "" {
		return eqn.Parse(os.Stdin, "stdin")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	if strings.HasSuffix(path, ".blif") {
		return blif.Parse(f, name)
	}
	return eqn.Parse(f, name)
}

func loadLibrary(name, file string) (*library.Library, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		lib, err := library.Parse(f)
		if err != nil {
			return nil, err
		}
		if err := lib.Annotate(); err != nil {
			return nil, err
		}
		return lib, nil
	}
	return library.Get(name)
}

// stopProfile stops and flushes the -cpuprofile profile; a no-op
// without one. Every exit path runs it: a normal return through main's
// defer, the others through exit.
var stopProfile = func() {}

// startCPUProfile starts the -cpuprofile CPU profile into path.
func startCPUProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		fatal(err)
	}
	stopProfile = func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "asyncmap: cpu profile:", err)
		}
	}
}

// exit stops the CPU profile, then exits with the given status.
func exit(code int) {
	stopProfile()
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asyncmap:", err)
	exit(1)
}
