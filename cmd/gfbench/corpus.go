package main

// Inputs and goldens. The program under test only ever sees the eqn and
// spec texts built here: eqn, never BLIF, because BLIF writes a
// contradictory cube such as x5*x5'*x2' as an empty cover that the parser
// reads back as a constant node, which the mapper rejects (README.md,
// "Known bugs").

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"gfmap/internal/bench"
	"gfmap/internal/bexpr"
	"gfmap/internal/bmspec"
	"gfmap/internal/core"
	"gfmap/internal/diffcheck"
	"gfmap/internal/eqn"
	"gfmap/internal/library"
	"gfmap/internal/network"
	"gfmap/internal/synth"
)

// design is one mapping input as the program receives it.
type design struct {
	name string
	eqn  string
}

// spec is one burst-mode specification for POST /synth.
type spec struct {
	name string // golden key prefix for fixed specs, "" for generated ones
	text string
}

func eqnDesign(name string, net *network.Network) design {
	net.Name = name
	return design{name: name, eqn: eqn.WriteString(net)}
}

// paperCorpus is the 15-design corpus: the 11 Table 5 designs plus the 4
// synth-* scaling designs.
func paperCorpus() ([]design, error) {
	ds, err := bench.Designs()
	if err != nil {
		return nil, err
	}
	ss, err := bench.SynthDesigns()
	if err != nil {
		return nil, err
	}
	var out []design
	for _, d := range append(append([]*bench.Design(nil), ds...), ss...) {
		out = append(out, design{name: d.Name, eqn: eqn.WriteString(d.Net)})
	}
	return out, nil
}

// scsiTimes replicates the scsi design k times (k*66 controller slices).
func scsiTimes(k int) (design, error) {
	d, err := bench.DesignByName("scsi")
	if err != nil {
		return design{}, err
	}
	name := fmt.Sprintf("scsi-x%d", k)
	net, err := bench.Replicate(name, d.Net, k, 0, 0)
	if err != nil {
		return design{}, err
	}
	return eqnDesign(name, net), nil
}

// lsiCorpus is map-lsi9k-x10's input set: scsi x4 and x10 for the
// front-end scaling contrast plus a fixed 1000-node random design.
func lsiCorpus() ([]design, error) {
	var out []design
	for _, k := range []int{4, 10} {
		d, err := scsiTimes(k)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	out = append(out, eqnDesign("gen1000", diffcheck.Generate(1000, diffcheck.GenConfig{Inputs: 40, Nodes: 1000})))
	return out, nil
}

// sliceSpecs are the 8 controller-slice specifications behind the paper
// corpus, in name order.
func sliceSpecs() []spec {
	src := bench.SliceSources()
	var out []spec
	for _, n := range bench.SortedSliceNames() {
		out = append(out, spec{name: "spec:" + n, text: src[n]})
	}
	return out
}

// freshDesign is a never-repeating seeded design of 30-58 nodes; the size
// comes from the slot, not the seed, so every block of requests carries
// the same sizes whatever the seed.
func freshDesign(seed uint64, slot int) design {
	net := diffcheck.Generate(seed, diffcheck.GenConfig{Inputs: 8, Nodes: 30 + 2*slot})
	return eqnDesign(fmt.Sprintf("fresh%d", seed), net)
}

// freshSpec is a seeded generated burst-mode machine that /synth can
// complete. Machines that do not synthesise, or whose logic has a constant
// output (the mapper rejects constant nodes, README.md "Known bugs"), are
// skipped: their 4xx answers are not what the workload measures. Three
// steps keep a machine's /synth cost (12-42 ms on 2 CPUs) near the slice
// specs'; at five, machines took 35-146 ms depending on the seed, and
// those few requests set the serve tail.
func freshSpec(seed uint64) spec {
	for s := seed; ; s++ {
		m := diffcheck.GenerateMachine(s, diffcheck.MachineConfig{Length: 3})
		syn, err := bmspec.Synthesize(m)
		if err != nil {
			continue
		}
		constant := false
		for _, n := range syn.Net.NodeNames() {
			constant = constant || hasConst(syn.Net.Node(n).Expr)
		}
		if !constant {
			return spec{text: m.String()}
		}
	}
}

func hasConst(e *bexpr.Expr) bool {
	if e.Op == bexpr.OpConst {
		return true
	}
	for _, k := range e.Kids {
		if hasConst(k) {
			return true
		}
	}
	return false
}

// goldenKey names one fixed mapping.
func goldenKey(design, lib, mode string) string { return design + "|" + lib + "|" + mode }

type goldenEntry struct {
	SHA256 string  `json:"sha256"`
	Area   float64 `json:"area"`
	Delay  float64 `json:"delay"`
	Gates  int     `json:"gates"`
}

type goldens struct {
	Note    string                 `json:"note"`
	Entries map[string]goldenEntry `json:"entries"`
}

//go:embed testdata/golden.json
var goldenJSON []byte

func loadGoldens() (*goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	if len(g.Entries) == 0 {
		return nil, fmt.Errorf("testdata/golden.json has no entries; run gfbench --write-golden")
	}
	return &g, nil
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// check compares one output with its golden: the netlist byte for byte
// (by sha256), area and delay exactly.
func (g *goldens) check(key, netlist string, area, delay float64) error {
	want, ok := g.Entries[key]
	switch {
	case !ok:
		return fmt.Errorf("%s: no golden", key)
	case sha(netlist) != want.SHA256:
		return fmt.Errorf("%s: netlist differs from golden", key)
	case area != want.Area || delay != want.Delay:
		return fmt.Errorf("%s: area/delay %g/%g, golden %g/%g", key, area, delay, want.Area, want.Delay)
	}
	return nil
}

// writeGoldens maps every fixed (design, library, mode) the workloads
// send, verifies each result, and writes the goldens. Every mapping must
// be BDD-equivalent to its input; async mappings must also pass the
// per-cone hazard-safety check (Theorems 3.1/3.2) and, up to
// ternaryMaxInputs inputs, the ternary-simulation safety check. Sync
// mappings are not hazard-safe by design, so they get the equivalence
// check only.
func writeGoldens(path string) error {
	g := goldens{
		Note:    "written by gfbench --write-golden after core.VerifyEquivalence, VerifyHazardSafety and VerifyTernarySafety (up to 8 inputs) passed; sync mappings are checked for equivalence only",
		Entries: map[string]goldenEntry{},
	}
	type job struct {
		d          design
		lib, mode  string
		specSource string
	}
	var jobs []job
	paper, err := paperCorpus()
	if err != nil {
		return err
	}
	for _, d := range paper {
		for _, lib := range library.BuiltinNames {
			for _, mode := range []string{"async", "sync"} {
				jobs = append(jobs, job{d: d, lib: lib, mode: mode})
			}
		}
	}
	lsi, err := lsiCorpus()
	if err != nil {
		return err
	}
	for _, d := range lsi {
		jobs = append(jobs, job{d: d, lib: "LSI9K", mode: "async"})
		if d.name == "scsi-x4" {
			jobs = append(jobs, job{d: d, lib: "Actel", mode: "async"})
		}
	}
	for _, s := range sliceSpecs() {
		jobs = append(jobs, job{d: design{name: s.name}, lib: "Actel", mode: "async", specSource: s.text})
	}
	for _, j := range jobs {
		key := goldenKey(j.d.name, j.lib, j.mode)
		lib, err := library.Get(j.lib)
		if err != nil {
			return err
		}
		var (
			net *network.Network
			res *core.Result
		)
		if j.specSource != "" {
			sr, err := synth.Run(context.Background(), j.specSource, synth.Options{Library: lib})
			if err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			if !sr.Evidence.HazardFree || !sr.Evidence.Settled {
				return fmt.Errorf("%s: hazard-freedom certificate refuted", key)
			}
			net, res = sr.Synthesis.Net, sr.Mapped
		} else {
			if net, err = eqn.ParseString(j.d.eqn, j.d.name); err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			opts := core.Options{Mode: core.Async}
			if j.mode == "sync" {
				opts.Mode = core.Sync
			}
			if res, err = core.Map(net, lib, opts); err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
		}
		if err := verify(net, res, j.mode); err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		g.Entries[key] = goldenEntry{SHA256: sha(res.Netlist.String()), Area: res.Area, Delay: res.Delay, Gates: res.Netlist.GateCount()}
		logf("golden %s: %d gates, verified", key, res.Netlist.GateCount())
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func verify(net *network.Network, res *core.Result, mode string) error {
	if err := core.VerifyEquivalence(net, res.Netlist); err != nil {
		return err
	}
	if mode != "async" {
		return nil
	}
	rep, err := core.VerifyHazardSafety(net, res.Netlist)
	if err != nil {
		return err
	}
	if !rep.Clean() {
		return fmt.Errorf("hazard safety: %s", rep)
	}
	if len(net.Inputs) <= ternaryMaxInputs {
		return core.VerifyTernarySafety(net, res.Netlist)
	}
	return nil
}

// ternaryMaxInputs bounds the whole-network ternary check, which tries
// every static input pair of every output: 4^n work. VerifyTernarySafety
// accepts up to 12 inputs, but on the 10-input, 35-output synth-recon-100
// one check runs for more than ten minutes, against milliseconds at 8.
const ternaryMaxInputs = 8

// parseNetlist reads a netlist as core.Netlist.String renders it, so a
// served netlist can be checked against the design it came from.
func parseNetlist(text string, lib *library.Library) (*core.Netlist, error) {
	var nl *core.Netlist
	var name string
	var inputs []string
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "":
		case strings.HasPrefix(line, "# netlist "):
			name, _, _ = strings.Cut(strings.TrimPrefix(line, "# netlist "), ":")
		case strings.HasPrefix(line, "INPUT(") && strings.HasSuffix(line, ")"):
			inputs = splitSignals(line[len("INPUT(") : len(line)-1])
		case strings.HasPrefix(line, "OUTPUT(") && strings.HasSuffix(line, ")"):
			nl = core.NewNetlist(name, inputs, splitSignals(line[len("OUTPUT("):len(line)-1]))
		default:
			out, inst, ok := strings.Cut(line, " = ")
			cell, pins, ok2 := strings.Cut(strings.TrimSuffix(inst, ")"), "(")
			if !ok || !ok2 || nl == nil || !strings.HasSuffix(inst, ")") {
				return nil, fmt.Errorf("netlist: bad line %q", line)
			}
			c := lib.Cell(cell)
			if c == nil {
				return nil, fmt.Errorf("netlist: unknown cell %q", cell)
			}
			if _, err := nl.AddGate(c, splitSignals(pins), out); err != nil {
				return nil, err
			}
		}
	}
	if nl == nil {
		return nil, fmt.Errorf("netlist: no OUTPUT line")
	}
	return nl, nl.Validate()
}

func splitSignals(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// checkFresh BDD-checks a served netlist of a generated design against
// the design text the server received.
func checkFresh(d design, libName, netlist string) error {
	lib, err := library.Get(libName)
	if err != nil {
		return err
	}
	net, err := eqn.ParseString(d.eqn, d.name)
	if err != nil {
		return fmt.Errorf("%s: %w", d.name, err)
	}
	nl, err := parseNetlist(netlist, lib)
	if err != nil {
		return fmt.Errorf("%s: %w", d.name, err)
	}
	if err := core.VerifyEquivalence(net, nl); err != nil {
		return fmt.Errorf("%s on %s: %w", d.name, libName, err)
	}
	return nil
}
