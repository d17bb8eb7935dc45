package diffcheck

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gfmap/internal/bmspec"
	"gfmap/internal/core"
	"gfmap/internal/library"
	"gfmap/internal/mapstore"
	"gfmap/internal/synth"
)

// KindSynth: the spec→silicon pipeline violated its contract — the dsim
// evidence reports a glitch or an unsettled output, or evidence differs
// across option variants.
const KindSynth = "synth"

// MachineConfig sizes GenerateMachine. The zero value gets defaults small
// enough that inputs + one-hot state bits stay under the synthesis
// variable bound with room to spare.
type MachineConfig struct {
	// Inputs is the number of machine input signals; 0 means 3.
	Inputs int
	// Outputs is the number of machine output signals; 0 means 2.
	Outputs int
	// Length is the number of main-walk steps before the machine closes
	// back to its initial state; 0 means 4.
	Length int
	// MaxBurst bounds the signals per input burst; 0 means 2.
	MaxBurst int
	// BranchEvery forks a two-way branch (two edges with disjoint input
	// bursts, remerging one state later) every k-th step; 0 means 3,
	// negative disables branching.
	BranchEvery int
}

func (c MachineConfig) withDefaults() MachineConfig {
	if c.Inputs == 0 {
		c.Inputs = 3
	}
	if c.Outputs == 0 {
		c.Outputs = 2
	}
	if c.Length == 0 {
		c.Length = 4
	}
	if c.MaxBurst == 0 {
		c.MaxBurst = 2
	}
	if c.BranchEvery == 0 {
		c.BranchEvery = 3
	}
	return c
}

// GenerateMachine builds a seeded random burst-mode machine that is valid
// by construction: a random walk over fresh states with occasional
// two-way branches that remerge, closed back to the initial state so
// every signal returns to its reset value. Branch bursts are disjoint
// (the maximal set property) and every state is entered with one
// consistent signal vector. Same seed, same machine.
func GenerateMachine(seed uint64, cfg MachineConfig) *bmspec.Machine {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(int64(seed)))
	m := &bmspec.Machine{
		Name:       fmt.Sprintf("bm%d", seed),
		Initial:    "s0",
		InitialIn:  map[string]bool{},
		InitialOut: map[string]bool{},
	}
	for i := 0; i < cfg.Inputs; i++ {
		name := fmt.Sprintf("x%d", i)
		m.Inputs = append(m.Inputs, name)
		m.InitialIn[name] = rng.Intn(2) == 0
	}
	for i := 0; i < cfg.Outputs; i++ {
		name := fmt.Sprintf("z%d", i)
		m.Outputs = append(m.Outputs, name)
		m.InitialOut[name] = rng.Intn(2) == 0
	}

	in := copyVec(m.InitialIn)
	out := copyVec(m.InitialOut)
	state := "s0"
	nstates := 1
	fresh := func() string { s := fmt.Sprintf("s%d", nstates); nstates++; return s }

	// toggle flips k randomly chosen signals not in avoid, mutating vec,
	// and returns the burst that performs the flips.
	toggle := func(vec map[string]bool, names []string, k int, avoid map[string]bool) bmspec.Burst {
		var b bmspec.Burst
		picked := 0
		for _, idx := range rng.Perm(len(names)) {
			if picked == k {
				break
			}
			s := names[idx]
			if avoid != nil && avoid[s] {
				continue
			}
			if vec[s] {
				b.Fall = append(b.Fall, s)
			} else {
				b.Rise = append(b.Rise, s)
			}
			vec[s] = !vec[s]
			picked++
		}
		sort.Strings(b.Rise)
		sort.Strings(b.Fall)
		return b
	}
	// burstTo toggles vec to match target, returning the burst.
	burstTo := func(vec, target map[string]bool, names []string) bmspec.Burst {
		var b bmspec.Burst
		for _, s := range names {
			if vec[s] == target[s] {
				continue
			}
			if vec[s] {
				b.Fall = append(b.Fall, s)
			} else {
				b.Rise = append(b.Rise, s)
			}
			vec[s] = target[s]
		}
		sort.Strings(b.Rise)
		sort.Strings(b.Fall)
		return b
	}

	for step := 0; step < cfg.Length; step++ {
		branch := cfg.BranchEvery > 0 && step%cfg.BranchEvery == cfg.BranchEvery-1 && cfg.Inputs >= 2
		if !branch {
			k := 1 + rng.Intn(min(cfg.MaxBurst, cfg.Inputs))
			next := fresh()
			ib := toggle(in, m.Inputs, k, nil)
			ob := toggle(out, m.Outputs, rng.Intn(cfg.Outputs+1), nil)
			m.Edges = append(m.Edges, bmspec.Edge{From: state, To: next, In: ib, Out: ob})
			state = next
			continue
		}
		// Fork: from the current state, burst A leads to P (where the walk
		// continues) and a disjoint burst B leads to Q; Q remerges into P
		// by undoing B and applying A, with outputs fixed up to match.
		kA := 1 + rng.Intn(min(cfg.MaxBurst, cfg.Inputs-1))
		kB := 1 + rng.Intn(min(cfg.MaxBurst, cfg.Inputs-kA))
		inA, inB := copyVec(in), copyVec(in)
		outA, outB := copyVec(out), copyVec(out)
		burstA := toggle(inA, m.Inputs, kA, nil)
		burstB := toggle(inB, m.Inputs, kB, burstA.Signals())
		obA := toggle(outA, m.Outputs, rng.Intn(cfg.Outputs+1), nil)
		obB := toggle(outB, m.Outputs, rng.Intn(cfg.Outputs+1), nil)
		p, q := fresh(), fresh()
		m.Edges = append(m.Edges,
			bmspec.Edge{From: state, To: p, In: burstA, Out: obA},
			bmspec.Edge{From: state, To: q, In: burstB, Out: obB},
			bmspec.Edge{From: q, To: p, In: burstTo(inB, inA, m.Inputs), Out: burstTo(outB, outA, m.Outputs)},
		)
		in, out, state = inA, outA, p
	}

	// Close the loop: return every signal to its reset value. The closing
	// input burst must be non-empty, so toggle one input first if the walk
	// happens to sit at the initial input vector already.
	if sameValues(in, m.InitialIn) {
		mid := fresh()
		ib := toggle(in, m.Inputs, 1, nil)
		m.Edges = append(m.Edges, bmspec.Edge{From: state, To: mid, In: ib})
		state = mid
	}
	m.Edges = append(m.Edges, bmspec.Edge{
		From: state, To: "s0",
		In:  burstTo(in, m.InitialIn, m.Inputs),
		Out: burstTo(out, m.InitialOut, m.Outputs),
	})
	return m
}

func copyVec(v map[string]bool) map[string]bool {
	out := make(map[string]bool, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}

func sameValues(a, b map[string]bool) bool {
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// SynthOptions configures a differential check of the spec→silicon
// pipeline.
type SynthOptions struct {
	// Lib is the target cell library. Required.
	Lib *library.Library
	// Workers is the parallel worker count tested against the serial
	// baseline; 0 means 4.
	Workers int
	// Trials is the random-delay simulation trials per transition; 0
	// means 3 (kept low: the fuzz loop runs many machines).
	Trials int
	// SkipStoreAxes drops the storecold/storewarm variants.
	SkipStoreAxes bool
}

// synthVariant is one point of the pipeline option matrix. Every variant
// must produce byte-identical netlists AND byte-identical evidence JSON.
type synthVariant struct {
	name string
	opts func(synth.Options) synth.Options
}

func synthMatrix(workers int, store *mapstore.Store) []synthVariant {
	serial := func(o synth.Options) synth.Options { o.Map.Workers = 1; return o }
	vars := []synthVariant{
		{name: "serial", opts: serial},
		{name: "workers", opts: func(o synth.Options) synth.Options { o.Map.Workers = workers; return o }},
		{name: "rerun", opts: serial},
	}
	if store != nil {
		withStore := func(o synth.Options) synth.Options { o.Map.Workers = 1; o.Map.Store = store; return o }
		vars = append(vars,
			synthVariant{name: "storecold", opts: withStore},
			synthVariant{name: "storewarm", opts: withStore},
		)
	}
	return vars
}

// CheckSynth pushes one machine through the full pipeline across the
// option matrix and asserts its invariants: spec round-trip identity, no
// panics, agreement on failure, byte-identical netlists and evidence
// across variants, functional equivalence of the mapped netlist, and a
// passing hazard-freedom certificate (dsim finds no glitch and every
// output settles — the end-to-end guarantee the synthesis and Theorem
// 3.2 mapping jointly make).
func CheckSynth(m *bmspec.Machine, opts SynthOptions) *Report {
	rep := &Report{}
	if opts.Lib == nil {
		rep.add(KindMapError, "synth", "config", "no library configured")
		return rep
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 4
	}
	trials := opts.Trials
	if trials <= 0 {
		trials = 3
	}

	// Spec text round trip: Parse(String()) must be identity.
	text := m.String()
	if m2, err := bmspec.ParseString(text); err != nil {
		rep.add(KindRoundTrip, "synth", "bmspec", "generated machine does not re-parse: "+err.Error()+"\n"+text)
		return rep
	} else if m2.String() != text {
		rep.add(KindRoundTrip, "synth", "bmspec", "String→Parse→String is not identity:\n"+text+"\nvs\n"+m2.String())
	}

	var store *mapstore.Store
	if !opts.SkipStoreAxes {
		store = mapstore.NewMemory(0)
	}

	type synthOutcome struct {
		variant synthVariant
		res     *synth.Result
		err     error
	}
	vars := synthMatrix(workers, store)
	outs := make([]synthOutcome, 0, len(vars))
	for _, v := range vars {
		o := v.opts(synth.Options{
			Library: opts.Lib,
			Trials:  trials,
		})
		res, err := safeSynth(m, o)
		if err != nil && isInternal(err) {
			rep.add(KindPanic, "synth", v.name, err.Error())
		}
		outs = append(outs, synthOutcome{variant: v, res: res, err: err})
	}

	baseline := outs[0]
	if baseline.err != nil {
		// Machines the pipeline genuinely cannot realise are not
		// violations as long as every variant agrees on the failure.
		for _, o := range outs[1:] {
			if o.err == nil {
				rep.add(KindMapError, "synth", o.variant.name,
					"baseline failed ("+baseline.err.Error()+") but variant succeeded")
			} else if o.err.Error() != baseline.err.Error() {
				rep.add(KindMapError, "synth", o.variant.name,
					"error mismatch: "+o.err.Error()+" vs baseline "+baseline.err.Error())
			}
		}
		return rep
	}
	rep.Design = baseline.res.Synthesis.Net
	rep.MappedModes = append(rep.MappedModes, "synth")

	baseNL := baseline.res.Mapped.Netlist.String()
	baseEV := marshalEvidence(baseline.res.Evidence)
	for _, o := range outs[1:] {
		if o.err != nil {
			rep.add(KindMapError, "synth", o.variant.name, "baseline succeeded but variant failed: "+o.err.Error())
			continue
		}
		if nl := o.res.Mapped.Netlist.String(); nl != baseNL {
			rep.add(KindByteIdentity, "synth", o.variant.name, "netlist differs from serial baseline:\n"+nl+"\nvs\n"+baseNL)
		}
		if ev := marshalEvidence(o.res.Evidence); ev != baseEV {
			rep.add(KindSynth, "synth", o.variant.name, "evidence differs from serial baseline:\n"+ev+"\nvs\n"+baseEV)
		}
	}

	checkWellFormed(baseline.res.Mapped, baseline.res.Synthesis.Net, "synth", rep)
	if err := core.VerifyEquivalence(baseline.res.Synthesis.Net, baseline.res.Mapped.Netlist); err != nil {
		rep.add(KindEquivalence, "synth", "serial", err.Error())
	}
	if ev := baseline.res.Evidence; !ev.HazardFree || !ev.Settled {
		rep.add(KindSynth, "synth", "serial",
			fmt.Sprintf("hazard-freedom certificate failed (hazard_free=%v settled=%v):\n%s",
				ev.HazardFree, ev.Settled, baseEV))
	}
	return rep
}

func safeSynth(m *bmspec.Machine, o synth.Options) (res *synth.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: panic in pipeline: %v", core.ErrInternal, r)
		}
	}()
	return synth.RunMachine(context.Background(), m, o)
}

func isInternal(err error) bool {
	return errors.Is(err, core.ErrInternal)
}

func marshalEvidence(ev *synth.Evidence) string {
	b, err := json.Marshal(ev)
	if err != nil {
		return "unmarshalable evidence: " + err.Error()
	}
	return string(b)
}

// WriteMachineReproducer writes a failing machine to dir as a .bm spec
// with a comment header describing the violations, returning the path.
// `gfmfuzz -replay` re-checks .bm files through CheckSynth.
func WriteMachineReproducer(dir string, seed uint64, m *bmspec.Machine, rep *Report) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	kinds := strings.Join(rep.Kinds(), "+")
	if kinds == "" {
		kinds = "unknown"
	}
	name := fmt.Sprintf("seed%d_%s.bm", seed, strings.ReplaceAll(kinds, "-", ""))
	path := filepath.Join(dir, name)
	var b strings.Builder
	fmt.Fprintf(&b, "# gfmfuzz -synth reproducer: seed=%d kinds=%s\n", seed, kinds)
	for _, v := range rep.Violations {
		detail := v.Detail
		if i := strings.IndexByte(detail, '\n'); i >= 0 {
			detail = detail[:i] + " ..."
		}
		fmt.Fprintf(&b, "# %s\n", Violation{Kind: v.Kind, Mode: v.Mode, Variant: v.Variant, Detail: detail})
	}
	b.WriteString(m.String())
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
