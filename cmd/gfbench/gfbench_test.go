package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"gfmap/internal/core"
	"gfmap/internal/eqn"
	"gfmap/internal/library"
)

// benchmarkSpec is the part of BENCHMARK.json the result lines must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestWorkloadsSmoke runs every workload for about a second at seed 1,
// untraced and traced, through freshly built gfbench and asyncmap
// binaries, and checks the result contract: the metric names and units are
// exactly BENCHMARK.json's, no operation fails, no trace is truncated, and
// the traced runs see every span the per-layer metrics are built from, so
// a renamed span fails here instead of silently zeroing a layer.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, gfbench has %v", names, ours)
	}
	wantE2E := map[string]string{}
	for _, m := range spec.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	wantLayer := map[string]string{}
	for _, m := range spec.PerLayer {
		wantLayer[m.Name] = m.Unit
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "gfbench")
	asyncmap := filepath.Join(dir, "asyncmap")
	for _, args := range [][]string{{"-o", bin, "."}, {"-o", asyncmap, "gfmap/cmd/asyncmap"}} {
		if out, err := exec.Command("go", append([]string{"build"}, args...)...).CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", args, err, out)
		}
	}
	seen := map[string]bool{}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(bin, "--workload", w.name, "--seed", "1", "--seconds", "1",
				"--trace", trace, "--asyncmap", asyncmap, "--out", dir)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s --trace %s: %v\n%s", w.name, trace, err, stderr.String())
			}
			var res result
			if err := json.Unmarshal(lastLine(out), &res); err != nil {
				t.Fatalf("%s --trace %s: result line: %v\n%s", w.name, trace, err, out)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s --trace %s: correct=%v failed=%d attempted=%d\n%s",
					w.name, trace, res.Correct, res.Failed, res.Attempted, stderr.String())
			}
			want := wantE2E
			if trace == "1" {
				want = wantLayer
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !sameMap(got, want) {
				t.Errorf("%s --trace %s: metrics %v, BENCHMARK.json lists %v", w.name, trace, got, want)
			}
			if trace == "0" {
				continue
			}
			var layers struct {
				Trace spanAgg `json:"trace"`
			}
			data, err := os.ReadFile(filepath.Join(dir, "trace", w.name, "layers.json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &layers); err != nil {
				t.Fatal(err)
			}
			if layers.Trace.Truncated || layers.Trace.Records == 0 {
				t.Errorf("%s: trace truncated=%v records=%d", w.name, layers.Trace.Truncated, layers.Trace.Records)
			}
			for name := range layers.Trace.Spans {
				seen[name] = true
			}
		}
	}
	for _, name := range requiredSpans {
		if !seen[name] {
			t.Errorf("no traced workload produced a %q span", name)
		}
	}
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

func sameMap(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestSpanSelfTime pins the nesting rule layers.json is built on: a span's
// self time is its duration minus its direct children on the same track;
// spans on other tracks never nest, whatever their times.
func TestSpanSelfTime(t *testing.T) {
	agg, err := newSpanAgg(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	trace := strings.Join([]string{
		`{"ts_us":0,"dur_us":100,"ph":"span","tid":1,"name":"match"}`,
		`{"ts_us":10,"dur_us":20,"ph":"span","tid":1,"name":"hazard"}`,
		`{"ts_us":50,"dur_us":30,"ph":"span","tid":1,"name":"hazard","attrs":{"infeasible":1}}`,
		`{"ts_us":20,"dur_us":40,"ph":"span","tid":2,"name":"cuts"}`,
		`{"ts_us":90,"ph":"event","tid":0,"name":"mapped"}`,
	}, "\n")
	if err := agg.add([]byte(trace), 0); err != nil {
		t.Fatal(err)
	}
	if err := agg.close(); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]spanStat{
		"match":  {Count: 1, BusyMS: 0.1, SelfMS: 0.05},
		"hazard": {Count: 2, BusyMS: 0.05, SelfMS: 0.05},
		"cuts":   {Count: 1, BusyMS: 0.04, SelfMS: 0.04},
	} {
		got := *agg.Spans[name]
		if got.Count != want.Count || !near(got.BusyMS, want.BusyMS) || !near(got.SelfMS, want.SelfMS) {
			t.Errorf("%s: got %+v, want %+v", name, got, want)
		}
	}
	if agg.Records != 5 || agg.Infeasible != 1 || agg.Truncated {
		t.Errorf("records=%d infeasible=%d truncated=%v, want 5, 1, false", agg.Records, agg.Infeasible, agg.Truncated)
	}
}

func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

// TestCheckFresh pins the check on served netlists of generated designs:
// a design's own mapping passes, another design's mapping does not.
func TestCheckFresh(t *testing.T) {
	lib := library.MustGet("Actel")
	mapped := func(d design) string {
		net, err := eqn.ParseString(d.eqn, d.name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Map(net, lib, core.Options{Mode: core.Async})
		if err != nil {
			t.Fatal(err)
		}
		return res.Netlist.String()
	}
	a, b := freshDesign(1, 3), freshDesign(2, 3)
	if err := checkFresh(a, "Actel", mapped(a)); err != nil {
		t.Fatalf("own netlist rejected: %v", err)
	}
	if err := checkFresh(a, "Actel", mapped(b)); err == nil {
		t.Fatal("another design's netlist accepted")
	}
}
