package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gfmap/internal/core"
	"gfmap/internal/diffcheck"
	"gfmap/internal/eqn"
	"gfmap/internal/library"
	"gfmap/internal/network"
	"gfmap/internal/synth"
)

// goldenPath is the benchmark's golden file: one entry per fixed mapping
// the benchmark sends, each verified for equivalence and hazard safety
// when it was written.
var goldenPath = filepath.Join("..", "..", "cmd", "gfbench", "testdata", "golden.json")

// TestGoldenNetlists rebuilds every golden mapping in-process, the way
// the benchmark builds its inputs (eqn text written and parsed back,
// default options), and requires the netlist byte for byte (by sha256),
// its area and its delay. A refactor of the mapper that changes no
// behaviour keeps every entry.
func TestGoldenNetlists(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var g struct {
		Entries map[string]struct {
			SHA256 string  `json:"sha256"`
			Area   float64 `json:"area"`
			Delay  float64 `json:"delay"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	checked := map[string]bool{}
	check := func(key string, res *core.Result) {
		t.Helper()
		checked[key] = true
		want, ok := g.Entries[key]
		sum := sha256.Sum256([]byte(res.Netlist.String()))
		switch {
		case !ok:
			t.Errorf("%s: no golden entry", key)
		case hex.EncodeToString(sum[:]) != want.SHA256:
			t.Errorf("%s: netlist differs from golden", key)
		case res.Area != want.Area || res.Delay != want.Delay:
			t.Errorf("%s: area/delay %g/%g, golden %g/%g", key, res.Area, res.Delay, want.Area, want.Delay)
		}
	}
	mapEqn := func(name string, net *network.Network, libName, mode string) {
		t.Helper()
		parsed, err := eqn.ParseString(eqn.WriteString(net), name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opts := core.Options{Mode: core.Async}
		if mode == "sync" {
			opts.Mode = core.Sync
		}
		res, err := core.Map(parsed, library.MustGet(libName), opts)
		if err != nil {
			t.Fatalf("%s|%s|%s: %v", name, libName, mode, err)
		}
		check(name+"|"+libName+"|"+mode, res)
	}

	paper, err := Designs()
	if err != nil {
		t.Fatal(err)
	}
	synthetic, err := SynthDesigns()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(paper, synthetic...) {
		for _, lib := range library.BuiltinNames {
			for _, mode := range []string{"async", "sync"} {
				mapEqn(d.Name, d.Net, lib, mode)
			}
		}
	}

	scsi, err := DesignByName("scsi")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{4, 10} {
		name := fmt.Sprintf("scsi-x%d", k)
		net, err := Replicate(name, scsi.Net, k, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		mapEqn(name, net, "LSI9K", "async")
		if k == 4 {
			mapEqn(name, net, "Actel", "async")
		}
	}
	gen := diffcheck.Generate(1000, diffcheck.GenConfig{Inputs: 40, Nodes: 1000})
	gen.Name = "gen1000"
	mapEqn(gen.Name, gen, "LSI9K", "async")

	actel := library.MustGet("Actel")
	specs := SliceSources()
	for _, name := range SortedSliceNames() {
		sr, err := synth.Run(context.Background(), specs[name], synth.Options{Library: actel})
		if err != nil {
			t.Fatalf("spec %s: %v", name, err)
		}
		check("spec:"+name+"|Actel|async", sr.Mapped)
	}

	for key := range g.Entries {
		if !checked[key] {
			t.Errorf("%s: golden entry not rebuilt", key)
		}
	}
}
