package network_test

import (
	"fmt"
	"slices"
	"testing"

	"gfmap/internal/bench"
	"gfmap/internal/diffcheck"
	"gfmap/internal/eqn"
	"gfmap/internal/network"
)

// checkAgainstOracle requires the production AsyncTechDecomp and Partition
// to reproduce the reference front end byte for byte on net: the same
// decomposed network text, and the same cones (root, leaves, expression)
// for both the decomposed and the source network.
func checkAgainstOracle(t *testing.T, label string, net *network.Network) {
	t.Helper()
	got, err := network.AsyncTechDecomp(net)
	if err != nil {
		t.Fatalf("%s: decompose: %v", label, err)
	}
	want, err := network.RefAsyncTechDecomp(net)
	if err != nil {
		t.Fatalf("%s: reference decompose: %v", label, err)
	}
	if g, w := got.String(), want.String(); g != w {
		t.Fatalf("%s: decomposition differs from the reference:\n%s\n--- want ---\n%s", label, g, w)
	}
	for _, pair := range [][2]*network.Network{{got, want}, {net, net}} {
		gc, err := network.Partition(pair[0])
		if err != nil {
			t.Fatalf("%s: partition: %v", label, err)
		}
		wc, err := network.RefPartition(pair[1])
		if err != nil {
			t.Fatalf("%s: reference partition: %v", label, err)
		}
		if len(gc) != len(wc) {
			t.Fatalf("%s: %d cones, reference has %d", label, len(gc), len(wc))
		}
		for i := range gc {
			g, w := gc[i], wc[i]
			if g.Root != w.Root || !slices.Equal(g.Leaves, w.Leaves) ||
				g.Expr.String() != w.Expr.String() || !g.Expr.Root.Equal(w.Expr.Root) {
				t.Fatalf("%s: cone %d = %s(%v) %s, reference %s(%v) %s",
					label, i, g.Root, g.Leaves, g.Expr, w.Root, w.Leaves, w.Expr)
			}
		}
	}
}

func TestFrontEndMatchesReference(t *testing.T) {
	t.Run("hand", func(t *testing.T) {
		cases := map[string]string{
			// A top-level inverter takes the node's name; a later node
			// reuses it through the inverter cache.
			"inverter-reuse":    "INPUT(x, w)\nOUTPUT(y, z)\ny = x';\nz = x'*w + y;\n",
			"buffer":            "INPUT(x)\nOUTPUT(y)\ny = x;\n",
			"constant":          "INPUT(x)\nOUTPUT(k, f)\nk = 1;\nf = x*k;\n",
			"internal-output":   "INPUT(a, b, c)\nOUTPUT(u, f)\nu = a*b;\nf = u + c;\n",
			"repeated-literals": "INPUT(x, y)\nOUTPUT(f)\nf = x*x*x' + y;\n",
			// Source names in the decomposer's fresh-name space.
			"name-clash": "INPUT(g1, a)\nOUTPUT(g2, f)\ng2 = g1*a;\nf = g2' + a*g1';\n",
		}
		for name, src := range cases {
			net, err := eqn.ParseString(src, name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkAgainstOracle(t, name, net)
		}
	})
	t.Run("corpus", func(t *testing.T) {
		ds, err := bench.Designs()
		if err != nil {
			t.Fatal(err)
		}
		ss, err := bench.SynthDesigns()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range append(append([]*bench.Design(nil), ds...), ss...) {
			checkAgainstOracle(t, d.Name, d.Net)
		}
		scsi, err := bench.DesignByName("scsi")
		if err != nil {
			t.Fatal(err)
		}
		x4, err := bench.Replicate("scsi-x4", scsi.Net, 4, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, "scsi-x4", x4)
	})
	t.Run("generated", func(t *testing.T) {
		for seed := uint64(1); seed <= 200; seed++ {
			checkAgainstOracle(t, fmt.Sprintf("seed %d", seed), diffcheck.Generate(seed, diffcheck.GenConfig{}))
		}
	})
}
