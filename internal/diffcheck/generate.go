// Package diffcheck is the mapper's differential fuzzing and invariant
// harness. It generates random combinational networks (biased toward the
// structures that stress the asynchronous mapper: reconvergent fanout and
// wide supports), maps each one across the full option matrix — cache
// on/off, worker counts, with and without a context, store cold and
// warm — and asserts the invariants the rest of the system relies on:
//
//   - every variant agrees byte-for-byte on the emitted netlist,
//   - the deterministic stats view agrees across cache/worker variants,
//   - the netlist is well-formed (every signal driven exactly once,
//     acyclic, all loads resolved),
//   - the mapping is functionally equivalent to the source network,
//   - in asynchronous mode no new hazards are introduced (Theorems
//     3.1/3.2),
//   - no panic escapes core.Map,
//   - writer/parser round trips (eqn and BLIF) preserve the function.
//
// A shrinking minimiser reduces failing designs to small reproducers for
// testdata/regressions/. cmd/gfmfuzz is the batch driver; native
// go test -fuzz targets ride on the same checks.
package diffcheck

import (
	"math/rand"
	"strconv"

	"gfmap/internal/bexpr"
	"gfmap/internal/network"
)

// GenConfig sizes the random network generator. The zero value gets
// usable defaults aimed at fast, verifiable designs: few enough inputs
// for exhaustive equivalence and exact hazard analysis, enough nodes for
// multi-cone structure.
type GenConfig struct {
	// Inputs is the number of primary inputs; 0 means 6.
	Inputs int
	// Nodes is the number of internal nodes; 0 means 10.
	Nodes int
	// MaxFanin bounds the distinct signals a node's expression draws on;
	// 0 means 4. Every WidePeriod-th node ignores it and draws a wide
	// support instead, to stress the exact-analysis bounds.
	MaxFanin int
	// WidePeriod makes every k-th node wide-support (up to twice
	// MaxFanin); 0 means 5, negative disables wide nodes.
	WidePeriod int
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Inputs <= 0 {
		c.Inputs = 6
	}
	if c.Nodes <= 0 {
		c.Nodes = 10
	}
	if c.MaxFanin <= 0 {
		c.MaxFanin = 4
	}
	if c.WidePeriod == 0 {
		c.WidePeriod = 5
	}
	return c
}

// Generate builds a pseudo-random combinational network from the seed.
// The same (seed, cfg) pair always yields the identical network, so a
// seed is a complete reproducer. Generated networks always validate:
// every node reads only previously defined signals and every sink node is
// a primary output.
func Generate(seed uint64, cfg GenConfig) *network.Network {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(int64(seed)))
	net := network.New("gen" + strconv.FormatUint(seed, 10))

	signals := make([]string, 0, cfg.Inputs+cfg.Nodes)
	for i := 0; i < cfg.Inputs; i++ {
		name := "x" + strconv.Itoa(i)
		if err := net.AddInput(name); err != nil {
			panic("diffcheck: generator input collision: " + err.Error())
		}
		signals = append(signals, name)
	}

	readers := make(map[string]int, cfg.Inputs+cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		k := 1 + rng.Intn(cfg.MaxFanin)
		if cfg.WidePeriod > 0 && i%cfg.WidePeriod == cfg.WidePeriod-1 {
			k = cfg.MaxFanin + 1 + rng.Intn(cfg.MaxFanin)
		}
		support := pickSupport(rng, signals, readers, k)
		expr := randomExpr(rng, support, 0)
		name := "n" + strconv.Itoa(i)
		if err := net.AddNode(name, expr); err != nil {
			panic("diffcheck: generator node collision: " + err.Error())
		}
		for _, s := range expr.CollectVars(nil) {
			readers[s]++
		}
		signals = append(signals, name)
	}

	// Every sink becomes an output so the whole network is reachable and
	// the differential predicates see every node.
	for _, name := range net.NodeNames() {
		if readers[name] == 0 {
			if err := net.MarkOutput(name); err != nil {
				panic("diffcheck: generator output: " + err.Error())
			}
		}
	}
	return net
}

// pickSupport draws k distinct signals. Half the draws are biased toward
// signals that already have readers, deliberately building the
// reconvergent multi-fanout points that decide cone partitioning and
// cross-cone cache sharing; the rest are uniform (favouring recent
// signals keeps chains deep).
func pickSupport(rng *rand.Rand, signals []string, readers map[string]int, k int) []string {
	if k > len(signals) {
		k = len(signals)
	}
	chosen := make(map[string]bool, k)
	out := make([]string, 0, k)
	var shared []string
	for _, s := range signals {
		if readers[s] > 0 {
			shared = append(shared, s)
		}
	}
	for len(out) < k {
		var s string
		switch {
		case len(shared) > 0 && rng.Intn(2) == 0:
			s = shared[rng.Intn(len(shared))]
		case rng.Intn(3) == 0 && len(signals) > 4:
			// Recent tail: deepens the DAG.
			tail := signals[len(signals)-4:]
			s = tail[rng.Intn(len(tail))]
		default:
			s = signals[rng.Intn(len(signals))]
		}
		if !chosen[s] {
			chosen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// randomExpr builds a random Boolean expression whose leaves are drawn
// from support (every support signal appears at least once at depth 0).
// Repeated leaves are allowed deeper down: intra-expression reconvergence
// is exactly what the hazard analysis cares about.
func randomExpr(rng *rand.Rand, support []string, depth int) *bexpr.Expr {
	if depth >= 3 || len(support) == 1 {
		leaf := bexpr.Var(support[rng.Intn(len(support))])
		if rng.Intn(3) == 0 {
			return bexpr.Not(leaf)
		}
		return leaf
	}
	if depth == 0 {
		// Partition the support across the children so every signal is
		// actually in the node's support.
		perm := rng.Perm(len(support))
		cut := 1 + rng.Intn(len(support)-1)
		left := make([]string, 0, cut)
		right := make([]string, 0, len(support)-cut)
		for i, p := range perm {
			if i < cut {
				left = append(left, support[p])
			} else {
				right = append(right, support[p])
			}
		}
		a := randomExpr(rng, left, 1)
		b := randomExpr(rng, right, 1)
		e := combine(rng, a, b)
		if rng.Intn(4) == 0 {
			e = bexpr.Not(e)
		}
		return e
	}
	a := randomExpr(rng, support, depth+1)
	b := randomExpr(rng, support, depth+1)
	return combine(rng, a, b)
}

func combine(rng *rand.Rand, a, b *bexpr.Expr) *bexpr.Expr {
	if rng.Intn(2) == 0 {
		return bexpr.And(a, b)
	}
	return bexpr.Or(a, b)
}
