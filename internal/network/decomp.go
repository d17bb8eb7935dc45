package network

import (
	"fmt"
	"strconv"

	"gfmap/internal/bexpr"
	"gfmap/internal/cube"
	"gfmap/internal/espresso"
)

// GateKind classifies the nodes of a decomposed network.
type GateKind int

// Base gate kinds produced by AsyncTechDecomp.
const (
	GateOther GateKind = iota // not a base gate (undecomposed node)
	GateAnd2
	GateOr2
	GateInv
	GateBuf
	GateConst
)

// KindOf classifies a node's expression as one of the base gates.
func KindOf(node *Node) GateKind {
	e := node.Expr
	switch e.Op {
	case bexpr.OpConst:
		return GateConst
	case bexpr.OpVar:
		return GateBuf
	case bexpr.OpNot:
		if e.Kids[0].Op == bexpr.OpVar {
			return GateInv
		}
	case bexpr.OpAnd:
		if len(e.Kids) == 2 && e.Kids[0].Op == bexpr.OpVar && e.Kids[1].Op == bexpr.OpVar {
			return GateAnd2
		}
	case bexpr.OpOr:
		if len(e.Kids) == 2 && e.Kids[0].Op == bexpr.OpVar && e.Kids[1].Op == bexpr.OpVar {
			return GateOr2
		}
	}
	return GateOther
}

// AsyncTechDecomp is the paper's async_tech_decomp (§3.1.1): it rewrites
// the network into an equivalent one built only from two-input AND and OR
// gates and inverters, applying exclusively the associative law (to
// binarise n-ary gates) and DeMorgan's law (to push complements to the
// leaves). Both laws are hazard-preserving for all logic hazards (Unger),
// so the decomposed network has exactly the hazard behaviour of the
// original. No Boolean simplification of any kind is performed — dropping
// a redundant cube could introduce a static 1-hazard.
//
// It runs in time linear in the size of the network.
func AsyncTechDecomp(n *Network) (*Network, error) {
	order, err := n.validate()
	if err != nil {
		return nil, err
	}
	out := New(n.Name + "_decomp")
	for _, in := range n.Inputs {
		if err := out.AddInput(in); err != nil {
			return nil, err
		}
	}
	d := &decomposer{src: n, dst: out,
		invCache: make(map[string]string), leaves: make(map[string]*bexpr.Expr)}
	for _, name := range order {
		first := len(out.order)
		sig, err := d.build(n.nodes[name].Expr, false)
		if err != nil {
			return nil, err
		}
		if sig == name {
			continue
		}
		// The original node name must stay valid. To keep the structure
		// free of extra buffers, the top gate built for this node takes
		// the name; a signal the node did not build (an input, another
		// node, a cached inverter) is aliased with a buffer instead.
		own, err := d.builtSince(first, sig)
		if err != nil {
			return nil, err
		}
		if own {
			d.renameLast(name)
			continue
		}
		if err := out.AddNode(name, d.leaf(sig)); err != nil {
			return nil, err
		}
	}
	for _, o := range n.Outputs {
		if err := out.MarkOutput(o); err != nil {
			return nil, err
		}
	}
	return out, nil
}

type decomposer struct {
	src      *Network
	dst      *Network
	invCache map[string]string      // signal -> name of its inverter output
	leaves   map[string]*bexpr.Expr // signal -> its shared variable node
	counter  int
}

// builtSince reports whether sig is one of the gates emitted from position
// first of the destination order on, i.e. built for the current node. The
// node's result is always the last gate emitted, so nothing reads it yet;
// finding it anywhere else means the decomposer broke that invariant.
func (d *decomposer) builtSince(first int, sig string) (bool, error) {
	gates := d.dst.order[first:]
	if len(gates) == 0 {
		return false, nil
	}
	if gates[len(gates)-1] == sig {
		return true, nil
	}
	for _, g := range gates {
		if g == sig {
			return false, fmt.Errorf("network: internal error: decomposed signal %q is not the last gate emitted", sig)
		}
	}
	return false, nil
}

// renameLast gives the last gate emitted the name of the node it computes.
func (d *decomposer) renameLast(name string) {
	last := len(d.dst.order) - 1
	old := d.dst.order[last]
	g := d.dst.nodes[old]
	delete(d.dst.nodes, old)
	d.dst.order[last] = name
	g.Name = name
	d.dst.nodes[name] = g
	// Every inverter is cached under its fanin, so the cache follows.
	if KindOf(g) == GateInv {
		d.invCache[g.Fanins[0]] = name
	}
}

// leaf returns the one variable node shared by every gate reading sig.
func (d *decomposer) leaf(sig string) *bexpr.Expr {
	v := d.leaves[sig]
	if v == nil {
		v = bexpr.Var(sig)
		d.leaves[sig] = v
	}
	return v
}

func (d *decomposer) fresh() string {
	for {
		d.counter++
		name := "g" + strconv.Itoa(d.counter)
		if !d.dst.exists(name) && !d.src.exists(name) {
			return name
		}
	}
}

func (d *decomposer) emit(e *bexpr.Expr) (string, error) {
	name := d.fresh()
	if err := d.dst.AddNode(name, e); err != nil {
		return "", err
	}
	return name, nil
}

// build returns the name of a signal computing e complemented by neg.
func (d *decomposer) build(e *bexpr.Expr, neg bool) (string, error) {
	switch e.Op {
	case bexpr.OpConst:
		return d.emit(bexpr.Const(e.Val != neg))
	case bexpr.OpVar:
		if !neg {
			return e.Name, nil
		}
		return d.inverter(e.Name)
	case bexpr.OpNot:
		return d.build(e.Kids[0], !neg)
	case bexpr.OpAnd, bexpr.OpOr:
		isAnd := (e.Op == bexpr.OpAnd) != neg // DeMorgan flips the operator
		acc := ""
		for i, k := range e.Kids {
			sig, err := d.build(k, neg)
			if err != nil {
				return "", err
			}
			if i == 0 {
				acc = sig
				continue
			}
			var gate *bexpr.Expr
			if isAnd {
				gate = bexpr.And(d.leaf(acc), d.leaf(sig))
			} else {
				gate = bexpr.Or(d.leaf(acc), d.leaf(sig))
			}
			name, err := d.emit(gate)
			if err != nil {
				return "", err
			}
			acc = name
		}
		return acc, nil
	}
	return "", fmt.Errorf("network: bad op %d", e.Op)
}

func (d *decomposer) inverter(sig string) (string, error) {
	if inv, ok := d.invCache[sig]; ok {
		return inv, nil
	}
	name, err := d.emit(bexpr.Not(d.leaf(sig)))
	if err != nil {
		return "", err
	}
	d.invCache[sig] = name
	return name, nil
}

// IsDecomposed reports whether every node of the network is a base gate.
func IsDecomposed(n *Network) bool {
	for _, name := range n.order {
		if KindOf(n.nodes[name]) == GateOther {
			return false
		}
	}
	return true
}

// SyncTechDecomp mimics the decomposition step of a synchronous technology
// mapper such as MIS, which also *simplifies* each node while decomposing:
// every node's SOP is run through the Espresso-style two-level minimiser
// before the network is broken into base gates. The paper's §3.1.1 warns that exactly
// this simplification can introduce static 1-hazards — a redundant cube is
// often the consensus term holding the output through a transition — which
// is why the asynchronous flow must use AsyncTechDecomp instead. The
// function exists to make that contrast executable (see the hazard tests).
func SyncTechDecomp(n *Network) (*Network, error) {
	order, err := n.validate()
	if err != nil {
		return nil, err
	}
	simplified := New(n.Name + "_simp")
	for _, in := range n.Inputs {
		if err := simplified.AddInput(in); err != nil {
			return nil, err
		}
	}
	for _, name := range order {
		node := n.nodes[name]
		fn := bexpr.New(node.Expr)
		cov, err := fn.Cover()
		if err != nil {
			return nil, err
		}
		min, err := espresso.Minimize(cov, cube.NewCover(cov.N))
		if err != nil {
			return nil, err
		}
		expr := bexpr.FromCover(min.Cover, fn.Vars)
		if err := simplified.AddNode(name, expr.Root); err != nil {
			return nil, err
		}
	}
	for _, o := range n.Outputs {
		if err := simplified.MarkOutput(o); err != nil {
			return nil, err
		}
	}
	return AsyncTechDecomp(simplified)
}
