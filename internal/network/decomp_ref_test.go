package network

import (
	"fmt"

	"gfmap/internal/bexpr"
)

// This file keeps the original quadratic front end as a test oracle. Its
// decomposer rescans every fanin of the destination network to decide
// whether a gate may take a node's name, scans the node order and the
// whole inverter cache to rename it, and scans the input list on every
// signal lookup. Its partitioner tests output membership by list scan and
// deep-copies every cone. The production AsyncTechDecomp and Partition
// must reproduce it byte for byte (oracle_test.go).

// refAsyncTechDecomp is the reference async_tech_decomp.
func refAsyncTechDecomp(n *Network) (*Network, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	out := New(n.Name + "_decomp")
	for _, in := range n.Inputs {
		if err := out.AddInput(in); err != nil {
			return nil, err
		}
	}
	d := &refDecomposer{src: n, dst: out, invCache: make(map[string]string)}
	order, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, name := range order {
		node := n.nodes[name]
		d.created = make(map[string]bool)
		sig, err := d.build(node.Expr, false)
		if err != nil {
			return nil, err
		}
		if sig == name {
			continue
		}
		if d.created[sig] && out.nodes[sig] != nil && len(d.readers(sig)) == 0 && !refContains(out.Outputs, sig) {
			g := out.nodes[sig]
			delete(out.nodes, sig)
			for i, o := range out.order {
				if o == sig {
					out.order[i] = name
				}
			}
			g.Name = name
			out.nodes[name] = g
			for k, v := range d.invCache {
				if v == sig {
					d.invCache[k] = name
				}
			}
			continue
		}
		if err := out.AddNode(name, bexpr.Var(sig)); err != nil {
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

type refDecomposer struct {
	src      *Network
	dst      *Network
	invCache map[string]string
	created  map[string]bool
	counter  int
}

func refContains(list []string, name string) bool {
	for _, n := range list {
		if n == name {
			return true
		}
	}
	return false
}

// refExists is the list-scanning signal lookup.
func refExists(n *Network, name string) bool {
	return n.nodes[name] != nil || refContains(n.Inputs, name)
}

func (d *refDecomposer) readers(sig string) []string {
	var out []string
	for _, name := range d.dst.order {
		for _, f := range d.dst.nodes[name].Fanins {
			if f == sig {
				out = append(out, name)
			}
		}
	}
	return out
}

func (d *refDecomposer) fresh() string {
	for {
		d.counter++
		name := fmt.Sprintf("g%d", d.counter)
		if !refExists(d.dst, name) && !refExists(d.src, name) {
			return name
		}
	}
}

func (d *refDecomposer) emit(e *bexpr.Expr) (string, error) {
	name := d.fresh()
	if err := d.dst.AddNode(name, e); err != nil {
		return "", err
	}
	d.created[name] = true
	return name, nil
}

func (d *refDecomposer) build(e *bexpr.Expr, neg bool) (string, error) {
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
		isAnd := (e.Op == bexpr.OpAnd) != neg
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
				gate = bexpr.And(bexpr.Var(acc), bexpr.Var(sig))
			} else {
				gate = bexpr.Or(bexpr.Var(acc), bexpr.Var(sig))
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

func (d *refDecomposer) inverter(sig string) (string, error) {
	if inv, ok := d.invCache[sig]; ok {
		return inv, nil
	}
	name, err := d.emit(bexpr.Not(bexpr.Var(sig)))
	if err != nil {
		return "", err
	}
	d.invCache[sig] = name
	return name, nil
}

// refPartition is the reference partition.
func refPartition(n *Network) ([]Cone, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	fan := n.FanoutCounts()
	isRoot := func(name string) bool {
		if n.nodes[name] == nil {
			return false
		}
		return fan[name] >= 2 || refContains(n.Outputs, name)
	}
	order, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	var cones []Cone
	for _, name := range order {
		if !isRoot(name) {
			continue
		}
		expr, err := refExpandCone(n, name, isRoot)
		if err != nil {
			return nil, err
		}
		fn := bexpr.New(expr)
		cones = append(cones, Cone{Root: name, Leaves: fn.Vars, Expr: fn})
	}
	return cones, nil
}

// refExpandCone inlines the non-root internal signals below root,
// deep-copying every node of the cone.
func refExpandCone(n *Network, root string, isRoot func(string) bool) (*bexpr.Expr, error) {
	node := n.nodes[root]
	if node == nil {
		return nil, fmt.Errorf("network: cone root %q is not a node", root)
	}
	var subst func(e *bexpr.Expr) (*bexpr.Expr, error)
	subst = func(e *bexpr.Expr) (*bexpr.Expr, error) {
		switch e.Op {
		case bexpr.OpConst:
			return bexpr.Const(e.Val), nil
		case bexpr.OpVar:
			inner := n.nodes[e.Name]
			if inner == nil || isRoot(e.Name) {
				return bexpr.Var(e.Name), nil
			}
			return subst(inner.Expr)
		case bexpr.OpNot:
			k, err := subst(e.Kids[0])
			if err != nil {
				return nil, err
			}
			return bexpr.Not(k), nil
		case bexpr.OpAnd, bexpr.OpOr:
			kids := make([]*bexpr.Expr, len(e.Kids))
			for i, k := range e.Kids {
				kk, err := subst(k)
				if err != nil {
					return nil, err
				}
				kids[i] = kk
			}
			if e.Op == bexpr.OpAnd {
				return bexpr.And(kids...), nil
			}
			return bexpr.Or(kids...), nil
		}
		return nil, fmt.Errorf("network: bad op %d", e.Op)
	}
	return subst(node.Expr)
}
