package network

import (
	"fmt"

	"gfmap/internal/bexpr"
)

// Cone is a single-output cone of logic: a fanout-free tree of gates from
// Root down to the cut points (Leaves), which are primary inputs or other
// cones' roots. The mapper treats each cone independently (§3.1.2);
// because every internal signal of a cone has fanout one, the cone's
// structure is fully captured by the expression tree Expr over Leaves.
type Cone struct {
	Root   string
	Leaves []string
	Expr   *bexpr.Function
}

// Partition cuts the network at points of multiple fanout and returns the
// single-output cones in topological order (leaf-most first). Every primary
// output and every signal read by two or more gates becomes a cone root.
func Partition(n *Network) ([]Cone, error) {
	order, err := n.validate()
	if err != nil {
		return nil, err
	}
	fan := n.FanoutCounts()
	isRoot := func(name string) bool {
		if n.nodes[name] == nil {
			return false // primary input
		}
		return fan[name] >= 2 || n.outputSet[name]
	}
	var cones []Cone
	for _, name := range order {
		if !isRoot(name) {
			continue
		}
		expr, err := expandCone(n, name, isRoot)
		if err != nil {
			return nil, err
		}
		fn := bexpr.New(expr)
		cones = append(cones, Cone{Root: name, Leaves: fn.Vars, Expr: fn})
	}
	return cones, nil
}

// ExpandToExpr inlines the defining expressions of internal signals below
// root, stopping at the given boundary signals (and at primary inputs),
// and returns the resulting expression tree. It is the tool for comparing
// the structure of a region of one network against the same region of
// another — e.g. a cone before and after mapping. The result shares
// unchanged subtrees with the network's node expressions.
func ExpandToExpr(n *Network, root string, boundary map[string]bool) (*bexpr.Expr, error) {
	return expandCone(n, root, func(name string) bool { return boundary[name] })
}

// expandCone inlines the defining expressions of non-root internal signals
// below root, stopping at primary inputs and other roots. Expressions are
// immutable, so a subtree that inlines nothing is returned as it is rather
// than copied.
func expandCone(n *Network, root string, isRoot func(string) bool) (*bexpr.Expr, error) {
	node := n.nodes[root]
	if node == nil {
		return nil, fmt.Errorf("network: cone root %q is not a node", root)
	}
	var subst func(e *bexpr.Expr) (*bexpr.Expr, error)
	subst = func(e *bexpr.Expr) (*bexpr.Expr, error) {
		switch e.Op {
		case bexpr.OpConst:
			return e, nil
		case bexpr.OpVar:
			inner := n.nodes[e.Name]
			if inner == nil || isRoot(e.Name) {
				return e, nil
			}
			return subst(inner.Expr)
		case bexpr.OpNot:
			k, err := subst(e.Kids[0])
			if err != nil {
				return nil, err
			}
			if k == e.Kids[0] {
				return e, nil
			}
			return bexpr.Not(k), nil
		case bexpr.OpAnd, bexpr.OpOr:
			var kids []*bexpr.Expr // nil while every child is unchanged
			for i, k := range e.Kids {
				kk, err := subst(k)
				if err != nil {
					return nil, err
				}
				if kk != k && kids == nil {
					kids = append(make([]*bexpr.Expr, 0, len(e.Kids)), e.Kids[:i]...)
				}
				if kids != nil {
					kids = append(kids, kk)
				}
			}
			if kids == nil {
				// And/Or collapse fewer than two children; keep that.
				if len(e.Kids) >= 2 {
					return e, nil
				}
				kids = e.Kids
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
