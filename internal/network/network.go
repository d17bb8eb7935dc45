// Package network implements the technology-independent multi-level logic
// network the mapper operates on: a DAG of named nodes, each computing a
// Boolean-factored-form expression of its fanins.
//
// The package provides the first two phases of the paper's mapping
// pipeline: AsyncTechDecomp — decomposition into two-input base gates using
// only the associative law and DeMorgan's law, which Unger showed to be
// hazard-preserving for all logic hazards (§3.1.1) — and Partition, which
// cuts the decomposed network at points of multiple fanout into
// single-output cones of logic (§3.1.2).
package network

import (
	"fmt"
	"sort"
	"strings"

	"gfmap/internal/bexpr"
)

// Network is a combinational logic network. Primary inputs are names with
// no defining node; every other signal is defined by exactly one node.
type Network struct {
	Name    string
	Inputs  []string
	Outputs []string
	nodes   map[string]*Node
	order   []string // insertion order of node names, for determinism

	inputSet  map[string]bool // set view of Inputs
	outputSet map[string]bool // set view of Outputs
}

// Node defines one internal signal as an expression over other signals.
type Node struct {
	Name string
	Expr *bexpr.Expr
	// Fanins are the distinct signals the expression reads, in
	// first-appearance order.
	Fanins []string
}

// New creates an empty network.
func New(name string) *Network {
	return &Network{
		Name:      name,
		nodes:     make(map[string]*Node),
		inputSet:  make(map[string]bool),
		outputSet: make(map[string]bool),
	}
}

// AddInput declares a primary input.
func (n *Network) AddInput(name string) error {
	if n.exists(name) {
		return fmt.Errorf("network: signal %q already defined", name)
	}
	n.Inputs = append(n.Inputs, name)
	n.inputSet[name] = true
	return nil
}

// AddNode defines signal name as the expression e over existing signals.
func (n *Network) AddNode(name string, e *bexpr.Expr) error {
	if n.exists(name) {
		return fmt.Errorf("network: signal %q already defined", name)
	}
	node := &Node{Name: name, Expr: e, Fanins: e.CollectVars(nil)}
	n.nodes[name] = node
	n.order = append(n.order, name)
	return nil
}

// MarkOutput declares an existing signal as a primary output.
func (n *Network) MarkOutput(name string) error {
	if !n.exists(name) {
		return fmt.Errorf("network: output %q is not a defined signal", name)
	}
	if n.outputSet[name] {
		return nil
	}
	n.Outputs = append(n.Outputs, name)
	n.outputSet[name] = true
	return nil
}

func (n *Network) exists(name string) bool {
	return n.nodes[name] != nil || n.inputSet[name]
}

// Node returns the defining node of a signal, or nil for primary inputs
// and unknown names.
func (n *Network) Node(name string) *Node { return n.nodes[name] }

// IsInput reports whether the name is a primary input.
func (n *Network) IsInput(name string) bool { return n.inputSet[name] }

// NodeNames returns the internal node names in insertion order.
func (n *Network) NodeNames() []string { return append([]string(nil), n.order...) }

// NumNodes returns the number of internal nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

// Validate checks that every fanin exists, every output is defined and the
// network is acyclic.
func (n *Network) Validate() error {
	_, err := n.validate()
	return err
}

// validate is Validate returning the topological order its cycle check
// computes, so a phase that needs both sorts once.
func (n *Network) validate() ([]string, error) {
	for _, name := range n.order {
		for _, f := range n.nodes[name].Fanins {
			if !n.exists(f) {
				return nil, fmt.Errorf("network: node %q reads undefined signal %q", name, f)
			}
		}
	}
	for _, o := range n.Outputs {
		if !n.exists(o) {
			return nil, fmt.Errorf("network: undefined output %q", o)
		}
	}
	return n.TopoOrder()
}

// TopoOrder returns the node names in topological order (fanins first).
func (n *Network) TopoOrder() ([]string, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make(map[string]int, len(n.nodes))
	out := make([]string, 0, len(n.nodes))
	var visit func(name string) error
	visit = func(name string) error {
		node := n.nodes[name]
		if node == nil {
			return nil // primary input
		}
		switch state[name] {
		case gray:
			return fmt.Errorf("network: combinational cycle through %q", name)
		case black:
			return nil
		}
		state[name] = gray
		for _, f := range node.Fanins {
			if err := visit(f); err != nil {
				return err
			}
		}
		state[name] = black
		out = append(out, name)
		return nil
	}
	for _, name := range n.order {
		if err := visit(name); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Eval computes every signal value given primary input values.
func (n *Network) Eval(inputs map[string]bool) (map[string]bool, error) {
	order, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	vals := make(map[string]bool, len(inputs)+len(order))
	for k, v := range inputs {
		vals[k] = v
	}
	for _, name := range order {
		node := n.nodes[name]
		v, err := evalExpr(node.Expr, vals)
		if err != nil {
			return nil, fmt.Errorf("network: node %q: %w", name, err)
		}
		vals[name] = v
	}
	return vals, nil
}

func evalExpr(e *bexpr.Expr, vals map[string]bool) (bool, error) {
	switch e.Op {
	case bexpr.OpConst:
		return e.Val, nil
	case bexpr.OpVar:
		v, ok := vals[e.Name]
		if !ok {
			return false, fmt.Errorf("undefined signal %q", e.Name)
		}
		return v, nil
	case bexpr.OpNot:
		v, err := evalExpr(e.Kids[0], vals)
		return !v, err
	case bexpr.OpAnd:
		out := true
		for _, k := range e.Kids {
			v, err := evalExpr(k, vals)
			if err != nil {
				return false, err
			}
			out = out && v
		}
		return out, nil
	case bexpr.OpOr:
		out := false
		for _, k := range e.Kids {
			v, err := evalExpr(k, vals)
			if err != nil {
				return false, err
			}
			out = out || v
		}
		return out, nil
	}
	return false, fmt.Errorf("bad op %d", e.Op)
}

// EvalOutputs evaluates the network at an input point given as a bitmask
// over the Inputs order, returning output values as a bitmask over the
// Outputs order. Intended for exhaustive equivalence checks.
func (n *Network) EvalOutputs(point uint64) (uint64, error) {
	in := make(map[string]bool, len(n.Inputs))
	for i, name := range n.Inputs {
		in[name] = point&(1<<uint(i)) != 0
	}
	vals, err := n.Eval(in)
	if err != nil {
		return 0, err
	}
	var out uint64
	for i, name := range n.Outputs {
		if vals[name] {
			out |= 1 << uint(i)
		}
	}
	return out, nil
}

// Equivalent exhaustively compares two networks with identical input and
// output name sets (order may differ). It requires at most 20 inputs.
func Equivalent(a, b *Network) (bool, error) {
	if len(a.Inputs) != len(b.Inputs) || len(a.Outputs) != len(b.Outputs) {
		return false, nil
	}
	if len(a.Inputs) > 20 {
		return false, fmt.Errorf("network: equivalence check limited to 20 inputs, got %d", len(a.Inputs))
	}
	// Map b's input/output order onto a's.
	bIn := make(map[string]int, len(b.Inputs))
	for i, name := range b.Inputs {
		bIn[name] = i
	}
	bOut := make(map[string]int, len(b.Outputs))
	for i, name := range b.Outputs {
		bOut[name] = i
	}
	for _, name := range a.Inputs {
		if _, ok := bIn[name]; !ok {
			return false, nil
		}
	}
	for _, name := range a.Outputs {
		if _, ok := bOut[name]; !ok {
			return false, nil
		}
	}
	for p := uint64(0); p < 1<<uint(len(a.Inputs)); p++ {
		av, err := a.EvalOutputs(p)
		if err != nil {
			return false, err
		}
		// Build b's point with the same input values.
		var bp uint64
		for i, name := range a.Inputs {
			if p&(1<<uint(i)) != 0 {
				bp |= 1 << uint(bIn[name])
			}
		}
		bv, err := b.EvalOutputs(bp)
		if err != nil {
			return false, err
		}
		for i, name := range a.Outputs {
			if (av>>uint(i))&1 != (bv>>uint(bOut[name]))&1 {
				return false, nil
			}
		}
	}
	return true, nil
}

// FanoutCounts returns, for every signal, how many node expressions read it
// (outputs additionally count as one reader each, so an internal signal
// that is also an output keeps its own cone).
func (n *Network) FanoutCounts() map[string]int {
	counts := make(map[string]int)
	for _, name := range n.order {
		node := n.nodes[name]
		for _, f := range node.Fanins {
			counts[f]++
		}
	}
	for _, o := range n.Outputs {
		counts[o]++
	}
	return counts
}

// String renders the network in eqn-like form, for debugging and golden
// tests.
func (n *Network) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# network %s\n", n.Name)
	fmt.Fprintf(&b, "INPUT(%s)\n", strings.Join(n.Inputs, ","))
	fmt.Fprintf(&b, "OUTPUT(%s)\n", strings.Join(n.Outputs, ","))
	for _, name := range n.order {
		fmt.Fprintf(&b, "%s = %s;\n", name, n.nodes[name].Expr.String())
	}
	return b.String()
}

// SortedSignals returns all signal names, sorted; useful for deterministic
// reporting.
func (n *Network) SortedSignals() []string {
	out := append([]string(nil), n.Inputs...)
	out = append(out, n.order...)
	sort.Strings(out)
	return out
}
