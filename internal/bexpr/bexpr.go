// Package bexpr implements Boolean factored form (BFF) expressions.
//
// The DAC'93 mapper uses BFF as "an accurate and convenient representation
// for both the functionality and structure" of a library element (§3.2.1):
// the tree shape of the expression mirrors the gate/transistor structure,
// which is what determines the element's logic-hazard behaviour. The same
// representation doubles as the subject of multi-level hazard analysis.
//
// The package provides parsing, printing, evaluation, structural metrics,
// and two hazard-preserving flattenings to two-level form:
//
//   - Cover: plain SOP obtained using only the associative, distributive and
//     DeMorgan laws (Unger, Theorem 4.3) — no absorption or redundancy
//     removal, since redundant cubes are exactly what keeps circuits
//     hazard-free;
//   - LabeledCover: SOP over path-labelled literals, where every leaf
//     occurrence of a variable is a distinct path; this is the form needed
//     by static-0 and single-input-change dynamic hazard analysis (§4.2.3).
package bexpr

import (
	"fmt"
	"sort"
	"strconv"

	"gfmap/internal/cube"
)

// Op identifies the operator of an expression node.
type Op int

// Expression node operators.
const (
	OpConst Op = iota // constant 0 or 1
	OpVar             // variable leaf
	OpNot             // complement (one child)
	OpAnd             // conjunction (two or more children)
	OpOr              // disjunction (two or more children)
)

// Expr is a node of a Boolean factored form expression tree.
type Expr struct {
	Op   Op
	Val  bool    // OpConst: the constant value
	Name string  // OpVar: the variable name
	Kids []*Expr // OpNot: one child; OpAnd/OpOr: two or more
}

// Function is a BFF expression together with a fixed variable ordering.
// Variable i of the ordering corresponds to bit i of evaluation points and
// to variable i of derived covers.
type Function struct {
	Root *Expr
	Vars []string

	index map[string]int
}

// Const returns a constant expression node.
func Const(v bool) *Expr { return &Expr{Op: OpConst, Val: v} }

// Var returns a variable leaf node.
func Var(name string) *Expr { return &Expr{Op: OpVar, Name: name} }

// Not returns the complement of e.
func Not(e *Expr) *Expr { return &Expr{Op: OpNot, Kids: []*Expr{e}} }

// And returns the conjunction of the given children.
func And(kids ...*Expr) *Expr { return nary(OpAnd, kids) }

// Or returns the disjunction of the given children.
func Or(kids ...*Expr) *Expr { return nary(OpOr, kids) }

func nary(op Op, kids []*Expr) *Expr {
	switch len(kids) {
	case 0:
		return Const(op == OpAnd)
	case 1:
		return kids[0]
	}
	return &Expr{Op: op, Kids: kids}
}

// Clone returns a deep copy of the expression.
func (e *Expr) Clone() *Expr {
	if e == nil {
		return nil
	}
	out := &Expr{Op: e.Op, Val: e.Val, Name: e.Name}
	if len(e.Kids) > 0 {
		out.Kids = make([]*Expr, len(e.Kids))
		for i, k := range e.Kids {
			out.Kids[i] = k.Clone()
		}
	}
	return out
}

// CollectVars appends the names of variables in first-appearance order.
func (e *Expr) CollectVars(dst []string) []string {
	seen := make(map[string]bool, len(dst))
	for _, v := range dst {
		seen[v] = true
	}
	var walk func(*Expr)
	walk = func(n *Expr) {
		if n == nil {
			return
		}
		if n.Op == OpVar && !seen[n.Name] {
			seen[n.Name] = true
			dst = append(dst, n.Name)
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(e)
	return dst
}

// NumLiterals counts variable leaf occurrences. For a complementary CMOS
// complex gate described by a BFF, this equals the number of transistors in
// the pulldown network — the paper's Table 3 area unit.
func (e *Expr) NumLiterals() int {
	if e == nil {
		return 0
	}
	if e.Op == OpVar {
		return 1
	}
	n := 0
	for _, k := range e.Kids {
		n += k.NumLiterals()
	}
	return n
}

// Depth returns the operator depth of the tree (leaves and constants have
// depth 0; complements are free, matching a gate-level view where inversion
// folds into the gate).
func (e *Expr) Depth() int {
	if e == nil || e.Op == OpVar || e.Op == OpConst {
		return 0
	}
	if e.Op == OpNot {
		return e.Kids[0].Depth()
	}
	d := 0
	for _, k := range e.Kids {
		if kd := k.Depth(); kd > d {
			d = kd
		}
	}
	return d + 1
}

// String renders the expression with '+', juxtaposition-by-'*' and postfix
// apostrophe complement, parenthesising as needed.
func (e *Expr) String() string {
	var buf [64]byte
	return string(e.AppendString(buf[:0]))
}

// AppendString appends the String rendering of the expression to dst.
func (e *Expr) AppendString(dst []byte) []byte { return e.write(dst, 0, nil) }

// AppendKey appends a structural key of the expression to dst and returns
// the number of distinct variables. The key is the String rendering with
// every variable renamed positionally (v0, v1, … in first-appearance
// order) and with an AND or OR operand of a node with the same operator
// parenthesised. String drops that grouping — (a + b) + c, a + (b + c) and
// a + b + c all print as "a + b + c" — so only the key tells such trees
// apart: two expressions whose AND and OR nodes have two or more operands
// get the same key exactly when they are Equal up to a renaming that
// keeps which leaves share a variable. On an expression without
// same-operator nesting the key is the String of the renamed expression.
func (e *Expr) AppendKey(dst []byte) ([]byte, int) {
	vars := make(map[string]int)
	dst = e.write(dst, 0, vars)
	return dst, len(vars)
}

// write renders e at precedence level parent: OR=1, AND=2, NOT/leaf=3.
// A non-nil vars selects the structural key (AppendKey): variables are
// numbered in vars as they first appear, and a same-operator operand is
// written at level 3, which parenthesises it.
func (e *Expr) write(b []byte, parent int, vars map[string]int) []byte {
	switch e.Op {
	case OpConst:
		if e.Val {
			b = append(b, '1')
		} else {
			b = append(b, '0')
		}
	case OpVar:
		if vars == nil {
			b = append(b, e.Name...)
			break
		}
		i, ok := vars[e.Name]
		if !ok {
			i = len(vars)
			vars[e.Name] = i
		}
		b = append(b, 'v')
		b = strconv.AppendInt(b, int64(i), 10)
	case OpNot:
		k := e.Kids[0]
		if k.Op == OpVar || k.Op == OpConst {
			b = k.write(b, 3, vars)
			b = append(b, '\'')
		} else {
			b = append(b, '(')
			b = k.write(b, 0, vars)
			b = append(b, ")'"...)
		}
	case OpAnd:
		if parent > 2 {
			b = append(b, '(')
		}
		for i, k := range e.Kids {
			if i > 0 {
				b = append(b, '*')
			}
			b = k.write(b, e.operandLevel(k, 2, vars != nil), vars)
		}
		if parent > 2 {
			b = append(b, ')')
		}
	case OpOr:
		if parent > 1 {
			b = append(b, '(')
		}
		for i, k := range e.Kids {
			if i > 0 {
				b = append(b, " + "...)
			}
			b = k.write(b, e.operandLevel(k, 1, vars != nil), vars)
		}
		if parent > 1 {
			b = append(b, ')')
		}
	}
	return b
}

// operandLevel is the precedence level operand k of e is written at: e's
// own level, raised past both operators when grouped keeps a same-operator
// operand in parentheses.
func (e *Expr) operandLevel(k *Expr, level int, grouped bool) int {
	if grouped && k.Op == e.Op {
		return 3
	}
	return level
}

// New builds a Function from an expression root; the variable order is the
// order of first appearance.
func New(root *Expr) *Function {
	f := &Function{Root: root, Vars: root.CollectVars(nil)}
	f.buildIndex()
	return f
}

// NewWithVars builds a Function with an explicit variable order, which may
// include variables not present in the expression. It is an error for the
// expression to use a variable outside the order.
func NewWithVars(root *Expr, vars []string) (*Function, error) {
	f := &Function{Root: root, Vars: vars}
	f.buildIndex()
	for _, v := range root.CollectVars(nil) {
		if _, ok := f.index[v]; !ok {
			return nil, fmt.Errorf("bexpr: expression uses variable %q outside the given order", v)
		}
	}
	return f, nil
}

func (f *Function) buildIndex() {
	f.index = make(map[string]int, len(f.Vars))
	for i, v := range f.Vars {
		f.index[v] = i
	}
}

// Reset re-points f at a new root and variable order, reusing the
// receiver's variable index map so repeated construction on a hot path
// allocates nothing beyond what the map itself needs. Unlike NewWithVars
// it performs no validation: the caller guarantees the expression uses
// only variables from vars. A zero Function is a valid receiver.
func (f *Function) Reset(root *Expr, vars []string) {
	f.Root, f.Vars = root, vars
	if f.index == nil {
		f.index = make(map[string]int, len(vars))
	} else {
		clear(f.index)
	}
	for i, v := range vars {
		f.index[v] = i
	}
}

// VarIndex returns the position of name in the variable order, or -1.
func (f *Function) VarIndex(name string) int {
	if i, ok := f.index[name]; ok {
		return i
	}
	return -1
}

// NumVars returns the number of variables in the order.
func (f *Function) NumVars() int { return len(f.Vars) }

// String renders the underlying expression.
func (f *Function) String() string { return f.Root.String() }

// Eval evaluates the function at the given point (bit i = value of
// variable i in the order).
func (f *Function) Eval(point uint64) bool {
	return f.evalNode(f.Root, point)
}

func (f *Function) evalNode(e *Expr, point uint64) bool {
	switch e.Op {
	case OpConst:
		return e.Val
	case OpVar:
		i := f.index[e.Name]
		return point&(1<<uint(i)) != 0
	case OpNot:
		return !f.evalNode(e.Kids[0], point)
	case OpAnd:
		for _, k := range e.Kids {
			if !f.evalNode(k, point) {
				return false
			}
		}
		return true
	case OpOr:
		for _, k := range e.Kids {
			if f.evalNode(k, point) {
				return true
			}
		}
		return false
	}
	panic("bexpr: bad op")
}

// Cover flattens the expression to a two-level SOP cover over the
// function's variable order using only hazard-preserving laws
// (DeMorgan push-down, distribution). Vacuous products (containing a
// variable and its complement) are dropped — they contribute nothing to the
// ON-set; static-0 analysis uses LabeledCover instead, where paths keep
// them distinguishable. Structural duplicate cubes are merged, but no
// absorption is performed: redundant cubes are preserved.
func (f *Function) Cover() (cube.Cover, error) {
	if len(f.Vars) > cube.MaxVars {
		return cube.Cover{}, fmt.Errorf("bexpr: %d variables exceed the %d-variable limit", len(f.Vars), cube.MaxVars)
	}
	prods := f.sop(f.Root, false)
	out := cube.NewCover(len(f.Vars))
	for _, p := range prods {
		if p.vacuous {
			continue
		}
		out.Add(p.c)
	}
	out.Cubes = cube.DedupCubes(out.Cubes)
	return out, nil
}

// MustCover is Cover that panics on error; for static expression data.
func (f *Function) MustCover() cube.Cover {
	c, err := f.Cover()
	if err != nil {
		panic(err)
	}
	return c
}

type prod struct {
	c       cube.Cube
	vacuous bool
}

// sop returns the product terms of e (complemented when neg), with
// vacuous terms flagged rather than dropped so callers can decide.
func (f *Function) sop(e *Expr, neg bool) []prod {
	switch e.Op {
	case OpConst:
		if e.Val != neg {
			return []prod{{c: cube.Universal}}
		}
		return nil
	case OpVar:
		return []prod{{c: cube.FromLiteral(f.index[e.Name], !neg)}}
	case OpNot:
		return f.sop(e.Kids[0], !neg)
	case OpAnd, OpOr:
		conj := (e.Op == OpAnd) != neg // after DeMorgan, is this a product?
		parts := make([][]prod, len(e.Kids))
		for i, k := range e.Kids {
			parts[i] = f.sop(k, neg)
		}
		if !conj {
			var out []prod
			for _, p := range parts {
				out = append(out, p...)
			}
			return out
		}
		// Distribute: cartesian product of the children's terms.
		out := []prod{{c: cube.Universal}}
		for _, p := range parts {
			next := make([]prod, 0, len(out)*len(p))
			for _, a := range out {
				for _, b := range p {
					ic, ok := a.c.Intersect(b.c)
					if !ok {
						// A contradictory product is vacuous: it contains a
						// variable in both phases. Track it but keep no cube.
						next = append(next, prod{vacuous: true})
						continue
					}
					next = append(next, prod{c: ic, vacuous: a.vacuous || b.vacuous})
				}
			}
			out = next
		}
		return out
	}
	panic("bexpr: bad op")
}

// Equal reports structural equality of expressions.
func (e *Expr) Equal(o *Expr) bool {
	if e == nil || o == nil {
		return e == o
	}
	if e.Op != o.Op || e.Val != o.Val || e.Name != o.Name || len(e.Kids) != len(o.Kids) {
		return false
	}
	for i := range e.Kids {
		if !e.Kids[i].Equal(o.Kids[i]) {
			return false
		}
	}
	return true
}

// SortedVars returns a sorted copy of the variable order (useful for
// deterministic reporting).
func (f *Function) SortedVars() []string {
	out := append([]string(nil), f.Vars...)
	sort.Strings(out)
	return out
}

// Rename returns a copy of the expression with every variable name passed
// through f.
func Rename(e *Expr, f func(string) string) *Expr {
	switch e.Op {
	case OpConst:
		return Const(e.Val)
	case OpVar:
		return Var(f(e.Name))
	case OpNot:
		return Not(Rename(e.Kids[0], f))
	default:
		kids := make([]*Expr, len(e.Kids))
		for i, k := range e.Kids {
			kids[i] = Rename(k, f)
		}
		if e.Op == OpAnd {
			return And(kids...)
		}
		return Or(kids...)
	}
}
