// Package gp implements genetic-programming symbolic regression, the
// paper's core formula-inference algorithm (§3.5 Step 2). Given (X, Y)
// samples — raw response-message bytes paired with the values a diagnostic
// tool displayed — it searches the space of arithmetic expressions for a
// formula f with f(X) ≈ Y.
//
// The design follows the paper's description of its gplearn-based
// implementation: syntax trees whose interior nodes are functions and whose
// leaves are variables/constants; a 14-function set (the four arithmetic
// operators plus square root, log, absolute value, negation, min, max,
// inverse and the three trigonometric functions, all protected against
// invalid inputs); tournament selection; subtree crossover; subtree, point
// and hoist mutation; mean-absolute-error fitness; and the paper's two
// stopping criteria — generation budget exhausted, or a program's fitness
// crossing the threshold.
package gp

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Op enumerates node operations. OpConst and OpVar are terminals; the rest
// are the 14-entry function set.
type Op int

// Operations.
const (
	OpConst Op = iota
	OpVar
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpSqrt
	OpLog
	OpAbs
	OpNeg
	OpMax
	OpMin
	OpInv
	OpSin
	OpCos
	OpTan
)

// FunctionSet lists the 14 function ops available to evolution.
var FunctionSet = []Op{
	OpAdd, OpSub, OpMul, OpDiv, OpSqrt, OpLog, OpAbs,
	OpNeg, OpMax, OpMin, OpInv, OpSin, OpCos, OpTan,
}

// Arity reports how many children an op takes (0 for terminals).
func (o Op) Arity() int {
	switch o {
	case OpConst, OpVar:
		return 0
	case OpAdd, OpSub, OpMul, OpDiv, OpMax, OpMin:
		return 2
	default:
		return 1
	}
}

// Name renders the op.
func (o Op) Name() string {
	switch o {
	case OpConst:
		return "const"
	case OpVar:
		return "var"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpSqrt:
		return "sqrt"
	case OpLog:
		return "log"
	case OpAbs:
		return "abs"
	case OpNeg:
		return "neg"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	case OpInv:
		return "inv"
	case OpSin:
		return "sin"
	case OpCos:
		return "cos"
	case OpTan:
		return "tan"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Node is one expression-tree node. The zero value is the constant 0.
type Node struct {
	Op    Op
	Const float64
	Var   int
	L, R  *Node // R is nil for unary ops; both nil for terminals
}

// NewConst returns a constant leaf.
func NewConst(v float64) *Node { return &Node{Op: OpConst, Const: v} }

// NewVar returns a variable leaf referencing input index i.
func NewVar(i int) *Node { return &Node{Op: OpVar, Var: i} }

// NewUnary builds a one-argument function node.
func NewUnary(op Op, child *Node) *Node {
	if op.Arity() != 1 {
		panic(fmt.Sprintf("gp: %s is not unary", op.Name()))
	}
	return &Node{Op: op, L: child}
}

// NewBinary builds a two-argument function node.
func NewBinary(op Op, l, r *Node) *Node {
	if op.Arity() != 2 {
		panic(fmt.Sprintf("gp: %s is not binary", op.Name()))
	}
	return &Node{Op: op, L: l, R: r}
}

// protectedEps guards the protected division/log/inverse against blowing up
// near zero, following the gplearn convention.
const protectedEps = 1e-6

// Eval computes the node's value on the given variable assignment. Missing
// variables read as 0. All functions are protected: they return finite
// values for every finite input, so evolution never propagates NaN/Inf.
//
// Eval is the reference interpreter; the fitness hot path runs the
// compiled form instead (see Compile and Program), which shares the same
// scalar kernels and is therefore bit-identical.
func (n *Node) Eval(vars []float64) float64 {
	switch n.Op {
	case OpConst:
		return n.Const
	case OpVar:
		if n.Var < 0 || n.Var >= len(vars) {
			return 0
		}
		return vars[n.Var]
	case OpAdd, OpSub, OpMul, OpDiv, OpMax, OpMin:
		return apply2(n.Op, n.L.Eval(vars), n.R.Eval(vars))
	case OpSqrt, OpLog, OpAbs, OpNeg, OpInv, OpSin, OpCos, OpTan:
		return apply1(n.Op, n.L.Eval(vars))
	default:
		return 0
	}
}

// Size counts the nodes of the tree.
func (n *Node) Size() int {
	if n == nil {
		return 0
	}
	return 1 + n.L.Size() + n.R.Size()
}

// Depth reports the tree height (a single node has depth 1).
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	l, r := n.L.Depth(), n.R.Depth()
	if r > l {
		l = r
	}
	return 1 + l
}

// Clone deep-copies the tree.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	return &Node{Op: n.Op, Const: n.Const, Var: n.Var, L: n.L.Clone(), R: n.R.Clone()}
}

// Vars reports which variable indices the tree references.
func (n *Node) Vars() map[int]bool {
	out := map[int]bool{}
	n.collectVars(out)
	return out
}

func (n *Node) collectVars(out map[int]bool) {
	if n == nil {
		return
	}
	if n.Op == OpVar {
		out[n.Var] = true
	}
	n.L.collectVars(out)
	n.R.collectVars(out)
}

// String renders the expression in infix form with variables named X0,
// X1, ... — the notation the paper's tables use.
func (n *Node) String() string {
	var b strings.Builder
	n.write(&b)
	return b.String()
}

func (n *Node) write(b *strings.Builder) {
	switch n.Op {
	case OpConst:
		b.WriteString(formatConst(n.Const))
	case OpVar:
		fmt.Fprintf(b, "X%d", n.Var)
	case OpAdd, OpSub, OpMul, OpDiv, OpMax, OpMin:
		if n.Op == OpMax || n.Op == OpMin {
			b.WriteString(n.Op.Name())
			b.WriteByte('(')
			n.L.write(b)
			b.WriteString(", ")
			n.R.write(b)
			b.WriteByte(')')
			return
		}
		b.WriteByte('(')
		n.L.write(b)
		b.WriteByte(' ')
		b.WriteString(n.Op.Name())
		b.WriteByte(' ')
		n.R.write(b)
		b.WriteByte(')')
	default:
		b.WriteString(n.Op.Name())
		b.WriteByte('(')
		n.L.write(b)
		b.WriteByte(')')
	}
}

func formatConst(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// nodeAt returns the i-th node in preorder (0-based), or nil if out of
// range.
func nodeAt(root *Node, i int) *Node {
	n, _ := seek(root, i)
	return n
}

// seek finds the i-th node of n's subtree in preorder, or returns nil and
// the index left to seek in the nodes after the subtree.
func seek(n *Node, i int) (*Node, int) {
	if n == nil {
		return nil, i
	}
	if i == 0 {
		return n, 0
	}
	found, i := seek(n.L, i-1)
	if found != nil {
		return found, 0
	}
	return seek(n.R, i)
}
