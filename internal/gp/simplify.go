package gp

import "math"

// Simplify returns a semantically equivalent, usually smaller tree:
// constant subexpressions fold, constant factors and offsets merge across
// nested multiplications/divisions/additions, and the common algebraic
// identities (x+0, x*1, x*0, x-x, x/1, neg(neg(x)), abs(abs(x))) collapse.
// The result is a new tree; the input is not modified.
//
// Folding uses the same protected semantics as Eval, so a folded constant
// equals what evaluation would have produced.
func Simplify(n *Node) *Node {
	if n == nil {
		return nil
	}
	out := simplifyOnce(n)
	for i := 0; i < 6; i++ {
		next := simplifyOnce(out)
		if equalTrees(next, out) {
			break
		}
		out = next
	}
	return out
}

func simplifyOnce(n *Node) *Node {
	if n == nil {
		return nil
	}
	out := &Node{Op: n.Op, Const: n.Const, Var: n.Var}
	out.L = simplifyOnce(n.L)
	out.R = simplifyOnce(n.R)

	// Fold fully constant subtrees.
	if out.Op != OpConst && out.Op != OpVar && isConst(out.L) && (out.R == nil || isConst(out.R)) {
		v := out.Eval(nil)
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			return NewConst(v)
		}
	}

	switch out.Op {
	case OpAdd:
		if constVal(out.L, 0) {
			return out.R
		}
		if constVal(out.R, 0) {
			return out.L
		}
		// Canonical form: constant offset on the right.
		if isConst(out.L) && !isConst(out.R) {
			out.L, out.R = out.R, out.L
		}
		// Merge nested constant offsets: (e+a)+b → e+(a+b).
		if isConst(out.R) && out.L.Op == OpAdd && isConst(out.L.R) {
			return NewBinary(OpAdd, out.L.L, NewConst(out.L.R.Const+out.R.Const))
		}
	case OpSub:
		if constVal(out.R, 0) {
			return out.L
		}
		if equalTrees(out.L, out.R) {
			return NewConst(0)
		}
	case OpMul:
		if constVal(out.L, 1) {
			return out.R
		}
		if constVal(out.R, 1) {
			return out.L
		}
		if constVal(out.L, 0) || constVal(out.R, 0) {
			return NewConst(0)
		}
		// Canonical form: constant factor on the left.
		if isConst(out.R) && !isConst(out.L) {
			out.L, out.R = out.R, out.L
		}
		// Merge nested constant factors: a*(b*e) → (a*b)*e.
		if isConst(out.L) && out.R.Op == OpMul {
			if isConst(out.R.L) {
				return NewBinary(OpMul, NewConst(out.L.Const*out.R.L.Const), out.R.R)
			}
			if isConst(out.R.R) {
				return NewBinary(OpMul, NewConst(out.L.Const*out.R.R.Const), out.R.L)
			}
		}
		// Distribute a constant factor over a constant offset (size-neutral,
		// enables further factor merging): a*(e+b) → a*e + a*b.
		if isConst(out.L) && out.R.Op == OpAdd && isConst(out.R.R) {
			return NewBinary(OpAdd,
				NewBinary(OpMul, NewConst(out.L.Const), out.R.L),
				NewConst(out.L.Const*out.R.R.Const))
		}
		if isConst(out.L) && out.R.Op == OpSub && isConst(out.R.R) {
			return NewBinary(OpAdd,
				NewBinary(OpMul, NewConst(out.L.Const), out.R.L),
				NewConst(-out.L.Const*out.R.R.Const))
		}
	case OpDiv:
		if constVal(out.R, 1) {
			return out.L
		}
		if equalTrees(out.L, out.R) && !isConst(out.L) {
			// x/x is 1 except near x=0 where protection yields 1 anyway.
			return NewConst(1)
		}
		// Division by a (non-tiny) constant becomes a constant factor so
		// the multiplication folding can merge it.
		if isConst(out.R) && math.Abs(out.R.Const) >= protectedEps {
			return NewBinary(OpMul, NewConst(1/out.R.Const), out.L)
		}
	case OpNeg:
		if out.L.Op == OpNeg {
			return out.L.L
		}
	case OpAbs:
		if out.L.Op == OpAbs {
			return out.L
		}
	case OpMax, OpMin:
		if equalTrees(out.L, out.R) {
			return out.L
		}
	}
	return out
}

func isConst(n *Node) bool { return n != nil && n.Op == OpConst }

func constVal(n *Node, v float64) bool {
	return isConst(n) && n.Const == v
}

// equalTrees reports structural equality.
func equalTrees(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Op != b.Op || a.Const != b.Const || a.Var != b.Var {
		return false
	}
	return equalTrees(a.L, b.L) && equalTrees(a.R, b.R)
}

// EquivalentRel reports whether two programs agree on every row of the
// sample domain within a mixed absolute/relative tolerance:
// |a-b| <= absTol + relTol*|b|, which matches how the paper compares
// formulas whose outputs span different magnitudes. The experiments use
// this to score an inferred formula against ground truth over the byte
// ranges actually observed in traffic — the paper's own acceptance
// criterion ("if the coefficient ... is very close ... we regard the
// inferred formula as a correct one", and the Engine Coolant Temperature
// argument in §4.2).
func EquivalentRel(a, b *Node, domain [][]float64, absTol, relTol float64) bool {
	if len(domain) == 0 {
		return false
	}
	for _, row := range domain {
		va, vb := a.Eval(row), b.Eval(row)
		if math.IsNaN(va) || math.IsNaN(vb) {
			return false
		}
		if math.Abs(va-vb) > absTol+relTol*math.Abs(vb) {
			return false
		}
	}
	return true
}
