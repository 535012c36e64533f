package gp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOpArityAndNames(t *testing.T) {
	if len(FunctionSet) != 14 {
		t.Fatalf("function set has %d entries, want 14 (paper §6)", len(FunctionSet))
	}
	for _, op := range FunctionSet {
		if a := op.Arity(); a != 1 && a != 2 {
			t.Fatalf("%s arity = %d", op.Name(), a)
		}
		if op.Name() == "" {
			t.Fatalf("op %d has empty name", op)
		}
	}
	if OpConst.Arity() != 0 || OpVar.Arity() != 0 {
		t.Fatal("terminals must have arity 0")
	}
}

func TestEvalBasics(t *testing.T) {
	x0, x1 := NewVar(0), NewVar(1)
	cases := []struct {
		name string
		tree *Node
		vars []float64
		want float64
	}{
		{"const", NewConst(4.5), nil, 4.5},
		{"var", x0, []float64{7}, 7},
		{"var out of range", NewVar(3), []float64{7}, 0},
		{"add", NewBinary(OpAdd, x0, x1), []float64{2, 3}, 5},
		{"sub", NewBinary(OpSub, x0, x1), []float64{2, 3}, -1},
		{"mul", NewBinary(OpMul, x0, x1), []float64{2, 3}, 6},
		{"div", NewBinary(OpDiv, x0, x1), []float64{6, 3}, 2},
		{"div by zero protected", NewBinary(OpDiv, x0, x1), []float64{6, 0}, 1},
		{"sqrt", NewUnary(OpSqrt, x0), []float64{9}, 3},
		{"sqrt negative protected", NewUnary(OpSqrt, x0), []float64{-9}, 3},
		{"log", NewUnary(OpLog, x0), []float64{math.E}, 1},
		{"log zero protected", NewUnary(OpLog, x0), []float64{0}, 0},
		{"abs", NewUnary(OpAbs, x0), []float64{-4}, 4},
		{"neg", NewUnary(OpNeg, x0), []float64{4}, -4},
		{"max", NewBinary(OpMax, x0, x1), []float64{2, 3}, 3},
		{"min", NewBinary(OpMin, x0, x1), []float64{2, 3}, 2},
		{"inv", NewUnary(OpInv, x0), []float64{4}, 0.25},
		{"inv zero protected", NewUnary(OpInv, x0), []float64{0}, 1},
		{"sin", NewUnary(OpSin, x0), []float64{0}, 0},
		{"cos", NewUnary(OpCos, x0), []float64{0}, 1},
		{"tan", NewUnary(OpTan, x0), []float64{0}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.tree.Eval(c.vars); math.Abs(got-c.want) > 1e-12 {
				t.Fatalf("Eval = %v, want %v", got, c.want)
			}
		})
	}
}

func TestTanPoleClamped(t *testing.T) {
	tree := NewUnary(OpTan, NewVar(0))
	v := tree.Eval([]float64{math.Pi / 2})
	if math.IsInf(v, 0) || math.IsNaN(v) || math.Abs(v) > 1e6 {
		t.Fatalf("tan near pole = %v, want clamped finite", v)
	}
}

func TestSizeDepthVars(t *testing.T) {
	// (X0 * X1) / 5
	tree := NewBinary(OpDiv, NewBinary(OpMul, NewVar(0), NewVar(1)), NewConst(5))
	if tree.Size() != 5 {
		t.Fatalf("Size = %d, want 5", tree.Size())
	}
	if tree.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3", tree.Depth())
	}
	vars := tree.Vars()
	if !vars[0] || !vars[1] || len(vars) != 2 {
		t.Fatalf("Vars = %v", vars)
	}
}

func TestCloneIndependence(t *testing.T) {
	tree := NewBinary(OpAdd, NewVar(0), NewConst(2))
	c := tree.Clone()
	c.R.Const = 99
	if tree.R.Const != 2 {
		t.Fatal("Clone shares nodes with original")
	}
}

func TestStringRendering(t *testing.T) {
	tree := NewBinary(OpDiv, NewBinary(OpMul, NewVar(0), NewVar(1)), NewConst(5))
	if got := tree.String(); got != "((X0 * X1) / 5)" {
		t.Fatalf("String = %q", got)
	}
	u := NewUnary(OpSqrt, NewVar(0))
	if got := u.String(); got != "sqrt(X0)" {
		t.Fatalf("String = %q", got)
	}
	m := NewBinary(OpMax, NewVar(0), NewConst(1.5))
	if got := m.String(); got != "max(X0, 1.5)" {
		t.Fatalf("String = %q", got)
	}
}

func TestNodeAtPreorder(t *testing.T) {
	// Preorder: div, mul, X0, X1, 5
	tree := NewBinary(OpDiv, NewBinary(OpMul, NewVar(0), NewVar(1)), NewConst(5))
	wantOps := []Op{OpDiv, OpMul, OpVar, OpVar, OpConst}
	for i, want := range wantOps {
		n := nodeAt(tree, i)
		if n == nil || n.Op != want {
			t.Fatalf("nodeAt(%d) = %v, want op %v", i, n, want)
		}
	}
	if nodeAt(tree, 5) != nil {
		t.Fatal("nodeAt out of range returned node")
	}
}

// Property: Eval is total (finite) for every tree built from protected ops
// over finite inputs.
func TestEvalTotalProperty(t *testing.T) {
	gen := &generator{rng: newTestRNG(5), numVars: 2, funcs: FunctionSet, constMin: -10, constMax: 10}
	f := func(x0, x1 float64) bool {
		if math.IsNaN(x0) || math.IsInf(x0, 0) || math.IsNaN(x1) || math.IsInf(x1, 0) {
			return true
		}
		// Bound magnitudes: astronomically large inputs legitimately
		// overflow float64 under repeated multiplication.
		if math.Abs(x0) > 1e6 || math.Abs(x1) > 1e6 {
			return true
		}
		tree := gen.grow(4)
		v := tree.Eval([]float64{x0, x1})
		return !math.IsNaN(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone produces trees that evaluate identically.
func TestClonePreservesSemanticsProperty(t *testing.T) {
	gen := &generator{rng: newTestRNG(6), numVars: 2, funcs: FunctionSet, constMin: -5, constMax: 5}
	for i := 0; i < 100; i++ {
		tree := gen.grow(5)
		c := tree.Clone()
		for j := 0; j < 10; j++ {
			vars := []float64{float64(j) - 5, float64(j) * 2}
			a, b := tree.Eval(vars), c.Eval(vars)
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("clone diverges: %v vs %v", a, b)
			}
		}
	}
}
