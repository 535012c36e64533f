package gp

import (
	"math"
	"testing"
)

func TestSimplifyConstantFolding(t *testing.T) {
	// (2 + 3) * X0 → 5 * X0
	tree := NewBinary(OpMul, NewBinary(OpAdd, NewConst(2), NewConst(3)), NewVar(0))
	s := Simplify(tree)
	if s.String() != "(5 * X0)" {
		t.Fatalf("Simplify = %q", s)
	}
}

func TestSimplifyIdentities(t *testing.T) {
	x := NewVar(0)
	cases := []struct {
		name string
		tree *Node
		want string
	}{
		{"x+0", NewBinary(OpAdd, x.Clone(), NewConst(0)), "X0"},
		{"0+x", NewBinary(OpAdd, NewConst(0), x.Clone()), "X0"},
		{"x-0", NewBinary(OpSub, x.Clone(), NewConst(0)), "X0"},
		{"x-x", NewBinary(OpSub, x.Clone(), x.Clone()), "0"},
		{"x*1", NewBinary(OpMul, x.Clone(), NewConst(1)), "X0"},
		{"1*x", NewBinary(OpMul, NewConst(1), x.Clone()), "X0"},
		{"x*0", NewBinary(OpMul, x.Clone(), NewConst(0)), "0"},
		{"x/1", NewBinary(OpDiv, x.Clone(), NewConst(1)), "X0"},
		{"x/x", NewBinary(OpDiv, x.Clone(), x.Clone()), "1"},
		{"neg(neg(x))", NewUnary(OpNeg, NewUnary(OpNeg, x.Clone())), "X0"},
		{"abs(abs(x))", NewUnary(OpAbs, NewUnary(OpAbs, x.Clone())), "abs(X0)"},
		{"max(x,x)", NewBinary(OpMax, x.Clone(), x.Clone()), "X0"},
		{"min(x,x)", NewBinary(OpMin, x.Clone(), x.Clone()), "X0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Simplify(c.tree).String(); got != c.want {
				t.Fatalf("Simplify = %q, want %q", got, c.want)
			}
		})
	}
}

func TestSimplifyNested(t *testing.T) {
	// ((X0 * 1) + (2 - 2)) → X0
	tree := NewBinary(OpAdd,
		NewBinary(OpMul, NewVar(0), NewConst(1)),
		NewBinary(OpSub, NewConst(2), NewConst(2)))
	if got := Simplify(tree).String(); got != "X0" {
		t.Fatalf("Simplify = %q", got)
	}
}

func TestSimplifyDoesNotModifyInput(t *testing.T) {
	tree := NewBinary(OpAdd, NewVar(0), NewConst(0))
	before := tree.String()
	Simplify(tree)
	if tree.String() != before {
		t.Fatal("Simplify mutated its input")
	}
}

func TestSimplifyNil(t *testing.T) {
	if Simplify(nil) != nil {
		t.Fatal("Simplify(nil) != nil")
	}
}

// Property: simplification preserves semantics on random trees across a
// sample domain.
func TestSimplifyPreservesSemantics(t *testing.T) {
	gen := &generator{rng: newTestRNG(31), numVars: 2, funcs: FunctionSet, constMin: -5, constMax: 5}
	domain := [][]float64{{0, 0}, {1, 2}, {-3, 4}, {100, -7}, {0.5, 0.25}}
	for i := 0; i < 300; i++ {
		tree := gen.grow(5)
		s := Simplify(tree)
		for _, row := range domain {
			a, b := tree.Eval(row), s.Eval(row)
			if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
				t.Fatalf("tree %q simplified to %q: %v vs %v on %v", tree, s, a, b, row)
			}
		}
		if s.Size() > tree.Size() {
			t.Fatalf("simplification grew tree: %d -> %d", tree.Size(), s.Size())
		}
	}
}

func TestEquivalent(t *testing.T) {
	a := NewBinary(OpMul, NewVar(0), NewConst(2))
	b := NewBinary(OpAdd, NewVar(0), NewVar(0))
	domain := [][]float64{{0}, {1}, {5}, {-3}}
	if !EquivalentRel(a, b, domain, 1e-9, 0) {
		t.Fatal("2*x and x+x not equivalent")
	}
	c := NewBinary(OpMul, NewVar(0), NewConst(2.1))
	if EquivalentRel(a, c, domain, 1e-9, 0) {
		t.Fatal("2*x and 2.1*x reported equivalent")
	}
	if EquivalentRel(a, b, nil, 1e-9, 0) {
		t.Fatal("empty domain reported equivalent")
	}
}

func TestEquivalentRel(t *testing.T) {
	// 1.7x-22 vs 1.8x-40 over x ∈ [160,192]: the paper's §4.2 coolant
	// example — outputs 250-304 vs 248-305 are "almost the same".
	inferred := NewBinary(OpSub, NewBinary(OpMul, NewConst(1.7), NewVar(0)), NewConst(22))
	truth := NewBinary(OpSub, NewBinary(OpMul, NewConst(1.8), NewVar(0)), NewConst(40))
	var domain [][]float64
	for x := 160.0; x <= 192; x++ {
		domain = append(domain, []float64{x})
	}
	if !EquivalentRel(inferred, truth, domain, 1.0, 0.02) {
		t.Fatal("paper's coolant-temperature equivalence not accepted")
	}
	// But over a wide domain they must differ.
	var wide [][]float64
	for x := 0.0; x <= 255; x += 5 {
		wide = append(wide, []float64{x})
	}
	if EquivalentRel(inferred, truth, wide, 1.0, 0.02) {
		t.Fatal("formulas equivalent over full domain, should differ")
	}
}
