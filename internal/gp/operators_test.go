package gp

import (
	"math"
	"reflect"
	"testing"
)

// validTree checks structural invariants: arity matches children, no nil
// children where required.
func validTree(n *Node) bool {
	if n == nil {
		return false
	}
	switch n.Op.Arity() {
	case 0:
		return n.L == nil && n.R == nil
	case 1:
		return n.L != nil && n.R == nil && validTree(n.L)
	case 2:
		return n.L != nil && n.R != nil && validTree(n.L) && validTree(n.R)
	}
	return false
}

// breedingIsland returns an island whose population is trees (fitness
// rising with the index), ready to breed children.
func breedingIsland(t *testing.T, trees ...*Node) *island {
	t.Helper()
	cfg := DefaultConfig()
	cfg.PopulationSize, cfg.Seed = len(trees), 41
	isl := acquireIsland(islandTestDataset(), cfg)
	t.Cleanup(isl.release)
	// Islands seed their RNG on their first draw, and this one draws
	// nothing.
	isl.rng.Seed(cfg.Seed)
	for i, tree := range trees {
		isl.pops[0][i] = individual{tree: tree, size: tree.Size(), fit: float64(i)}
		isl.fits[i] = float64(i)
	}
	isl.pop = isl.pops[0]
	isl.gen.arena = isl.arenas[1]
	return isl
}

// Operator draws inside each variation operator's band, so that vary
// applies that operator with certainty.
const (
	pCrossover    = crossoverProb / 2
	pSubtree      = crossoverProb + subtreeMutProb/2
	pHoist        = crossoverProb + subtreeMutProb + pointMutProb + hoistMutProb/2
	pReproduction = 1 - hoistMutProb/10
)

// varyWinner builds a child, with the operator draw p, from a tournament
// winner of isl's population, as breed does.
func varyWinner(isl *island, p float64) *Node {
	return isl.vary(isl.pop[tournament(isl.fits, tournamentSize, &isl.pick, isl.rng)], p)
}

func TestCrossoverProducesValidTrees(t *testing.T) {
	gen := &generator{rng: newTestRNG(41), numVars: 2, funcs: FunctionSet, constMin: -5, constMax: 5}
	isl := breedingIsland(t, gen.grow(5), gen.grow(5), gen.full(4))
	for i := 0; i < 200; i++ {
		if child := varyWinner(isl, pCrossover); !validTree(child) || child.Depth() > maxDepth {
			t.Fatalf("crossover produced invalid tree: %v", child)
		}
	}
}

func TestSubtreeMutateProducesValidTrees(t *testing.T) {
	gen := &generator{rng: newTestRNG(43), numVars: 2, funcs: FunctionSet, constMin: -5, constMax: 5}
	isl := breedingIsland(t, gen.grow(5), gen.grow(5))
	for i := 0; i < 200; i++ {
		if child := varyWinner(isl, pSubtree); !validTree(child) || child.Depth() > maxDepth {
			t.Fatalf("subtree mutation produced invalid tree: %v", child)
		}
	}
}

func TestPointMutatePreservesShape(t *testing.T) {
	rng := newTestRNG(47)
	gen := &generator{rng: rng, numVars: 2, funcs: FunctionSet, constMin: -5, constMax: 5}
	for i := 0; i < 200; i++ {
		tree := gen.grow(5)
		size, depth := tree.Size(), tree.Depth()
		pointMutate(tree, size, gen, rng)
		if !validTree(tree) {
			t.Fatal("point mutation produced invalid tree")
		}
		if tree.Size() != size || tree.Depth() != depth {
			t.Fatalf("point mutation changed shape: %d/%d -> %d/%d",
				size, depth, tree.Size(), tree.Depth())
		}
	}
}

func TestHoistMutateShrinksOrKeeps(t *testing.T) {
	gen := &generator{rng: newTestRNG(53), numVars: 2, funcs: FunctionSet, constMin: -5, constMax: 5}
	tree := gen.full(5)
	isl := breedingIsland(t, tree)
	for i := 0; i < 200; i++ {
		hoisted := varyWinner(isl, pHoist)
		if !validTree(hoisted) {
			t.Fatal("hoist produced invalid tree")
		}
		if hoisted.Size() > tree.Size() {
			t.Fatal("hoist grew the tree")
		}
	}
}

func TestHoistToDepthTerminates(t *testing.T) {
	gen := &generator{rng: newTestRNG(59), numVars: 2, funcs: FunctionSet, constMin: -5, constMax: 5}
	isl := breedingIsland(t, gen.full(maxDepth+4))
	for i := 0; i < 50; i++ {
		if d := varyWinner(isl, pReproduction).Depth(); d > maxDepth {
			t.Fatalf("depth %d over a budget of %d", d, maxDepth)
		}
	}
}

// preorder lists tree's nodes in preorder.
func preorder(tree *Node) []*Node {
	if tree == nil {
		return nil
	}
	return append(append([]*Node{tree}, preorder(tree.L)...), preorder(tree.R)...)
}

// cloneReplaced is the two-pass form spliceCopy folds into one: clone
// root, then swap the clone's subtree at preorder index i for repl.
func cloneReplaced(root *Node, i int, repl *Node) *Node {
	if i == 0 {
		return repl
	}
	c := root.Clone()
	pre := preorder(c)
	for _, n := range pre {
		if n.L == pre[i] {
			n.L = repl
		} else if n.R == pre[i] {
			n.R = repl
		}
	}
	return c
}

// spliceCopy must build exactly the tree that cloning and then splicing
// builds, report its depth, link the graft as is and copy every other
// node, leaving the source untouched.
func TestSpliceCopyMatchesCloneThenSplice(t *testing.T) {
	rng := newTestRNG(67)
	gen := &generator{rng: rng, numVars: 3, funcs: FunctionSet, constMin: -5, constMax: 5}
	for i := 0; i < 300; i++ {
		src, graft := gen.grow(6), gen.grow(4)
		before := src.String()
		at := rng.Intn(src.Size())
		if i%5 == 0 {
			at = -1
		}
		got, depth := spliceCopy(newNodeArena(), src, at, graft, graft.Depth())
		want := src
		if at >= 0 {
			want = cloneReplaced(src, at, graft)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("splice of %v at %d with %v: got %v, want %v", src, at, graft, got, want)
		}
		if depth != want.Depth() {
			t.Fatalf("splice depth %d, tree depth %d", depth, want.Depth())
		}
		if src.String() != before {
			t.Fatal("spliceCopy modified its source")
		}
		if at >= 0 && nodeAt(got, at) != graft {
			t.Fatal("the graft must be linked, not copied")
		}
		copied := map[*Node]bool{}
		for _, n := range preorder(got) {
			copied[n] = true
		}
		for _, n := range preorder(src) {
			if copied[n] {
				t.Fatalf("copy shares node %v with its source", n)
			}
		}
	}
}

func TestSpliceCopyReplacesAtPreorderIndex(t *testing.T) {
	tree := NewBinary(OpDiv, NewBinary(OpMul, NewVar(0), NewVar(1)), NewConst(5))
	// Replace index 3 (X1) with constant 7 → (X0*7)/5.
	got, depth := spliceCopy(newNodeArena(), tree, 3, NewConst(7), 1)
	if v := got.Eval([]float64{10, 0}); math.Abs(v-14) > 1e-12 || depth != 3 {
		t.Fatalf("after replace Eval = %v, depth %d; want 14, 3", v, depth)
	}
	// Replace root.
	got, depth = spliceCopy(newNodeArena(), tree, 0, NewConst(3), 1)
	if got.Op != OpConst || got.Const != 3 || depth != 1 {
		t.Fatal("root replace failed")
	}
}

func TestGrowRespectsDepthBudget(t *testing.T) {
	rng := newTestRNG(61)
	gen := &generator{rng: rng, numVars: 2, funcs: FunctionSet, constMin: -5, constMax: 5}
	for d := 1; d <= 7; d++ {
		for i := 0; i < 50; i++ {
			if got := gen.grow(d).Depth(); got > d {
				t.Fatalf("grow(%d) produced depth %d", d, got)
			}
			if got := gen.full(d).Depth(); got != d && d >= 1 {
				// full may terminate early only at depth 1 (terminal).
				if d != 1 || got != 1 {
					t.Fatalf("full(%d) produced depth %d", d, got)
				}
			}
		}
	}
}

// Recovery of the nonlinear codecs the fleet embeds, at a realistic budget.
func TestRunRecoversQuadratic(t *testing.T) {
	// Y = 0.0017*X² (the "Boost pressure" codec).
	d := &Dataset{}
	for x := 40.0; x <= 250; x += 5 {
		d.X = append(d.X, []float64{x})
		d.Y = append(d.Y, 0.0017*x*x)
	}
	cfg := smallConfig(71)
	res, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	truth := NewBinary(OpMul, NewConst(0.0017), NewBinary(OpMul, NewVar(0), NewVar(0)))
	if !EquivalentRel(res.Best, truth, d.X, 0.5, 0.03) {
		t.Fatalf("recovered %q (fitness %v)", res.Best, res.Fitness)
	}
}

func TestRunRecoversSqrt(t *testing.T) {
	// Y = 0.75*sqrt(X) (the "Air mass flow" codec).
	d := &Dataset{}
	for x := 0.0; x <= 60000; x += 1500 {
		d.X = append(d.X, []float64{x})
		d.Y = append(d.Y, 0.75*math.Sqrt(x))
	}
	cfg := smallConfig(73)
	res, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	truth := NewBinary(OpMul, NewConst(0.75), NewUnary(OpSqrt, NewVar(0)))
	if !EquivalentRel(res.Best, truth, d.X, 1.0, 0.03) {
		t.Fatalf("recovered %q (fitness %v)", res.Best, res.Fitness)
	}
}

func TestLinearScaleFitsExactly(t *testing.T) {
	g := []float64{1, 2, 3, 4, 5}
	y := []float64{12, 14, 16, 18, 20} // y = 2g + 10
	a, b := scaleOne(g, y)
	if math.Abs(a-2) > 1e-9 || math.Abs(b-10) > 1e-9 {
		t.Fatalf("fit = %v, %v", a, b)
	}
}

func TestLinearScaleConstantG(t *testing.T) {
	g := []float64{3, 3, 3, 3}
	y := []float64{5, 7, 9, 11}
	a, b := scaleOne(g, y)
	if a != 0 || math.Abs(b-8) > 1e-9 {
		t.Fatalf("degenerate fit = %v, %v (want 0, mean)", a, b)
	}
}

func TestLinearScaleTrimsOutliers(t *testing.T) {
	var g, y []float64
	for i := 0; i < 50; i++ {
		g = append(g, float64(i))
		y = append(y, 2*float64(i))
	}
	y[10] = 5000 // decimal-loss style outlier
	y[30] = 4000
	a, b := scaleOne(g, y)
	if math.Abs(a-2) > 0.05 || math.Abs(b) > 2 {
		t.Fatalf("trimmed fit = %v, %v (outliers dragged it)", a, b)
	}
}

func TestTrimmedMeanBehaviour(t *testing.T) {
	if v := trimmedMean(nil); !math.IsInf(v, 1) {
		t.Fatalf("empty = %v", v)
	}
	small := []float64{1, 2, 3}
	if v := trimmedMean(append([]float64(nil), small...)); math.Abs(v-2) > 1e-9 {
		t.Fatalf("small = %v", v)
	}
	// 10 values, two huge: trimming drops the worst 20%.
	big := []float64{1, 1, 1, 1, 1, 1, 1, 1, 100, 100}
	if v := trimmedMean(append([]float64(nil), big...)); v != 1 {
		t.Fatalf("trimmed = %v, want 1", v)
	}
}
