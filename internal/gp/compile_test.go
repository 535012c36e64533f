package gp

import (
	"math"
	"math/rand"
	"testing"
)

// edgeValues are the inputs that exercise every protected-op branch:
// exact zeros and near-eps values (protected div/log/inv), negatives
// (sqrt/log of negative arguments), magnitudes that overflow to ±Inf
// under multiplication, and NaN/±Inf themselves.
var edgeValues = []float64{
	0, -0.0, protectedEps / 2, -protectedEps / 2, protectedEps, -protectedEps,
	1e-7, -1e-7, 1, -1, 0.5, -2.5, 255, -255, 1e6, -1e6, 1e155, -1e155,
	math.Pi / 2, -math.Pi / 2, math.Inf(1), math.Inf(-1), math.NaN(),
}

// randomTree grows a random tree whose constants are biased toward the
// protected-op edge values and whose variable indices may fall outside
// the dataset width (Eval defines those to read 0).
func randomTree(rng *rand.Rand, depth, numVars int) *Node {
	if depth <= 1 || rng.Float64() < 0.3 {
		switch rng.Intn(3) {
		case 0:
			return NewConst(edgeValues[rng.Intn(len(edgeValues))])
		case 1:
			return NewConst(rng.NormFloat64() * 100)
		default:
			// Occasionally out of range (numVars..numVars+1) or negative.
			return NewVar(rng.Intn(numVars+2) - rng.Intn(2)*(numVars+2))
		}
	}
	op := FunctionSet[rng.Intn(len(FunctionSet))]
	if op.Arity() == 1 {
		return NewUnary(op, randomTree(rng, depth-1, numVars))
	}
	return NewBinary(op, randomTree(rng, depth-1, numVars), randomTree(rng, depth-1, numVars))
}

// randomEdgeDataset builds rows drawn from the edge values and random
// magnitudes.
func randomEdgeDataset(rng *rand.Rand, rows, numVars int) *Dataset {
	d := &Dataset{}
	for i := 0; i < rows; i++ {
		row := make([]float64, numVars)
		for v := range row {
			if rng.Float64() < 0.5 {
				row[v] = edgeValues[rng.Intn(len(edgeValues))]
			} else {
				row[v] = rng.NormFloat64() * 1000
			}
		}
		d.X = append(d.X, row)
		if rng.Float64() < 0.1 {
			d.Y = append(d.Y, edgeValues[rng.Intn(len(edgeValues))])
		} else {
			d.Y = append(d.Y, rng.NormFloat64()*100)
		}
	}
	return d
}

// sameBits reports float64 identity at the bit level, except that all
// NaN payloads are considered equal (the interpreter and the VM may
// legitimately produce differently-signed NaNs from the same operation
// on some architectures; "is NaN" is the semantic contract).
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestCompiledParityFuzz is the differential test the engine's
// determinism contract rests on: across a fuzzed corpus of random trees
// (edge constants, protected-op edge inputs, out-of-range variables) the
// VM must return bit-identical float64 results to Node.Eval on every
// sample. Run under -race in CI.
func TestCompiledParityFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		numVars := 1 + rng.Intn(3)
		tree := randomTree(rng, 2+rng.Intn(5), numVars)
		d := randomEdgeDataset(rng, 1+rng.Intn(40), numVars)
		p := Compile(tree)
		b := NewBatch(d)
		m := NewMachine()
		preds := p.Eval(b, m)
		if len(preds) != len(d.X) {
			t.Fatalf("trial %d: %d predictions for %d rows", trial, len(preds), len(d.X))
		}
		for i, row := range d.X {
			want := tree.Eval(row)
			if !sameBits(preds[i], want) {
				t.Fatalf("trial %d, row %d: tree %s\nVM=%x (%v) interpreter=%x (%v)",
					trial, i, tree, math.Float64bits(preds[i]), preds[i],
					math.Float64bits(want), want)
			}
		}
	}
}

// referenceMAE/RobustMAE are the pre-engine interpreter loops, kept
// verbatim as the behavioral reference for the deduplicated helpers.
func referenceMAE(n *Node, d *Dataset) float64 {
	if len(d.Y) == 0 {
		return math.Inf(1)
	}
	sum := 0.0
	for i, row := range d.X {
		diff := n.Eval(row) - d.Y[i]
		if math.IsNaN(diff) || math.IsInf(diff, 0) {
			return math.Inf(1)
		}
		sum += math.Abs(diff)
	}
	return sum / float64(len(d.Y))
}

func referenceRobustMAE(n *Node, d *Dataset) float64 {
	resids := make([]float64, 0, len(d.Y))
	for i, row := range d.X {
		v := n.Eval(row)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return math.Inf(1)
		}
		resids = append(resids, math.Abs(v-d.Y[i]))
	}
	return trimmedMean(resids)
}

// TestMetricParityFuzz pins MAE/RobustMAE to their pre-engine
// interpreter semantics bit for bit, including the Inf short-circuits.
func TestMetricParityFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		numVars := 1 + rng.Intn(3)
		tree := randomTree(rng, 2+rng.Intn(4), numVars)
		d := randomEdgeDataset(rng, 1+rng.Intn(30), numVars)
		if got, want := MAE(tree, d), referenceMAE(tree, d); !sameBits(got, want) {
			t.Fatalf("trial %d: MAE=%v want %v for %s", trial, got, want, tree)
		}
		if got, want := RobustMAE(tree, d), referenceRobustMAE(tree, d); !sameBits(got, want) {
			t.Fatalf("trial %d: RobustMAE=%v want %v for %s", trial, got, want, tree)
		}
	}
}

// The post-run simplification guard scores on the run's own evaluator,
// whose machine and batch have already served a population, and on
// another dataset before that. Its score must equal the reference
// interpreter's bit for bit, and its keep/drop decision must be the
// reference's, across random trees on edge-input datasets, a NaN target
// and a non-finite prediction.
func TestSimplifyGuardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := DefaultConfig()
	cfg.PopulationSize = initChunk
	nonFinite := NewBinary(OpMul, NewVar(0), NewConst(math.Inf(1)))
	for trial := 0; trial < 60; trial++ {
		numVars := 1 + rng.Intn(2)
		d := randomEdgeDataset(rng, 1+rng.Intn(200), numVars)
		if trial%3 == 0 {
			d.Y[rng.Intn(len(d.Y))] = math.NaN()
		}
		cfg.Seed = rng.Int63()
		isl := acquireIsland(d, cfg)
		drawAll(isl)
		trees := []*Node{nonFinite}
		for i := 0; i < 5; i++ {
			trees = append(trees, randomTree(rng, 2+rng.Intn(4), numVars))
		}
		for _, tree := range trees {
			want := referenceRobustMAE(tree, d)
			got := isl.ev.robustMAE(tree)
			if !sameBits(got, want) {
				t.Fatalf("trial %d: guard scores %v, reference %v for %s", trial, got, want, tree)
			}
			for _, bound := range []float64{0, math.Inf(1), want, math.Abs(rng.NormFloat64()) * 100} {
				if keep, wantKeep := !(got > bound), !(want > bound); keep != wantKeep {
					t.Fatalf("trial %d: bound %v keeps %v, reference %v for %s", trial, bound, keep, wantKeep, tree)
				}
			}
		}
		isl.release()
	}
}

// TestConstantFolding checks the compiler collapses const-only subtrees
// (with interpreter-identical values) and canonicalises negative
// variable indices.
func TestConstantFolding(t *testing.T) {
	// sqrt(abs(-4)) + (2 * 3) is all constants: one instruction.
	tree := NewBinary(OpAdd,
		NewUnary(OpSqrt, NewUnary(OpAbs, NewConst(-4))),
		NewBinary(OpMul, NewConst(2), NewConst(3)))
	p := Compile(tree)
	if p.Len() != 1 {
		t.Fatalf("constant tree compiled to %d instructions, want 1", p.Len())
	}
	if got, want := p.Eval(NewBatch(&Dataset{X: [][]float64{{0}}, Y: []float64{0}}), NewMachine())[0], tree.Eval([]float64{0}); !sameBits(got, want) {
		t.Fatalf("folded value %v, want %v", got, want)
	}
	// A negative variable index always reads 0: folds to const.
	if p := Compile(NewVar(-3)); p.Len() != 1 || p.code[0].op != OpConst {
		t.Fatalf("negative var compiled to %+v", p.code)
	}
	// Folding is semantic, so a folded tree and its literal constant
	// share one cache key; an unfoldable tree does not.
	k1 := Compile(NewBinary(OpMul, NewConst(2), NewConst(3))).Key()
	k2 := Compile(NewConst(6)).Key()
	if k1 != k2 {
		t.Fatal("folded 2*3 and literal 6 have different keys")
	}
	if Compile(NewVar(0)).Key() == k2 {
		t.Fatal("X0 shares a key with the constant 6")
	}
}

// TestCacheCountersDeterministic verifies the cache behaves identically
// on a repeated run — counters included — and that the accounting
// invariant holds.
func TestCacheCountersDeterministic(t *testing.T) {
	d := linear2Dataset()
	cfg := DefaultConfig()
	cfg.PopulationSize = 150
	cfg.Generations = 6
	cfg.StopFitness = -1
	cfg.Seed = 11
	var want Result
	for i := 0; i < 2; i++ {
		res, err := Run(d, cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.CacheHits+res.CacheMisses != res.Evaluations {
			t.Fatalf("hits %d + misses %d != evaluations %d",
				res.CacheHits, res.CacheMisses, res.Evaluations)
		}
		if res.CacheHits == 0 {
			t.Fatal("no cache hits across 6 generations of elitism and crossover")
		}
		if i == 0 {
			want = res
			continue
		}
		if res.CacheHits != want.CacheHits || res.CacheMisses != want.CacheMisses ||
			res.Best.String() != want.Best.String() || res.Fitness != want.Fitness {
			t.Fatalf("run %d diverged: %+v vs %+v", i, res, want)
		}
	}
}
