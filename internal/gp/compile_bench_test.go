package gp

import (
	"math/rand"
	"testing"
)

// benchTree is a representative mid-size evolved formula shape: mixed
// arithmetic with a protected division and a foldable constant subtree.
func benchTree() *Node {
	// ((X0 * (2 * 1.5)) + sqrt(X1)) / (X1 - 3) + X0
	return NewBinary(OpAdd,
		NewBinary(OpDiv,
			NewBinary(OpAdd,
				NewBinary(OpMul, NewVar(0), NewBinary(OpMul, NewConst(2), NewConst(1.5))),
				NewUnary(OpSqrt, NewVar(1))),
			NewBinary(OpSub, NewVar(1), NewConst(3))),
		NewVar(0))
}

func benchDataset(rows int) *Dataset {
	rng := rand.New(rand.NewSource(1))
	d := &Dataset{}
	for i := 0; i < rows; i++ {
		d.X = append(d.X, []float64{rng.Float64() * 255, rng.Float64() * 255})
		d.Y = append(d.Y, rng.Float64()*100)
	}
	return d
}

// BenchmarkGPTreeEval measures the reference interpreter: one recursive
// Node.Eval per (tree, sample) pair — the pre-engine fitness inner loop.
func BenchmarkGPTreeEval(b *testing.B) {
	tree := benchTree()
	d := benchDataset(256)
	sink := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, row := range d.X {
			sink += tree.Eval(row)
		}
	}
	_ = sink
}

// BenchmarkGPCompiledEval measures the compiled engine on the same
// workload: whole-dataset batch execution on a reused machine. Steady
// state must report ~0 allocs/op.
func BenchmarkGPCompiledEval(b *testing.B) {
	tree := benchTree()
	d := benchDataset(256)
	p := Compile(tree)
	batch := NewBatch(d)
	m := NewMachine()
	sink := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preds := p.Eval(batch, m)
		sink += preds[0]
	}
	_ = sink
}

// BenchmarkGPCompiledEvalWithCompile includes the per-tree Compile cost —
// the true per-candidate cost paid on a fitness-cache miss. It compiles
// into sync.Pool-backed scratch the way the engine and the one-shot score
// helpers do (the evaluator owns a Compiler; MAE leases one),
// so steady state must report 0 allocs/op. The package-level Compile is
// deliberately not measured here: its Program is immutable and
// concurrency-safe, which costs owned copies by contract.
func BenchmarkGPCompiledEvalWithCompile(b *testing.B) {
	tree := benchTree()
	d := benchDataset(256)
	batch := NewBatch(d)
	m := NewMachine()
	sink := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := compilerPool.Get().(*Compiler)
		p := c.Compile(tree)
		preds := p.Eval(batch, m)
		sink += preds[0]
		compilerPool.Put(c)
	}
	_ = sink
}

// BenchmarkGPFitnessCache measures a full small evolution and reports
// the cross-generation cache hit rate alongside the timing.
func BenchmarkGPFitnessCache(b *testing.B) {
	d := benchDataset(128)
	cfg := DefaultConfig()
	cfg.PopulationSize = 300
	cfg.Generations = 10
	cfg.StopFitness = -1
	b.ReportAllocs()
	hits, total := 0, 0
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := Run(d, cfg)
		if err != nil {
			b.Fatal(err)
		}
		hits += res.CacheHits
		total += res.Evaluations
	}
	if total > 0 {
		b.ReportMetric(float64(hits)/float64(total), "hit-rate")
	}
}

// BenchmarkGPRunConverging runs the engine on a stream the stop ladder
// cannot fit (5·ln(a) + 3), at the benchmark's quick budget and the
// paper's, so every run draws and scores at least one chunk of its
// initial population: the cost is the ladder, the drawn programs'
// scoring and any breeding until the stop. A run that ends before
// drawing fails the benchmark, so it cannot decay into timing set-up.
func BenchmarkGPRunConverging(b *testing.B) {
	d := logDataset()
	for _, budget := range []struct {
		name      string
		pop, gens int
	}{{"quick", 150, 10}, {"paper", 1000, 30}} {
		b.Run(budget.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.PopulationSize, cfg.Generations = budget.pop, budget.gens
			b.ReportAllocs()
			evals := 0
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				res, err := Run(d, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Evaluations < initChunk {
					b.Fatalf("seed %d: the run ended after %d evaluations, before drawing its initial population",
						cfg.Seed, res.Evaluations)
				}
				evals += res.Evaluations
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
		})
	}
}
