package gp

import (
	"math"
	"sync"
)

// machinePool serves VM scratch to the one-shot scoring entry points
// (MAE and RobustMAE). The evolution engine does not use it: each
// evaluator owns a machine outright.
var machinePool = sync.Pool{New: func() any { return NewMachine() }}

// MAE computes the mean absolute error of program n on the dataset.
func MAE(n *Node, d *Dataset) float64 {
	if len(d.Y) == 0 {
		return math.Inf(1)
	}
	c := compilerPool.Get().(*Compiler)
	defer compilerPool.Put(c)
	m := machinePool.Get().(*Machine)
	defer machinePool.Put(m)
	return meanDiff(c.Compile(n).Eval(NewBatch(d), m), d.Y)
}

// RobustMAE scores program t on d with the same trimmed-mean criterion the
// evolution uses (exported for the experiment harness and ablations).
func RobustMAE(t *Node, d *Dataset) float64 {
	c := compilerPool.Get().(*Compiler)
	defer compilerPool.Put(c)
	m := machinePool.Get().(*Machine)
	defer machinePool.Put(m)
	return c.Compile(t).robustMAE(NewBatch(d), m)
}

// meanDiff is MAE's accumulation: mean |pred-y|, infinite as soon as any
// difference is non-finite.
//
//dplint:hotpath gp-score
func meanDiff(preds, y []float64) float64 {
	sum := 0.0
	for i, v := range preds {
		diff := v - y[i]
		if math.IsNaN(diff) || math.IsInf(diff, 0) {
			return math.Inf(1)
		}
		sum += math.Abs(diff)
	}
	return sum / float64(len(y))
}

// robustMAE is the allocation-free core of RobustMAE and the post-run
// simplification guard: machine-owned scratch and batch evaluation.
//
//dplint:hotpath gp-score
func (p *Program) robustMAE(b *Batch, m *Machine) float64 {
	preds := p.Eval(b, m)
	resids := m.resids(len(preds))
	for i, v := range preds {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return math.Inf(1)
		}
		resids[i] = math.Abs(v - b.y[i])
	}
	return trimmedMean(resids)
}
