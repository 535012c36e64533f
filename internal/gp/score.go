package gp

import (
	"math"
	"sync"
)

// machinePool serves VM scratch to the one-shot scoring entry points
// (MAE, MSE and RobustMAE). The evolution engine does not use it: each
// evaluator owns a machine outright.
var machinePool = sync.Pool{New: func() any { return NewMachine() }}

// MAE computes the mean absolute error of program n on the dataset.
func MAE(n *Node, d *Dataset) float64 {
	if len(d.Y) == 0 {
		return math.Inf(1)
	}
	return scoreCompiled(n, d, func(preds []float64) float64 {
		return meanDiff(preds, d.Y, false)
	})
}

// MSE computes the mean squared error of program n on the dataset.
func MSE(n *Node, d *Dataset) float64 {
	if len(d.Y) == 0 {
		return math.Inf(1)
	}
	return scoreCompiled(n, d, func(preds []float64) float64 {
		return meanDiff(preds, d.Y, true)
	})
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

// scoreCompiled runs n's compiled form over the dataset and hands the
// predictions to the metric — the one scoring helper behind every public
// metric entry point.
func scoreCompiled(n *Node, d *Dataset, metric func(preds []float64) float64) float64 {
	c := compilerPool.Get().(*Compiler)
	defer compilerPool.Put(c)
	m := machinePool.Get().(*Machine)
	defer machinePool.Put(m)
	return metric(c.Compile(n).Eval(NewBatch(d), m))
}

// meanDiff is the shared MAE/MSE accumulation: mean |pred-y| or mean
// (pred-y)², infinite as soon as any difference is non-finite.
//
//dplint:hotpath gp-score
func meanDiff(preds, y []float64, squared bool) float64 {
	sum := 0.0
	for i, v := range preds {
		diff := v - y[i]
		if math.IsNaN(diff) || math.IsInf(diff, 0) {
			return math.Inf(1)
		}
		if squared {
			sum += diff * diff
		} else {
			sum += math.Abs(diff)
		}
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
