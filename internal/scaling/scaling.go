// Package scaling implements the paper's Table 2 magnitude normalisation
// (§3.5 Step 3): before inference, X and Y samples are rescaled so most
// values land in the window where GP is best behaved, and after inference
// the scale factors are substituted back into the recovered formula
// (the table's "Replace(Y', Y/10³)" post-processing).
//
// The paper's rule: if more than half of the |Y| values are larger than 10
// they are reduced by the band's power of ten; if more than half are
// smaller than 1 they are enlarged. X values are integers ≥ 0 and are only
// ever reduced.
package scaling

import (
	"context"
	"math"

	"dpreverser/internal/gp"
)

// Plan records the factors chosen for one dataset: each variable and the
// target are multiplied by their factor before inference.
type Plan struct {
	// XFactors has one multiplier per input variable.
	XFactors []float64
	// YFactor multiplies the target.
	YFactor float64
}

// reductionFactor implements the Table 2 bands for values that are too
// large: the result is the multiplier (≤ 1) to apply.
func reductionFactor(mag float64) float64 {
	switch {
	case mag > 1e4:
		return 1e-4
	case mag > 1e3:
		return 1e-3
	case mag > 1e2:
		return 1e-2
	case mag > 10:
		return 1e-1
	default:
		return 1
	}
}

// enlargementFactor implements the Table 2 bands for values that are too
// small: the result is the multiplier (≥ 1) to apply.
func enlargementFactor(mag float64) float64 {
	switch {
	case mag < 1e-3:
		return 1e4
	case mag < 1e-2:
		return 1e3
	case mag < 1e-1:
		return 1e2
	case mag < 1.0:
		return 10
	default:
		return 1
	}
}

// factorFor picks the multiplier for a value population following the
// paper's majority rule, keyed on the median magnitude.
func factorFor(values []float64, allowEnlarge bool) float64 {
	if len(values) == 0 {
		return 1
	}
	over10, under1 := 0, 0
	for _, v := range values {
		a := math.Abs(v)
		if a > 10 {
			over10++
		}
		if a < 1 {
			under1++
		}
	}
	med := medianAbs(values)
	if over10*2 > len(values) {
		return reductionFactor(med)
	}
	if allowEnlarge && under1*2 > len(values) {
		if med == 0 {
			return 1 // all-zero target: no finite enlargement helps
		}
		return enlargementFactor(med)
	}
	return 1
}

func medianAbs(values []float64) float64 {
	abs := make([]float64, len(values))
	for i, v := range values {
		abs[i] = math.Abs(v)
	}
	// Insertion sort: populations are small (hundreds).
	for i := 1; i < len(abs); i++ {
		for j := i; j > 0 && abs[j-1] > abs[j]; j-- {
			abs[j-1], abs[j] = abs[j], abs[j-1]
		}
	}
	return abs[len(abs)/2]
}

// PlanFor inspects a dataset and picks the Table 2 factors: Y may be
// reduced or enlarged; X variables (integer byte values) are only reduced.
func PlanFor(d *gp.Dataset) Plan {
	p := Plan{YFactor: factorFor(d.Y, true)}
	n := d.NumVars()
	p.XFactors = make([]float64, n)
	for v := 0; v < n; v++ {
		col := make([]float64, len(d.X))
		for i, row := range d.X {
			col[i] = row[v]
		}
		p.XFactors[v] = factorFor(col, false)
	}
	return p
}

// Apply returns a new dataset with the plan's factors multiplied in. The
// input dataset is not modified.
func (p Plan) Apply(d *gp.Dataset) *gp.Dataset {
	out := &gp.Dataset{X: make([][]float64, len(d.X)), Y: make([]float64, len(d.Y))}
	for i, row := range d.X {
		r := make([]float64, len(row))
		for v := range row {
			f := 1.0
			if v < len(p.XFactors) {
				f = p.XFactors[v]
			}
			r[v] = row[v] * f
		}
		out.X[i] = r
	}
	for i, y := range d.Y {
		out.Y[i] = y * p.YFactor
	}
	return out
}

// Restore rewrites a formula inferred on the scaled dataset into one over
// the original variables predicting the original target — Table 2's
// post-processing. If g satisfies Y*yf = g(X0*f0, X1*f1, ...), then
// Y = g(f0*X0, f1*X1, ...) / yf.
func (p Plan) Restore(tree *gp.Node) *gp.Node {
	out := substituteVars(tree, p.XFactors)
	if p.YFactor != 1 {
		out = gp.NewBinary(gp.OpDiv, out, gp.NewConst(p.YFactor))
	}
	return gp.Simplify(out)
}

func substituteVars(n *gp.Node, factors []float64) *gp.Node {
	if n == nil {
		return nil
	}
	if n.Op == gp.OpVar {
		f := 1.0
		if n.Var < len(factors) {
			f = factors[n.Var]
		}
		if f == 1 {
			return gp.NewVar(n.Var)
		}
		return gp.NewBinary(gp.OpMul, gp.NewConst(f), gp.NewVar(n.Var))
	}
	out := &gp.Node{Op: n.Op, Const: n.Const, Var: n.Var}
	out.L = substituteVars(n.L, factors)
	out.R = substituteVars(n.R, factors)
	return out
}

// InferContext is the pipeline entry point: plan, scale, run GP on the
// scaled data, and restore the formula to original units. ctx is handed to
// the GP engine, which checks it between generations.
//
// Unless cfg.StopFitness is negative (never stop), the run stops once its
// best trimmed MAE, in the scaled units the run sees, is at most
// max(cfg.StopFitness, quantum·YFactor/4), quantum being the target's
// display quantum: the tool showed no finer detail, and a formula that
// matches the data to rounding leaves residuals of about a fifth of a
// quantum. The StopFitness floor is not a corner case: at the default
// 0.01 it is the larger term on 281 of the fleet's 416 formula streams
// (rig seed 1), so on those the bound is coarser than the display.
func InferContext(ctx context.Context, d *gp.Dataset, cfg gp.Config) (gp.Result, error) {
	plan := PlanFor(d)
	scaled := plan.Apply(d)
	if cfg.StopFitness >= 0 {
		cfg.StopFitness = math.Max(cfg.StopFitness, displayQuantum(d.Y)*plan.YFactor/4)
	}
	res, err := gp.RunContext(ctx, scaled, cfg)
	if err != nil {
		return gp.Result{}, err
	}
	res.Best = plan.Restore(res.Best)
	// Report fitness in original units so callers can compare against
	// unscaled baselines.
	res.Fitness = gp.RobustMAE(res.Best, d)
	return res, nil
}

// displayQuantum is the coarsest decimal step, 1 or finer, that every
// value in ys sits on: the resolution a tool displayed them with. It is 0
// when no step down to 1e-6 fits.
func displayQuantum(ys []float64) float64 {
	for e := 0; e <= 6; e++ {
		step := math.Pow10(-e)
		if onGrid(ys, step) {
			return step
		}
	}
	return 0
}

// onGrid reports whether every value in ys is a whole multiple of step,
// up to float rounding.
func onGrid(ys []float64, step float64) bool {
	for _, y := range ys {
		q := y / step
		if !(math.Abs(q-math.Round(q)) <= 1e-9*math.Max(1, math.Abs(q))) {
			return false
		}
	}
	return true
}
