// Package oracle is the one rule that decides whether a recovered formula
// is right: it must decode like the simulated ground truth, to within what
// the diagnostic tool's screen can show, on every input seen in traffic.
// The experiment tables, the benchmark's formula_recovery and the
// pipeline's end-to-end tests all score with it.
package oracle

import (
	"math"

	"dpreverser/internal/diagtool"
	"dpreverser/internal/gp"
)

// Tolerance is the largest |got - want| accepted for a value whose true
// decode is want: two display steps of want (diagtool.DisplayStep, the
// rounding the tool renders want with) plus 3% of |want|.
func Tolerance(want float64) float64 {
	return 2*diagtool.DisplayStep(want) + 0.03*math.Abs(want)
}

// Correct reports whether formula f decodes like the ground truth decode
// on every row of domain, the stream's observed variable values. A nil
// formula, an empty domain, a row the truth cannot decode or a non-finite
// output is wrong.
func Correct(f *gp.Node, decode func(vars []float64) float64, domain [][]float64) bool {
	if f == nil || len(domain) == 0 {
		return false
	}
	for _, row := range domain {
		want := decode(row)
		if math.IsNaN(want) {
			return false
		}
		if !(math.Abs(f.Eval(row)-want) <= Tolerance(want)) {
			return false
		}
	}
	return true
}
