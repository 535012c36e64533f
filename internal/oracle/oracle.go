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

// maxDomainBits bounds DomainCorrect's grid at 2^maxDomainBits points.
const maxDomainBits = 20

// DomainCorrect reports whether formula f decodes like the ground truth
// decode over the stream's whole raw domain, not only on the rows it was
// fitted on. observed holds the stream's observed variable rows, and
// fixes the grid:
//   - a variable that varies in observed takes every integer of its raw
//     range: 0..255, or 0..65535 when it was seen above 255 (a wider
//     field widens by whole bytes);
//   - a variable with one observed value is held at that value.
//
// Every grid point must decode within 2·DisplayStep(m) + 3% of |want|,
// where m is the largest |want| on the grid: Tolerance's rule, judged at
// the stream's coarsest display step. A grid over 2^maxDomainBits points
// steps each varying axis evenly, both ends included, to the same point
// count (64 per axis when three bytes vary, 32 when four do); no fleet
// stream is that wide. A nil formula, an empty domain, a grid point the
// truth cannot decode or a non-finite output is wrong.
func DomainCorrect(f *gp.Node, decode func(vars []float64) float64, observed [][]float64) bool {
	if f == nil || len(observed) == 0 {
		return false
	}
	axes := domainAxes(observed)
	size := 1
	for _, a := range axes {
		size *= len(a)
	}
	wants := make([]float64, 0, size)
	top := 0.0
	eachPoint(axes, func(row []float64) {
		w := decode(row)
		wants = append(wants, w)
		top = max(top, math.Abs(w))
	})
	step := 2 * diagtool.DisplayStep(top)
	ok, i := true, 0
	eachPoint(axes, func(row []float64) {
		want := wants[i]
		i++
		if ok && !(math.Abs(f.Eval(row)-want) <= step+0.03*math.Abs(want)) {
			ok = false
		}
	})
	return ok
}

// domainAxes returns DomainCorrect's grid values per variable.
func domainAxes(observed [][]float64) [][]float64 {
	axes := make([][]float64, len(observed[0]))
	tops := make([]float64, len(axes))
	points, varying := 1.0, 0
	for j := range axes {
		lo, hi := observed[0][j], observed[0][j]
		for _, row := range observed {
			lo, hi = min(lo, row[j]), max(hi, row[j])
		}
		if lo == hi {
			axes[j] = []float64{lo}
			continue
		}
		tops[j] = 255
		for tops[j] < hi {
			tops[j] = tops[j]*256 + 255
		}
		points *= tops[j] + 1
		varying++
	}
	per := math.Inf(1)
	if points > 1<<maxDomainBits {
		per = math.Exp2(math.Floor(maxDomainBits / float64(varying)))
	}
	for j, top := range tops {
		if top == 0 {
			continue
		}
		n := int(min(top+1, per))
		axes[j] = make([]float64, n)
		for i := range axes[j] {
			axes[j][i] = math.Round(float64(i) * top / float64(n-1))
		}
	}
	return axes
}

// eachPoint calls fn with every point of the grid the axes span, in
// row-major order. fn must not keep row.
func eachPoint(axes [][]float64, fn func(row []float64)) {
	row := make([]float64, len(axes))
	idx := make([]int, len(axes))
	for {
		for j, i := range idx {
			row[j] = axes[j][i]
		}
		fn(row)
		j := len(idx) - 1
		for ; j >= 0; j-- {
			if idx[j]++; idx[j] < len(axes[j]) {
				break
			}
			idx[j] = 0
		}
		if j < 0 {
			return
		}
	}
}
