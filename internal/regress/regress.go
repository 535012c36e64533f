// Package regress implements the two baseline formula-inference algorithms
// the paper compares against GP in §4.4 / Tables 8 and 10:
//
//   - multivariate linear regression (the LibreCAN approach):
//     Y = β0 + β1·X0 + β2·X1 + …, fitted by ordinary least squares;
//   - polynomial curve fitting: degree-2 features including cross terms,
//     Y = β0 + Σβi·Xi + Σβij·Xi·Xj, also by least squares.
//
// Both return their fit as a gp.Node so the experiment harness scores all
// three algorithms with one equivalence check. Both are exact closed-form
// solvers — which is why Table 8 shows them running in well under a
// millisecond while GP takes seconds — and both use plain (untrimmed)
// least squares, which is why Table 10 shows them collapsing under OCR
// outliers and non-linear formulas.
package regress

import (
	"errors"
	"fmt"
	"math"

	"dpreverser/internal/gp"
)

// Package errors.
var (
	ErrEmptyDataset = errors.New("regress: empty dataset")
	ErrSingular     = errors.New("regress: normal equations are singular")
	ErrBadDegree    = errors.New("regress: unsupported polynomial degree")
)

// LinearResult is a fitted linear model.
type LinearResult struct {
	// Intercept is β0.
	Intercept float64
	// Coeffs holds βi for each input variable.
	Coeffs []float64
	// Tree is the model as an expression tree.
	Tree *gp.Node
	// MAE is the model's mean absolute error on the training data.
	MAE float64
}

// LinearFit fits Y = β0 + Σ βi·Xi by ordinary least squares.
func LinearFit(d *gp.Dataset) (LinearResult, error) {
	if err := d.Validate(); err != nil {
		return LinearResult{}, fmt.Errorf("linear fit: %w", err)
	}
	nv := d.NumVars()
	features := func(row []float64) []float64 {
		f := make([]float64, 1, 1+nv)
		f[0] = 1
		return append(f, row...)
	}
	beta, err := leastSquares(d, features, 1+nv)
	if err != nil {
		return LinearResult{}, err
	}
	res := LinearResult{Intercept: beta[0], Coeffs: beta[1:]}
	tree := gp.NewConst(beta[0])
	for i, c := range beta[1:] {
		term := gp.NewBinary(gp.OpMul, gp.NewConst(c), gp.NewVar(i))
		tree = gp.NewBinary(gp.OpAdd, tree, term)
	}
	res.Tree = gp.Simplify(tree)
	res.MAE = gp.MAE(res.Tree, d)
	return res, nil
}

// PolyResult is a fitted degree-2 polynomial model.
type PolyResult struct {
	// Tree is the model as an expression tree.
	Tree *gp.Node
	// Coeffs lists the fitted coefficients in feature order: 1, X0…,
	// then Xi·Xj for i ≤ j.
	Coeffs []float64
	// MAE is the training mean absolute error.
	MAE float64
}

// polyFeatures builds [1, X0.., Xi*Xj (i<=j)] for one row.
func polyFeatures(row []float64) []float64 {
	nv := len(row)
	f := make([]float64, 0, 1+nv+nv*(nv+1)/2)
	f = append(f, 1)
	f = append(f, row...)
	for i := 0; i < nv; i++ {
		for j := i; j < nv; j++ {
			f = append(f, row[i]*row[j])
		}
	}
	return f
}

// PolyFit fits a full degree-2 polynomial (with cross terms) by least
// squares. Only degree 2 is supported, matching the paper's baseline.
func PolyFit(d *gp.Dataset, degree int) (PolyResult, error) {
	if degree != 2 {
		return PolyResult{}, fmt.Errorf("%w: %d", ErrBadDegree, degree)
	}
	if err := d.Validate(); err != nil {
		return PolyResult{}, fmt.Errorf("poly fit: %w", err)
	}
	nv := d.NumVars()
	nf := 1 + nv + nv*(nv+1)/2
	beta, err := leastSquares(d, polyFeatures, nf)
	if err != nil {
		return PolyResult{}, err
	}
	// Assemble the tree in feature order.
	tree := gp.NewConst(beta[0])
	idx := 1
	for i := 0; i < nv; i++ {
		tree = addTerm(tree, beta[idx], gp.NewVar(i))
		idx++
	}
	for i := 0; i < nv; i++ {
		for j := i; j < nv; j++ {
			tree = addTerm(tree, beta[idx], gp.NewBinary(gp.OpMul, gp.NewVar(i), gp.NewVar(j)))
			idx++
		}
	}
	res := PolyResult{Coeffs: beta, Tree: gp.Simplify(tree)}
	res.MAE = gp.MAE(res.Tree, d)
	return res, nil
}

func addTerm(tree *gp.Node, coeff float64, expr *gp.Node) *gp.Node {
	return gp.NewBinary(gp.OpAdd, tree, gp.NewBinary(gp.OpMul, gp.NewConst(coeff), expr))
}

// leastSquares solves min ‖Φβ − y‖² via the normal equations ΦᵀΦβ = Φᵀy
// with Gaussian elimination and partial pivoting. Collinear designs fail
// with ErrSingular — and they are common in diagnostic captures: whenever a
// KWP scale byte never varies ("the values of X0 are all 0x64", §4.3), the
// X0 column is a multiple of the intercept column. DP-Reverser's GP handles
// that case by simply not using the frozen variable; the naive regression
// baseline cannot, which is a large part of why the paper's Table 10 shows
// linear regression recovering only 2 of Car K's 41 formulas.
func leastSquares(d *gp.Dataset, features func([]float64) []float64, nf int) ([]float64, error) {
	ata := make([][]float64, nf)
	for i := range ata {
		ata[i] = make([]float64, nf)
	}
	aty := make([]float64, nf)
	for r, row := range d.X {
		f := features(row)
		if len(f) != nf {
			return nil, fmt.Errorf("regress: feature width %d, want %d", len(f), nf)
		}
		for i := 0; i < nf; i++ {
			aty[i] += f[i] * d.Y[r]
			for j := 0; j < nf; j++ {
				ata[i][j] += f[i] * f[j]
			}
		}
	}
	return solve(ata, aty)
}

// solve performs in-place Gaussian elimination with partial pivoting.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-9 {
			return nil, ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			factor := a[r][col] / a[col][col]
			if factor == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= factor * a[col][c]
			}
			b[r] -= factor * b[col]
		}
	}
	// Back-substitute.
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * x[c]
		}
		x[r] = sum / a[r][r]
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrSingular
		}
	}
	return x, nil
}
