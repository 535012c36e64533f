package gp

import (
	"bytes"
	"cmp"
	"math"
	"slices"
)

// maxTerms caps the columns of a candidate's least-squares fit. Linear
// scaling (Keijzer 2003) fits one column, the whole tree g, as a·g+b. A
// tree whose root is a chain of +/− over up to maxTerms non-constant terms
// t1…tk may instead fit c0 + c1·t1 + … + ck·tk, one coefficient per term
// (multiple-regression GP; Arnaldo, Krawiec & O'Reilly 2014), so
// evolution need not find the exact inner constants of a formula such as
// (256·X0+X1)/4.
const maxTerms = 4

// fitScratch is a machine's least-squares scratch and the fit of the last
// program scored on it.
type fitScratch struct {
	// k and coef are the fit: k = 1 scales the whole tree, k ≥ 2 the root
	// terms in terms[:k]; coef[0] is the intercept and coef[j] multiplies
	// column j.
	k    int
	coef [maxTerms + 1]float64
	// terms are the root's non-constant +/− terms in canonical order,
	// keys their canonical encodings, and cols the columns being fitted:
	// the whole tree's predictions, or the terms' columns in slab.
	terms [maxTerms]*Node
	keys  [maxTerms][]byte
	cols  [maxTerms][]float64
	slab  []float64
	comp  Compiler
}

// rawScore returns program p's raw fitness on the evaluator's dataset: the
// trimmed MAE of its best fit, which it leaves in m.fit. t is p's source
// tree. The fit of the whole tree is tried first; a fit of the root terms
// replaces it only when the dataset has at least two distinct X rows per
// coefficient and the term fit scores lower. Both the result and the fit
// are pure functions of p's key: the terms are fitted in canonical order.
func (e *evaluator) rawScore(p *Program, t *Node, m *Machine) float64 {
	y := e.batch.y
	preds := p.Eval(e.batch, m)
	f := &m.fit
	f.k, f.cols[0] = 1, preds
	f.coef = [maxTerms + 1]float64{0, 1}
	if !finite(preds) {
		return math.Inf(1)
	}
	n := len(preds)
	scale := !e.cfg.DisableLinearScaling
	if scale && !linearScale(f.cols[:1], y, m.selbuf(n), m.selidx(n), &f.coef) {
		f.coef = [maxTerms + 1]float64{0, 1}
	}
	raw := trimmedMeanScaled(f.cols[:1], y, &f.coef, m.resids(n))
	if math.IsNaN(raw) {
		return math.Inf(1)
	}
	if !scale || (t.Op != OpAdd && t.Op != OpSub) || e.distinct < 2*3 {
		return raw
	}
	f.slab = resize(f.slab, maxTerms*n)
	k := f.splitTerms(t, e.batch, m)
	if k < 2 || e.distinct < 2*(k+1) {
		return raw
	}
	var c [maxTerms + 1]float64
	if linearScale(f.cols[:k], y, m.selbuf(n), m.selidx(n), &c) {
		if r := trimmedMeanScaled(f.cols[:k], y, &c, m.resids(n)); r < raw {
			raw, f.k, f.coef = r, k, c
		}
	}
	return raw
}

// negligibleTerm bounds, as a share of the largest |y|, what a root term
// of a multi-term fit may contribute on every row and still be left out
// of the reported formula: its coefficient is zero up to rounding.
const negligibleTerm = 1e-9

// materialise returns the program a run reports for its champion t: t's
// fit written into the tree as c0 + c1·t1 + … + ck·tk, where the tj are t
// itself (k = 1) or its root terms, with near-identity coefficients
// snapped so they simplify away. A root term whose contribution is
// negligible is dropped, and the remaining terms are fitted and written
// again.
func (e *evaluator) materialise(t *Node) *Node {
	m := e.m
	e.rawScore(e.comp.Compile(t), t, m)
	f := &m.fit
	if rest := f.significantTerms(e.batch.y); rest != nil {
		return e.materialise(rest)
	}
	var out *Node
	for j := 0; j < f.k; j++ {
		term := t
		if f.k > 1 {
			term = f.terms[j]
		}
		if c := f.coef[j+1]; math.Abs(c-1) >= 1e-9 {
			term = NewBinary(OpMul, NewConst(c), term)
		}
		if out == nil {
			out = term
		} else {
			out = NewBinary(OpAdd, out, term)
		}
	}
	if b := f.coef[0]; math.Abs(b) >= 1e-9 {
		out = NewBinary(OpAdd, out, NewConst(b))
	}
	return out
}

// significantTerms returns the sum of a multi-term fit's root terms
// without those that contribute at most negligibleTerm·max|y| on every
// row of y, or nil when it would drop none or all of them.
func (f *fitScratch) significantTerms(y []float64) *Node {
	if f.k < 2 {
		return nil
	}
	bound := 0.0
	for _, v := range y {
		bound = math.Max(bound, math.Abs(v))
	}
	bound *= negligibleTerm
	var drop [maxTerms]bool
	dropped := 0
	for j, col := range f.cols[:f.k] {
		if drop[j] = negligible(col, f.coef[j+1], bound); drop[j] {
			dropped++
		}
	}
	if dropped == 0 || dropped == f.k {
		return nil
	}
	var rest *Node
	for j, term := range f.terms[:f.k] {
		switch {
		case drop[j]:
		case rest == nil:
			rest = term
		default:
			rest = NewBinary(OpAdd, rest, term)
		}
	}
	return rest
}

// negligible reports whether c·col stays within bound on every row; a
// NaN bound admits nothing.
func negligible(col []float64, c, bound float64) bool {
	for _, v := range col {
		if !(math.Abs(c*v) <= bound) {
			return false
		}
	}
	return true
}

// oneMissRows is the fewest rows a dataset needs before the stop test
// forgives one row outside its bound: one row of eight is under the 20%
// the trimmed MAE already drops.
const oneMissRows = 8

// fitsRows reports whether program t predicts the rows of the
// evaluator's dataset within tol: every row, or every row but one when
// the dataset has at least oneMissRows rows.
func (e *evaluator) fitsRows(t *Node, tol float64) bool {
	preds := e.comp.Compile(t).Eval(e.batch, e.m)
	allowed, misses := 0, 0
	if len(preds) >= oneMissRows {
		allowed = 1
	}
	for i, p := range preds {
		if !(math.Abs(p-e.batch.y[i]) <= tol) {
			if misses++; misses > allowed {
				return false
			}
		}
	}
	return true
}

// robustMAE scores program t on the evaluator's dataset with the
// trimmed-mean criterion of RobustMAE, on the run's compiler and machine.
func (e *evaluator) robustMAE(t *Node) float64 {
	return e.comp.Compile(t).robustMAE(e.batch, e.m)
}

// stops reports whether champion best ends the run before any breeding:
// it meets the stop, and its materialised program predicts the rows
// within 2·StopFitness (fitsRows: every row, or all but one of at least
// oneMissRows), since a trimmed MAE alone can pass a formula that is
// wrong on the trimmed rows.
func (e *evaluator) stops(best individual) bool {
	return best.raw <= e.cfg.StopFitness && e.fitsRows(e.materialise(best.tree), 2*e.cfg.StopFitness)
}

// splitTerms collects the non-constant terms of t's root +/− chain and
// evaluates them into f.cols in ascending order of their canonical keys,
// which is independent of commutative operand order. It returns their
// count, or 0 when there are more than maxTerms. f.slab must hold
// maxTerms columns of b's length.
//
//dplint:hotpath gp-score
func (f *fitScratch) splitTerms(t *Node, b *Batch, m *Machine) int {
	k := f.collect(t, 0)
	if k < 2 {
		return 0
	}
	for i := 1; i < k; i++ {
		for j := i; j > 0 && bytes.Compare(f.keys[j-1], f.keys[j]) > 0; j-- {
			f.keys[j-1], f.keys[j] = f.keys[j], f.keys[j-1]
			f.terms[j-1], f.terms[j] = f.terms[j], f.terms[j-1]
		}
	}
	for j := 0; j < k; j++ {
		col := f.slab[j*b.n : (j+1)*b.n]
		copy(col, f.comp.Compile(f.terms[j]).Eval(b, m))
		f.cols[j] = col
	}
	return k
}

// collect appends the non-constant terms of n's +/− chain to f.terms[k:]
// with their keys, returning the new count, or -1 past maxTerms.
func (f *fitScratch) collect(n *Node, k int) int {
	if n.Op == OpAdd || n.Op == OpSub {
		if k = f.collect(n.L, k); k < 0 {
			return k
		}
		return f.collect(n.R, k)
	}
	f.comp.compile(n)
	if len(f.comp.code) == 1 && f.comp.code[0].op == OpConst {
		return k // a constant term joins the intercept
	}
	if k == maxTerms {
		return -1
	}
	f.terms[k] = n
	f.keys[k] = append(f.keys[k][:0], f.comp.key...)
	return k + 1
}

// linearScale fits y ≈ c[0] + c[1]·cols[0] + … + c[k]·cols[k-1] (k =
// len(cols) ≤ maxTerms) by least squares, then refits after trimming the
// 20% largest residuals so OCR-style outliers in y do not drag the fit
// (the robustness the paper's 4.4 attributes to GP). It reports false
// when the fit is unusable: coefficients that are not finite, or for
// k ≥ 2 columns that are collinear with each other or the intercept. One
// constant column yields c = (mean(y), 0).
//
// The normal equations live in fixed-size arrays. hv and hi must each
// have room for len(y)/5 entries (the hot path hands in machine-owned
// scratch so candidate scoring stays allocation-free); they hold the
// value/index min-heap of the dropped residuals. The trimmed refit
// subtracts exactly the dropped samples from the full-sample sums, so the
// whole fit is two passes: one accumulation, one streaming selection. The
// dropped set is fully deterministic: heap eviction over the strideFor
// pseudo-shuffle is a pure function of the residual values.
//
//dplint:hotpath gp-score
func linearScale(cols [][]float64, y []float64, hv []float64, hi []int, c *[maxTerms + 1]float64) bool {
	k, n := len(cols), len(y)
	// s[i][j], i ≤ j, sums t_i·t_j over the rows, where t_0 = 1,
	// t_j = cols[j-1] and t_{k+1} = y.
	var s [maxTerms + 1][maxTerms + 2]float64
	s[0][0] = float64(n)
	for i, ci := range cols {
		s[0][i+1] = total(ci)
		for j := i; j < k; j++ {
			s[i+1][j+1] = dot(ci, cols[j])
		}
		s[i+1][k+1] = dot(ci, y)
	}
	s[0][k+1] = total(y)
	if !solve(&s, k, c) {
		if k > 1 {
			return false
		}
		c[0], c[1] = s[0][2]/s[0][0], 0
		return finite(c[:k+1])
	}
	if n < 10 {
		return finite(c[:k+1])
	}
	keep := n * 4 / 5
	drop := n - keep
	hv, hi = hv[:drop], hi[:drop]
	st := strideFor(n)
	idx, j := 0, 0
	for t := 0; t < n; t++ {
		r := math.Abs(fitted(cols, c, idx) - y[idx])
		if j < drop {
			hv[j], hi[j] = r, idx
			j++
			if j == drop {
				for h := drop/2 - 1; h >= 0; h-- {
					siftDownPair(hv, hi, h)
				}
			}
		} else if r > hv[0] {
			hv[0], hi[0] = r, idx
			siftDownPair(hv, hi, 0)
		}
		idx += st
		if idx >= n {
			idx -= n
		}
	}
	for _, r := range hi {
		for a, ca := range cols {
			s[0][a+1] -= ca[r]
			for b := a; b < k; b++ {
				s[a+1][b+1] -= ca[r] * cols[b][r]
			}
			s[a+1][k+1] -= ca[r] * y[r]
		}
		s[0][k+1] -= y[r]
	}
	s[0][0] = float64(keep)
	var refit [maxTerms + 1]float64
	if solve(&s, k, &refit) {
		*c = refit
	}
	return finite(c[:k+1])
}

// solve solves linearScale's normal equations for c[:k+1]. One column is
// solved in closed form; k ≥ 2 by an LDLᵀ factorisation that rejects a
// column whose pivot (its residual sum of squares against the columns
// before it) is under 1e-9 of its own sum of squares: collinear.
//
//dplint:hotpath gp-score
func solve(s *[maxTerms + 1][maxTerms + 2]float64, k int, c *[maxTerms + 1]float64) bool {
	if k == 1 {
		nf, sg, sgg, sy, sgy := s[0][0], s[0][1], s[1][1], s[0][2], s[1][2]
		det := nf*sgg - sg*sg
		if math.Abs(det) < 1e-12 {
			return false
		}
		c[0], c[1] = (sy*sgg-sg*sgy)/det, (nf*sgy-sg*sy)/det
		return true
	}
	var l [maxTerms + 1][maxTerms + 1]float64
	var d, z [maxTerms + 1]float64
	for i := 0; i <= k; i++ {
		d[i], z[i] = s[i][i], s[i][k+1]
		for j := 0; j < i; j++ {
			d[i] -= l[i][j] * l[i][j] * d[j]
			z[i] -= l[i][j] * z[j]
		}
		if !(d[i] > 1e-9*s[i][i]) {
			return false
		}
		for r := i + 1; r <= k; r++ {
			v := s[i][r]
			for j := 0; j < i; j++ {
				v -= l[r][j] * l[i][j] * d[j]
			}
			l[r][i] = v / d[i]
		}
	}
	for i := k; i >= 0; i-- {
		v := z[i] / d[i]
		for r := i + 1; r <= k; r++ {
			v -= l[r][i] * c[r]
		}
		c[i] = v
	}
	return true
}

// fitted is row i of the fit c over cols.
func fitted(cols [][]float64, c *[maxTerms + 1]float64, i int) float64 {
	v := c[1] * cols[0][i]
	for j := 1; j < len(cols); j++ {
		v += c[j+1] * cols[j][i]
	}
	return v + c[0]
}

// finite reports whether every value in vs is finite: v*0 is NaN exactly
// when v is NaN or ±Inf, and a sum of zeros never overflows, so one
// branch-free pass screens them all.
func finite(vs []float64) bool {
	screen := 0.0
	for _, v := range vs {
		screen += v * 0
	}
	return !math.IsNaN(screen)
}

func total(a []float64) float64 {
	s := 0.0
	for _, v := range a {
		s += v
	}
	return s
}

func dot(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// trimmedMeanScaled computes trimmedMean over |fitted(cols, c, i) - y[i]|
// without materialising the residual array: residuals are computed on
// the fly and stream through the dropped-20% heap in strideFor order
// (see linearScale -- index order would evict on almost every element
// for trend-shaped residuals). The kept multiset is identical to
// trimmedMean's; only the floating-point summation order differs, and it
// is a pure function of the input, so scoring stays deterministic. h must
// have room for len(y)/5 values.
//
//dplint:hotpath gp-score
func trimmedMeanScaled(cols [][]float64, y []float64, c *[maxTerms + 1]float64, h []float64) float64 {
	n := len(y)
	if n == 0 {
		return math.Inf(1)
	}
	if n < 10 {
		sum := 0.0
		for i := range y {
			sum += math.Abs(fitted(cols, c, i) - y[i])
		}
		return sum / float64(n)
	}
	keep := n * 4 / 5
	drop := n - keep
	h = h[:drop]
	s := strideFor(n)
	sum := 0.0
	idx, j := 0, 0
	for t := 0; t < n; t++ {
		x := math.Abs(fitted(cols, c, idx) - y[idx])
		if j < drop {
			h[j] = x
			j++
			if j == drop {
				for k := drop/2 - 1; k >= 0; k-- {
					siftDownMin(h, k)
				}
			}
		} else if x > h[0] {
			sum += h[0]
			h[0] = x
			siftDownMin(h, 0)
		} else {
			sum += x
		}
		idx += s
		if idx >= n {
			idx -= n
		}
	}
	return sum / float64(keep)
}

// countDistinct returns the number of distinct X rows of the evaluator's
// batch: the most coefficients its data can pin down.
func (e *evaluator) countDistinct() int {
	b := e.batch
	rows := resize(e.rows, b.n)
	for i := range rows {
		rows[i] = int32(i)
	}
	order := func(i, j int32) int {
		for _, col := range b.cols {
			if c := cmp.Compare(col[i], col[j]); c != 0 {
				return c
			}
		}
		return 0
	}
	slices.SortFunc(rows, order)
	n := 0
	for i := range rows {
		if i == 0 || order(rows[i-1], rows[i]) != 0 {
			n++
		}
	}
	e.rows = rows
	return n
}
