package gp

import "math"

// refSize bounds a minimax reference: one row per coefficient (the
// intercept and up to maxTerms columns) and one more.
const refSize = maxTerms + 2

// maxExchanges caps the exchange steps of one minimax solve. Each step
// never lowers the levelled error, and a fit over at most refSize−1
// coefficients settles within a few steps; the cap only ends a cycle
// among degenerate references.
const maxExchanges = 64

// minimaxFit is a Chebyshev (least maximum residual) fit and the
// reference that holds it.
type minimaxFit struct {
	// c is the fit: c[0] is the intercept and c[j] multiplies column j; a
	// column dependent on the intercept and the columns before it gets 0.
	c [maxTerms + 1]float64
	// worst is the largest |residual| over the fitted rows.
	worst float64
	// ref[:n] are the rows of the final reference and w their weights.
	// The rows with w > 0 hold the optimum, so only removing one of them
	// can lower it.
	ref [refSize]int
	w   [refSize]float64
	n   int
}

// chebyshev fits y ≈ c[0] + c[1]·cols[0] + … + c[k]·cols[k-1] (k =
// len(cols) ≤ maxTerms) for the least maximum |residual| over every row
// but skip (−1 skips none), and writes the fit to fit. It reports false
// when the data hold a NaN or ±Inf, or the fitted rows are no more than
// the independent coefficients.
//
// The fit is the linear program min t subject to |y_i − a_i·c| ≤ t,
// solved as its dual by the revised simplex method: Stiefel's exchange
// algorithm, which also serves columns that are not a Haar system. A
// basis is a reference of m+1 rows with signs, m being the independent
// coefficients; its simplex multipliers are the c that levels the
// residuals on the reference to ±t, and a row whose |residual| exceeds t
// enters in exchange for the reference row the ratio test picks. Every
// array is fixed-size and each pass over the rows computes residuals on
// the fly, so the solve allocates nothing.
//
//dplint:hotpath gp-score
func chebyshev(cols [][]float64, y []float64, skip int, fit *minimaxFit) bool {
	if !finite(y) {
		return false
	}
	for _, col := range cols {
		if !finite(col) {
			return false
		}
	}
	var act [maxTerms + 1]int
	m := independent(cols, len(y), skip, &act)
	rows := len(y)
	if skip >= 0 && skip < len(y) {
		rows--
	}
	if m == 0 || rows <= m {
		return false
	}
	var ref [refSize]int
	var sign [refSize]float64
	if !initialReference(cols, y, skip, &act, m, &ref, &sign) {
		return false
	}
	n := m + 1
	var x, pi, d, a [refSize]float64
	var basis [refSize][refSize]float64
	worst := 0.0
	for step := 0; ; step++ {
		for p := 0; p < n; p++ {
			designRow(cols, &act, m, ref[p], &a)
			for r := 0; r < m; r++ {
				basis[r][p] = sign[p] * a[r]
			}
			basis[m][p] = 1
			x[p], pi[p] = 0, sign[p]*y[ref[p]]
		}
		x[m] = 1
		lu, lut := basis, transpose(&basis, n)
		if !gauss(&lu, &x, n) || !gauss(&lut, &pi, n) {
			return false
		}
		// Pricing: the row of largest |residual| under c = pi[:m]; the
		// levelled error is t = pi[m].
		enter, enterSign := -1, 1.0
		worst = -1
		for i := range y {
			if i == skip {
				continue
			}
			designRow(cols, &act, m, i, &a)
			r := y[i]
			for j := 0; j < m; j++ {
				r -= pi[j] * a[j]
			}
			if math.Abs(r) > worst {
				worst, enter = math.Abs(r), i
				enterSign = 1
				if r < 0 {
					enterSign = -1
				}
			}
		}
		t := pi[m]
		if worst-t <= 1e-12*(math.Abs(t)+worst) || step == maxExchanges || inReference(&ref, &sign, n, enter, enterSign) {
			break
		}
		designRow(cols, &act, m, enter, &a)
		for r := 0; r < m; r++ {
			d[r] = enterSign * a[r]
		}
		d[m] = 1
		lu = basis
		if !gauss(&lu, &d, n) {
			return false
		}
		// Ratio test: the entering row may displace the reference row that
		// first reaches weight zero (ties keep the first).
		leave, ratio := -1, math.Inf(1)
		for p := 0; p < n; p++ {
			if d[p] > 1e-12 {
				if q := x[p] / d[p]; q < ratio {
					leave, ratio = p, q
				}
			}
		}
		if leave < 0 {
			break
		}
		ref[leave], sign[leave] = enter, enterSign
	}
	*fit = minimaxFit{worst: worst, ref: ref, w: x, n: n}
	for j := 0; j < m; j++ {
		fit.c[act[j]] = pi[j]
	}
	return finite(fit.c[:])
}

// inReference reports whether row i with sign s is in the reference.
func inReference(ref *[refSize]int, sign *[refSize]float64, n, i int, s float64) bool {
	for p := 0; p < n; p++ {
		if ref[p] == i && sign[p] == s {
			return true
		}
	}
	return false
}

// designRow writes row i of the design over the coefficients act[:m] to
// a: 1 for the intercept (coefficient 0), cols[j-1][i] for coefficient j.
func designRow(cols [][]float64, act *[maxTerms + 1]int, m, i int, a *[refSize]float64) {
	for r := 0; r < m; r++ {
		if j := act[r]; j == 0 {
			a[r] = 1
		} else {
			a[r] = cols[j-1][i]
		}
	}
}

// independent lists in act, intercept first, the coefficients a fit over
// cols can determine on the n rows but skip, and returns their count: each
// column whose residual sum of squares against the intercept and the
// columns listed before it is over 1e-9 of its own sum of squares, the
// collinearity test of solve.
func independent(cols [][]float64, n, skip int, act *[maxTerms + 1]int) int {
	k := len(cols)
	var s, l [maxTerms + 1][maxTerms + 1]float64
	var a [maxTerms + 1]float64
	a[0] = 1
	for i := 0; i < n; i++ {
		if i == skip {
			continue
		}
		for j, col := range cols {
			a[j+1] = col[i]
		}
		for p := 0; p <= k; p++ {
			for q := p; q <= k; q++ {
				s[p][q] += a[p] * a[q]
			}
		}
	}
	var dg [maxTerms + 1]float64
	m := 0
	for i := 0; i <= k; i++ {
		di := s[i][i]
		for p := 0; p < m; p++ {
			j := act[p]
			v := s[j][i]
			for q := 0; q < p; q++ {
				h := act[q]
				v -= l[i][h] * l[j][h] * dg[h]
			}
			l[i][j] = v / dg[j]
			di -= l[i][j] * l[i][j] * dg[j]
		}
		if di > 1e-9*s[i][i] {
			dg[i], act[m] = di, i
			m++
		}
	}
	return m
}

// initialReference picks the first reference of a minimax solve: m rows
// chosen by pivoted Gram–Schmidt (each the row farthest from the span of
// those before it), then the row the fit interpolating them misses most.
// The signs come from the null vector λ of the m+1 design rows, Σ λ_p·a_p
// = 0, oriented so that Σ λ_p·y_p ≥ 0: the weights |λ_p|/Σ|λ| are then a
// feasible basis with a levelled error of at least 0.
func initialReference(cols [][]float64, y []float64, skip int, act *[maxTerms + 1]int, m int, ref *[refSize]int, sign *[refSize]float64) bool {
	var q [maxTerms + 1][refSize]float64
	var a, v [refSize]float64
	for s := 0; s < m; s++ {
		best, bestNorm := -1, 0.0
		for i := range y {
			if i == skip || chosen(ref, s, i) {
				continue
			}
			designRow(cols, act, m, i, &a)
			if norm := orthogonal(&q, s, &a, m); norm > bestNorm {
				best, bestNorm = i, norm
			}
		}
		if best < 0 {
			return false
		}
		designRow(cols, act, m, best, &v)
		norm := math.Sqrt(orthogonal(&q, s, &v, m))
		for r := 0; r < m; r++ {
			q[s][r] = v[r] / norm
		}
		ref[s] = best
	}
	var sys [refSize][refSize]float64
	var c [refSize]float64
	for p := 0; p < m; p++ {
		designRow(cols, act, m, ref[p], &a)
		sys[p] = a
		c[p] = y[ref[p]]
	}
	lu := sys
	if !gauss(&lu, &c, m) {
		return false
	}
	last, worst := -1, -1.0
	for i := range y {
		if i == skip || chosen(ref, m, i) {
			continue
		}
		designRow(cols, act, m, i, &a)
		r := y[i]
		for j := 0; j < m; j++ {
			r -= c[j] * a[j]
		}
		if math.Abs(r) > worst {
			last, worst = i, math.Abs(r)
		}
	}
	if last < 0 {
		return false
	}
	ref[m] = last
	// λ[:m] solves Σ_p λ_p·a_p = −a_last, with λ_m = 1.
	var lambda [refSize]float64
	designRow(cols, act, m, last, &a)
	for r := 0; r < m; r++ {
		lambda[r] = -a[r]
	}
	lut := transpose(&sys, m)
	if !gauss(&lut, &lambda, m) {
		return false
	}
	lambda[m] = 1
	level := 0.0
	for p := 0; p <= m; p++ {
		level += lambda[p] * y[ref[p]]
	}
	for p := 0; p <= m; p++ {
		if sign[p] = 1; (lambda[p] < 0) != (level < 0) {
			sign[p] = -1
		}
	}
	return true
}

// chosen reports whether row i is among ref[:s].
func chosen(ref *[refSize]int, s, i int) bool {
	for _, r := range ref[:s] {
		if r == i {
			return true
		}
	}
	return false
}

// orthogonal removes from v[:m] its components along the orthonormal
// rows q[:s] and returns the squared norm of what is left.
func orthogonal(q *[maxTerms + 1][refSize]float64, s int, v *[refSize]float64, m int) float64 {
	for t := 0; t < s; t++ {
		dot := 0.0
		for r := 0; r < m; r++ {
			dot += q[t][r] * v[r]
		}
		for r := 0; r < m; r++ {
			v[r] -= dot * q[t][r]
		}
	}
	norm := 0.0
	for r := 0; r < m; r++ {
		norm += v[r] * v[r]
	}
	return norm
}

// transpose returns the transpose of a's leading n×n block.
func transpose(a *[refSize][refSize]float64, n int) [refSize][refSize]float64 {
	var t [refSize][refSize]float64
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			t[c][r] = a[r][c]
		}
	}
	return t
}

// gauss solves the n×n system a·x = b by Gaussian elimination with
// partial pivoting, overwriting a and leaving x in b. It reports false
// when a pivot vanishes or x is not finite.
func gauss(a *[refSize][refSize]float64, b *[refSize]float64, n int) bool {
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		if a[p][col] == 0 {
			return false
		}
		a[p], a[col] = a[col], a[p]
		b[p], b[col] = b[col], b[p]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		v := b[r]
		for c := r + 1; c < n; c++ {
			v -= a[r][c] * b[c]
		}
		b[r] = v / a[r][r]
	}
	return finite(b[:n])
}

// refit replaces f's coefficients with the minimax fit of the same
// columns to y: over every row, or, when that misses tol and y has at
// least oneMissRows rows, over every row but the one whose removal lowers
// the maximum residual most (only a weighted row of the full fit's
// reference can). It reports false, leaving f as it was, when no fit can
// be made.
func (f *fitScratch) refit(y []float64, tol float64) bool {
	var all, drop minimaxFit
	if !chebyshev(f.cols[:f.k], y, -1, &all) {
		return false
	}
	best := all
	if !(all.worst <= tol) && len(y) >= oneMissRows {
		for p := 0; p < all.n; p++ {
			if all.w[p] > 0 && chebyshev(f.cols[:f.k], y, all.ref[p], &drop) && drop.worst < best.worst {
				best = drop
			}
		}
	}
	f.coef = best.c
	return true
}
