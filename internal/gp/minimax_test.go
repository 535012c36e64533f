package gp

import (
	"math"
	"math/rand"
	"testing"
)

// torqueDataset has the shape of Car K's KWP torque streams, truth
// 0.001·X0·(X1−128): X0 steps through 10…229, X1 holds 127 or 129 in runs
// of five rows, and Y is the truth rounded to the tool's 0.01 display
// step, so HalfStep is 0.005. The two fitted columns, X0·X1 and X0, are
// nearly collinear, and the trimmed least-squares fit misses rows that
// the minimax fit keeps within half a step.
func torqueDataset() *Dataset {
	d := &Dataset{HalfStep: 0.005}
	for i := 0; i < 57; i++ {
		x0, x1 := float64(10+(13*i)%220), 127.0
		if (i/5)%2 == 1 {
			x1 = 129
		}
		d.X = append(d.X, []float64{x0, x1})
		d.Y = append(d.Y, math.Round(0.001*x0*(x1-128)*100)/100)
	}
	return d
}

// torqueBasis is the stop ladder's basis program that spans the torque
// truth.
func torqueBasis() *Node { return sum2(prod2(x0, x1), x0) }

// withOutliers returns d with each listed row's Y read as 0, as OCR does
// when it drops a value's digits.
func withOutliers(d *Dataset, rows ...int) *Dataset {
	out := &Dataset{X: d.X, Y: append([]float64(nil), d.Y...), HalfStep: d.HalfStep}
	for _, i := range rows {
		out.Y[i] = 0
	}
	return out
}

// columns returns the design columns of trees over d's rows.
func columns(d *Dataset, trees ...*Node) [][]float64 {
	cols := make([][]float64, len(trees))
	for j, tree := range trees {
		for _, row := range d.X {
			cols[j] = append(cols[j], tree.Eval(row))
		}
	}
	return cols
}

// maxResidual is the largest |residual| of the fit c over cols on every
// row but skip.
func maxResidual(cols [][]float64, y []float64, c *[maxTerms + 1]float64, skip int) float64 {
	worst := 0.0
	for i := range y {
		if i != skip {
			worst = math.Max(worst, math.Abs(fitted(cols, c, i)-y[i]))
		}
	}
	return worst
}

// The minimax line through (0, 0), (½, ¼), (1, 1) equioscillates with
// error ⅛: y = x − ⅛.
func TestChebyshevKnownFit(t *testing.T) {
	var fit minimaxFit
	if !chebyshev([][]float64{{0, 0.5, 1}}, []float64{0, 0.25, 1}, -1, &fit) {
		t.Fatal("no fit")
	}
	if math.Abs(fit.worst-0.125) > 1e-15 || math.Abs(fit.c[0]+0.125) > 1e-15 || math.Abs(fit.c[1]-1) > 1e-15 {
		t.Fatalf("fit %v with worst %v, want (-0.125, 1) with worst 0.125", fit.c[:2], fit.worst)
	}
	// Skipping the middle row of four leaves three points on y = x.
	if !chebyshev([][]float64{{0, 0.5, 1, 2}}, []float64{0, 0.25, 1, 2}, 1, &fit) || fit.worst > 1e-15 {
		t.Fatalf("without row 1: worst %v, want 0", fit.worst)
	}
}

// A constant column and a column collinear with an earlier one get a zero
// coefficient, and the rest is fitted as if they were absent.
func TestChebyshevDegenerateColumns(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5, 6}
	y := []float64{1, 3, 4, 8, 9, 13, 12}
	var line, constant, collinear minimaxFit
	if !chebyshev([][]float64{x}, y, -1, &line) {
		t.Fatal("no line fit")
	}
	seven := []float64{7, 7, 7, 7, 7, 7, 7}
	if !chebyshev([][]float64{seven}, y, -1, &constant) {
		t.Fatal("no fit on a constant column")
	}
	if constant.c[1] != 0 || math.Abs(constant.c[0]-7) > 1e-12 || math.Abs(constant.worst-6) > 1e-12 {
		t.Errorf("constant column: c = %v, worst %v; want the midrange 7 with worst 6", constant.c[:2], constant.worst)
	}
	triple := make([]float64, len(x))
	for i, v := range x {
		triple[i] = 3 * v
	}
	if !chebyshev([][]float64{x, triple, seven}, y, -1, &collinear) {
		t.Fatal("no fit on collinear columns")
	}
	if collinear.c[2] != 0 || collinear.c[3] != 0 || collinear.c[0] != line.c[0] || collinear.c[1] != line.c[1] ||
		collinear.worst != line.worst {
		t.Errorf("collinear columns: c = %v, worst %v; want the line %v, worst %v",
			collinear.c[:4], collinear.worst, line.c[:2], line.worst)
	}
}

// NaN and ±Inf rows are refused, and so are datasets with no more rows
// than coefficients.
func TestChebyshevRefuses(t *testing.T) {
	var fit minimaxFit
	for name, c := range map[string]struct {
		cols [][]float64
		y    []float64
		skip int
	}{
		"NaN y":        {[][]float64{{1, 2, 3, 4}}, []float64{1, math.NaN(), 3, 4}, -1},
		"NaN skipped":  {[][]float64{{1, 2, 3, 4}}, []float64{1, math.NaN(), 3, 4}, 1},
		"+Inf column":  {[][]float64{{1, math.Inf(1), 3, 4}}, []float64{1, 2, 3, 4}, -1},
		"-Inf column":  {[][]float64{{1, 2, 3, 4}, {0, 1, math.Inf(-1), 1}}, []float64{1, 2, 3, 4}, -1},
		"two rows":     {[][]float64{{1, 2}}, []float64{1, 2}, -1},
		"no rows left": {[][]float64{{1, 2, 3}}, []float64{1, 2, 3}, 0},
		"empty":        {[][]float64{{}}, nil, -1},
	} {
		if chebyshev(c.cols, c.y, c.skip, &fit) {
			t.Errorf("%s: fitted %v", name, fit.c)
		}
	}
}

// On the torque shape the minimax fit of the basis columns keeps every
// row within half a display step; with one OCR outlier it cannot, and
// refit forgives exactly that row.
func TestChebyshevTorqueShape(t *testing.T) {
	d := torqueDataset()
	cols := columns(d, prod2(x0, x1), x0)
	tol := d.HalfStep * (1 + 1e-9)
	var fit minimaxFit
	if !chebyshev(cols, d.Y, -1, &fit) || !(fit.worst <= tol) {
		t.Fatalf("clean rows: worst %v, want ≤ %v", fit.worst, tol)
	}
	if got := maxResidual(cols, d.Y, &fit.c, -1); math.Abs(got-fit.worst) > 1e-15 {
		t.Fatalf("reported worst %v, rows give %v", fit.worst, got)
	}
	const outlier = 23
	noisy := withOutliers(d, outlier)
	if !chebyshev(cols, noisy.Y, -1, &fit) || fit.worst <= tol {
		t.Fatalf("with an outlier: worst %v, want over %v", fit.worst, tol)
	}
	f := fitScratch{k: 2, cols: [maxTerms][]float64{cols[0], cols[1]}}
	if !f.refit(noisy.Y, tol) {
		t.Fatal("refit failed")
	}
	if r := maxResidual(cols, noisy.Y, &f.coef, outlier); !(r <= tol) {
		t.Fatalf("refit misses the rows other than the outlier by %v", r)
	}
	if r := maxResidual(cols, noisy.Y, &f.coef, -1); r <= tol {
		t.Fatalf("refit fits the outlier too (%v)", r)
	}
}

// The minimax error is the largest levelled error over all references of
// m+1 rows (the simplex optimum is a basic solution): a brute-force
// search over every such set agrees with the exchange on small datasets.
func TestChebyshevMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		k := 1 + trial%3
		n := k + 2 + rng.Intn(6)
		cols := make([][]float64, k)
		for j := range cols {
			for i := 0; i < n; i++ {
				cols[j] = append(cols[j], float64(rng.Intn(21)))
			}
		}
		y := make([]float64, n)
		for i := range y {
			y[i] = float64(rng.Intn(41)) - 20
		}
		skip := -1
		if trial%4 == 3 {
			skip = rng.Intn(n)
		}
		var act [maxTerms + 1]int
		if independent(cols, n, skip, &act) != k+1 {
			continue
		}
		var fit minimaxFit
		if skip >= 0 && n-1 == k+1 {
			if chebyshev(cols, y, skip, &fit) {
				t.Fatalf("trial %d: fitted %d coefficients to as many rows", trial, k+1)
			}
			continue
		}
		want := bruteMinimax(cols, y, skip)
		if !chebyshev(cols, y, skip, &fit) {
			t.Fatalf("trial %d: no fit", trial)
		}
		if math.Abs(fit.worst-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d (k=%d, n=%d, skip %d): worst %v, brute force %v", trial, k, n, skip, fit.worst, want)
		}
		if got := maxResidual(cols, y, &fit.c, skip); math.Abs(got-fit.worst) > 1e-9*(1+want) {
			t.Fatalf("trial %d: reported worst %v, rows give %v", trial, fit.worst, got)
		}
	}
}

// bruteMinimax returns the largest levelled error |Σ λ_p·y_p| / Σ |λ_p|
// over every set of m+1 rows (m = len(cols)+1 coefficients, rows other
// than skip) whose design rows have a one-dimensional null space λ.
func bruteMinimax(cols [][]float64, y []float64, skip int) float64 {
	m := len(cols) + 1
	var rows []int
	for i := range y {
		if i != skip {
			rows = append(rows, i)
		}
	}
	best := 0.0
	set := make([]int, m+1)
	var walk func(from, at int)
	walk = func(from, at int) {
		if at == m+1 {
			if level, ok := levelled(cols, y, set); ok {
				best = math.Max(best, level)
			}
			return
		}
		for p := from; p < len(rows); p++ {
			set[at] = rows[p]
			walk(p+1, at+1)
		}
	}
	walk(0, 0)
	return best
}

// levelled returns the levelled error of the reference set: λ is the
// generalised cross product of its m+1 design rows, λ_p = (−1)^p times
// the determinant of the rows without row p.
func levelled(cols [][]float64, y []float64, set []int) (float64, bool) {
	m := len(set) - 1
	num, den := 0.0, 0.0
	for p := range set {
		var a [refSize][refSize]float64
		r := 0
		for q, i := range set {
			if q == p {
				continue
			}
			a[r][0] = 1
			for j, col := range cols {
				a[r][j+1] = col[i]
			}
			r++
		}
		lambda := det(a, m)
		if p%2 == 1 {
			lambda = -lambda
		}
		num += lambda * y[set[p]]
		den += math.Abs(lambda)
	}
	if den < 1e-9 {
		return 0, false
	}
	return math.Abs(num) / den, true
}

// det is the determinant of a's leading n×n block.
func det(a [refSize][refSize]float64, n int) float64 {
	d := 1.0
	for c := 0; c < n; c++ {
		p := c
		for r := c + 1; r < n; r++ {
			if math.Abs(a[r][c]) > math.Abs(a[p][c]) {
				p = r
			}
		}
		if a[p][c] == 0 {
			return 0
		}
		if p != c {
			a[p], a[c] = a[c], a[p]
			d = -d
		}
		d *= a[c][c]
		for r := c + 1; r < n; r++ {
			f := a[r][c] / a[c][c]
			for j := c; j < n; j++ {
				a[r][j] -= f * a[c][j]
			}
		}
	}
	return d
}

// stopCase readies an evaluator on d under a stop of stopFitness and
// scores tree on it as the stop ladder does.
func stopCase(d *Dataset, stopFitness float64, tree *Node) (*evaluator, individual) {
	cfg := DefaultConfig()
	cfg.StopFitness = stopFitness
	e := new(evaluator)
	e.reset(d, cfg)
	out := make([]individual, 1)
	e.scoreAll([]*Node{tree}, out)
	return e, out[0]
}

// The torque shape stops on its basis program only through the minimax
// refit: the trimmed MAE meets the stop, the least-squares program misses
// rows, and the refitted program keeps every row within half a step. A
// dataset whose display step is unknown never takes the refit.
func TestStopsOnMinimaxRefit(t *testing.T) {
	d := torqueDataset()
	stop := d.HalfStep / 2 // scaling.InferContext's quantum/4
	e, best := stopCase(d, stop, torqueBasis())
	if best.raw > stop {
		t.Fatalf("trimmed MAE %v over the stop %v", best.raw, stop)
	}
	if e.fitsRows(e.materialise(best.tree), 2*stop) {
		t.Fatal("the least-squares program already fits the rows; the case does not need the refit")
	}
	if !e.stops(best) {
		t.Fatal("the basis program did not stop on the minimax refit")
	}
	got := e.materialise(best.tree)
	for i, row := range d.X {
		if r := math.Abs(got.Eval(row) - d.Y[i]); !(r <= e.halfStep()) {
			t.Errorf("row %d: %s misses %v by %v", i, got, d.Y[i], r)
		}
	}
	unknown := torqueDataset()
	unknown.HalfStep = 0
	if e, best := stopCase(unknown, stop, torqueBasis()); e.stops(best) {
		t.Error("stopped with an unknown display step")
	}
}

// One OCR outlier row is forgiven, as fitsRows forgives one row; two are
// not.
func TestStopsForgivesOneOutlier(t *testing.T) {
	d := torqueDataset()
	stop := d.HalfStep / 2
	if e, best := stopCase(withOutliers(d, 23), stop, torqueBasis()); !e.stops(best) {
		t.Error("one outlier row: did not stop")
	}
	if e, best := stopCase(withOutliers(d, 23, 41), stop, torqueBasis()); e.stops(best) {
		t.Error("two outlier rows: stopped")
	}
}

// Car I's OBD 0x0C engine speed, (256·X0+X1)/4 rpm on its observed rows:
// under a loose StopFitness floor X0 alone meets the trimmed-MAE stop and
// its minimax fit is within the floor's row bound, but it misses by
// nearly 20 rpm, so the refit, judged against half a display step, must
// not stop on it.
func TestMinimaxRefitIgnoresTheFloor(t *testing.T) {
	rows := [][]float64{
		{16, 220}, {18, 76}, {15, 218}, {16, 106}, {18, 231}, {19, 200}, {19, 174}, {24, 117},
		{24, 183}, {28, 98}, {26, 159}, {29, 186}, {26, 52}, {27, 83}, {31, 108}, {32, 184},
	}
	d := &Dataset{HalfStep: 0.5}
	for _, r := range rows {
		d.X = append(d.X, r)
		d.Y = append(d.Y, math.Round((256*r[0]+r[1])/4))
	}
	// A floor of 10 rpm: its row bound, 2·StopFitness, admits X0's
	// minimax fit, and X0's trimmed MAE meets it.
	const stop = 10
	var mm minimaxFit
	if !chebyshev(columns(d, x0), d.Y, -1, &mm) || mm.worst > 2*stop || mm.worst < 10 {
		t.Fatalf("X0's minimax miss is %v rpm, want 10 to %v", mm.worst, 2*stop)
	}
	e, best := stopCase(d, stop, x0)
	if best.raw > stop {
		t.Fatalf("X0's trimmed MAE %v is over the floor %v; the case does not reach the refit", best.raw, stop)
	}
	if e.fitsRows(e.materialise(best.tree), 2*stop) {
		t.Fatalf("X0's least-squares program fits within the floor's bound %v", 2*stop)
	}
	if e.stops(best) {
		t.Fatalf("stopped on X0 alone, which misses by %v rpm", mm.worst)
	}
}

// A whole-tree refit fits the whole tree's column even when the root-term
// fit was tried first and lost: X0 + X0's terms are collinear, so its fit
// is the one column 2·X0, and the refitted program must keep the minimax
// fit of y on X0 alone.
func TestRefitUsesWholeTreeColumn(t *testing.T) {
	d := &Dataset{HalfStep: 0.05}
	for i := 0; i < 20; i++ {
		d.X = append(d.X, []float64{float64(i)})
		d.Y = append(d.Y, 3*float64(i)+1+0.01*float64(i%3-1))
	}
	e, _ := stopCase(d, 0.01, sum2(x0, x0))
	if e.m.fit.k != 1 {
		t.Fatalf("X0 + X0 kept a %d-term fit", e.m.fit.k)
	}
	var want minimaxFit
	if !chebyshev(columns(d, x0), d.Y, -1, &want) {
		t.Fatal("no fit")
	}
	e.minimax = true
	got := e.materialise(sum2(x0, x0))
	worst := 0.0
	for i, row := range d.X {
		worst = math.Max(worst, math.Abs(got.Eval(row)-d.Y[i]))
	}
	if math.Abs(worst-want.worst) > 1e-9 {
		t.Fatalf("refitted %s misses by %v, the minimax fit by %v", got, worst, want.worst)
	}
}

// FuzzMinimaxFit feeds the minimax solver random columns, with constant,
// collinear, huge, NaN and infinite entries mixed in. A fit it accepts has
// finite coefficients, reports its own largest residual, and is never
// worse than the least-squares fit of the same columns.
func FuzzMinimaxFit(f *testing.F) {
	f.Add([]byte{12, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24})
	f.Add([]byte{30, 3, 0, 0, 0, 200, 201, 202, 250, 251, 9, 9, 9, 9, 1, 2, 3})
	f.Add([]byte{4, 4, 255, 254, 253, 252, 251, 250, 249, 248, 247, 246})
	f.Add([]byte{20, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{57, 2, 5, 127, 5, 129, 7, 127, 9, 129, 3, 1, 4, 1, 5, 9, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, k := 2+int(data[0])%63, 1+int(data[1])%maxTerms
		skip := -1
		if data[0] >= 128 {
			skip = int(data[1]) % n
		}
		data = data[2:]
		next := func(i int) byte {
			if len(data) == 0 {
				return byte(i)
			}
			return data[i%len(data)]
		}
		cols := make([][]float64, k)
		for j := range cols {
			cols[j] = make([]float64, n)
		}
		y := make([]float64, n)
		at := 0
		for i := 0; i < n; i++ {
			for j := range cols {
				cols[j][i] = fuzzValue(next(at), next(at+1), i, cols, j)
				at += 2
			}
			y[i] = float64(int8(next(at))) * 0.37
			at++
		}
		var fit minimaxFit
		if !chebyshev(cols, y, skip, &fit) {
			return
		}
		if !finite(fit.c[:]) {
			t.Fatalf("accepted non-finite coefficients %v", fit.c)
		}
		got := maxResidual(cols, y, &fit.c, skip)
		if math.Abs(got-fit.worst) > 1e-9*(1+got) {
			t.Fatalf("reported worst %v, rows give %v", fit.worst, got)
		}
		var c [maxTerms + 1]float64
		hv, hi := make([]float64, n), make([]int, n)
		if skip < 0 && linearScale(cols, y, hv, hi, &c) {
			if ls := maxResidual(cols, y, &c, -1); got > ls+1e-9*(1+ls) {
				t.Fatalf("minimax worst %v over the least-squares fit's %v", got, ls)
			}
		}
	})
}
