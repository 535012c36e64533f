package gp

import (
	"encoding/binary"
	"math"
	"testing"
)

// scaleOne is linearScale on one column, as the pair (a, b) of a·g+b.
func scaleOne(g, y []float64) (a, b float64) {
	var c [maxTerms + 1]float64
	linearScale([][]float64{g}, y, make([]float64, len(g)), make([]int, len(g)), &c)
	return c[1], c[0]
}

// refLinearScale is the one-column fit as it stood before the fit took
// several columns, with its caller's fallback to (1, 0) for non-finite
// coefficients: the bits a one-column linearScale must still produce.
func refLinearScale(g, y []float64) (a, b float64) {
	a, b = refFit(g, y)
	if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
		return 1, 0
	}
	return a, b
}

func refFit(g, y []float64) (a, b float64) {
	n := len(g)
	hv, hi := make([]float64, n), make([]int, n)
	var sg, sy, sgg, sgy float64
	for i := range g {
		sg += g[i]
		sy += y[i]
		sgg += g[i] * g[i]
		sgy += g[i] * y[i]
	}
	nf := float64(n)
	det := nf*sgg - sg*sg
	if math.Abs(det) < 1e-12 {
		return 0, sy / nf
	}
	a = (nf*sgy - sg*sy) / det
	b = (sy*sgg - sg*sgy) / det
	if n < 10 {
		return a, b
	}
	keep := n * 4 / 5
	drop := n - keep
	hv, hi = hv[:drop], hi[:drop]
	s := strideFor(n)
	idx, j := 0, 0
	for t := 0; t < n; t++ {
		r := math.Abs(a*g[idx] + b - y[idx])
		if j < drop {
			hv[j], hi[j] = r, idx
			j++
			if j == drop {
				for k := drop/2 - 1; k >= 0; k-- {
					siftDownPair(hv, hi, k)
				}
			}
		} else if r > hv[0] {
			hv[0], hi[0] = r, idx
			siftDownPair(hv, hi, 0)
		}
		idx += s
		if idx >= n {
			idx -= n
		}
	}
	for k := 0; k < drop; k++ {
		i := hi[k]
		sg -= g[i]
		sy -= y[i]
		sgg -= g[i] * g[i]
		sgy -= g[i] * y[i]
	}
	kf := float64(keep)
	det = kf*sgg - sg*sg
	if math.Abs(det) < 1e-12 {
		return a, b
	}
	return (kf*sgy - sg*sy) / det, (sy*sgg - sg*sgy) / det
}

// fitOf scores tree t on d as the engine does and returns its raw fitness
// and the fit it leaves on the machine.
func fitOf(t *testing.T, d *Dataset, tree *Node) (float64, fitScratch) {
	t.Helper()
	e := new(evaluator)
	e.reset(d, DefaultConfig())
	m := NewMachine()
	raw := e.rawScore(Compile(tree), tree, m)
	return raw, m.fit
}

func sum2(a, b *Node) *Node  { return NewBinary(OpAdd, a, b) }
func diff2(a, b *Node) *Node { return NewBinary(OpSub, a, b) }
func prod2(a, b *Node) *Node { return NewBinary(OpMul, a, b) }

var x0, x1 = NewVar(0), NewVar(1)

// byteGrid samples f on a grid of byte-valued (X0, X1).
func byteGrid(f func(x0, x1 float64) float64) *Dataset {
	return makeDataset(f, seq(0, 255, 17), seq(0, 255, 15))
}

// The root terms of trees that share a compiled key are fitted in
// canonical order, so raw fitness and coefficients agree to the bit
// whatever order commutative operands appear in.
func TestRootFitIndependentOfOperandOrder(t *testing.T) {
	d := byteGrid(func(a, b float64) float64 { return 0.001*a*(b-128) + 0.3*math.Sin(a) })
	pairs := [][2]*Node{
		{sum2(prod2(x0, x1), x0), sum2(x0, prod2(x1, x0))},
		{diff2(sum2(prod2(x0, x1), x0), NewUnary(OpSin, x0)), diff2(sum2(x0, prod2(x1, x0)), NewUnary(OpSin, x0))},
		{sum2(sum2(NewUnary(OpSin, x0), x1), prod2(x0, x1)), sum2(prod2(x1, x0), sum2(x1, NewUnary(OpSin, x0)))},
	}
	for i, p := range pairs {
		if Compile(p[0]).Key() != Compile(p[1]).Key() {
			t.Fatalf("pair %d: %s and %s do not share a key", i, p[0], p[1])
		}
		raw0, f0 := fitOf(t, d, p[0])
		raw1, f1 := fitOf(t, d, p[1])
		if f0.k < 2 {
			t.Fatalf("pair %d: %s fitted as one column", i, p[0])
		}
		if !sameBits(raw0, raw1) || f0.k != f1.k || f0.coef != f1.coef {
			t.Fatalf("pair %d: %s → raw %v k %d coef %v; %s → raw %v k %d coef %v",
				i, p[0], raw0, f0.k, f0.coef, p[1], raw1, f1.k, f1.coef)
		}
	}
}

// Each way out of the term fit lands on the one-column fit.
func TestRootFitFallsBackToOneColumn(t *testing.T) {
	two := byteGrid(func(a, b float64) float64 { return 2*a - 3*b })
	if _, f := fitOf(t, two, diff2(x0, x1)); f.k != 2 {
		t.Fatalf("control: X0 - X1 fitted with k = %d, want 2", f.k)
	}
	five := sum2(sum2(sum2(x0, x1), sum2(prod2(x0, x1), prod2(x0, x0))), prod2(x1, x1))
	if _, f := fitOf(t, byteGrid(func(a, b float64) float64 { return a + 2*b + 3*a*b + 4*a*a + 5*b*b }), five); f.k != 1 {
		t.Errorf("five terms fitted with k = %d", f.k)
	}
	// Five distinct rows, each repeated: too few for three coefficients.
	few := &Dataset{}
	for r := 0; r < 10; r++ {
		for i := 0.0; i < 5; i++ {
			few.X = append(few.X, []float64{i, i * i})
			few.Y = append(few.Y, 2*i-3*i*i)
		}
	}
	if _, f := fitOf(t, few, diff2(x0, x1)); f.k != 1 {
		t.Errorf("5 distinct rows fitted with k = %d", f.k)
	}
	few.X = append(few.X, []float64{5, 25})
	few.Y = append(few.Y, 2*5-3*25)
	if _, f := fitOf(t, few, diff2(x0, x1)); f.k != 2 {
		t.Errorf("6 distinct rows fitted with k = %d, want 2", f.k)
	}
	// Collinear terms, and a constant term that only joins the intercept.
	for _, tree := range []*Node{sum2(x0, prod2(NewConst(2), x0)), sum2(x0, NewConst(3))} {
		if _, f := fitOf(t, two, tree); f.k != 1 {
			t.Errorf("%s fitted with k = %d", tree, f.k)
		}
	}
	// Non-finite or collinear columns make the fit itself fail.
	n := 30
	g, y := make([]float64, n), make([]float64, n)
	for i := range g {
		g[i], y[i] = float64(i), float64(i*i)
	}
	hv, hi := make([]float64, n), make([]int, n)
	var c [maxTerms + 1]float64
	for name, bad := range map[string]float64{"NaN": math.NaN(), "Inf": math.Inf(1), "huge": 1e300} {
		h := append([]float64(nil), g...)
		h[7] = bad
		if linearScale([][]float64{g, h}, y, hv, hi, &c) {
			t.Errorf("%s column: fit accepted, coef %v", name, c)
		}
	}
	twice := make([]float64, n)
	for i := range g {
		twice[i] = 2*g[i] + 1
	}
	if linearScale([][]float64{g, twice}, y, hv, hi, &c) {
		t.Errorf("collinear columns: fit accepted, coef %v", c)
	}
}

// materialise leaves out a root term whose fitted contribution is zero up
// to rounding and writes the remaining terms' own fit, but keeps a term
// that is small yet real.
func TestMaterialiseDropsNegligibleTerms(t *testing.T) {
	for _, c := range []struct {
		name string
		f    func(a, b float64) float64
		want string
	}{
		{"exact product", func(a, b float64) float64 { return a * b / 5 }, "(0.2 * (X0 * X1))"},
		{"small real term", func(a, b float64) float64 { return a*b/5 + 1e-3*a }, "((0.001 * X0) + (0.2 * (X0 * X1)))"},
	} {
		e := new(evaluator)
		e.reset(byteGrid(c.f), DefaultConfig())
		tree := sum2(prod2(x0, x1), x0)
		if got := Simplify(e.materialise(tree)).String(); got != c.want {
			t.Errorf("%s: %s materialises as %s, want %s", c.name, tree, got, c.want)
		}
	}
}

// FuzzRootFit feeds the least-squares fit random term columns, with
// constant, collinear, huge, NaN and infinite entries mixed in.
func FuzzRootFit(f *testing.F) {
	f.Add([]byte{12, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24})
	f.Add([]byte{30, 3, 0, 0, 0, 200, 201, 202, 250, 251, 9, 9, 9, 9, 1, 2, 3})
	f.Add([]byte{4, 4, 255, 254, 253, 252, 251, 250, 249, 248, 247, 246})
	f.Add([]byte{20, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, k := 2+int(data[0])%63, 1+int(data[1])%maxTerms
		data = data[2:]
		next := func(i int) byte {
			if len(data) == 0 {
				return byte(i)
			}
			return data[i%len(data)]
		}
		cols := make([][]float64, k)
		y := make([]float64, n)
		for j := range cols {
			cols[j] = make([]float64, n)
		}
		at := 0
		for i := 0; i < n; i++ {
			for j := range cols {
				cols[j][i] = fuzzValue(next(at), next(at+1), i, cols, j)
				at += 2
			}
			y[i] = float64(int8(next(at))) * 0.37
			at++
		}
		hv, hi := make([]float64, n), make([]int, n)
		var c [maxTerms + 1]float64
		if linearScale(cols, y, hv, hi, &c) && !finite(c[:k+1]) {
			t.Fatalf("accepted non-finite coefficients %v", c[:k+1])
		}
		if k == 1 {
			a, b := refLinearScale(cols[0], y)
			if !linearScale(cols, y, hv, hi, &c) {
				c[0], c[1] = 0, 1
			}
			if !sameBits(c[1], a) || !sameBits(c[0], b) {
				t.Fatalf("one column: (a, b) = (%v, %v), before (%v, %v)", c[1], c[0], a, b)
			}
		}
		// The engine's path: the columns as variables, the tree their sum.
		d := &Dataset{X: make([][]float64, n), Y: y}
		var tree *Node
		for i := range d.X {
			d.X[i] = make([]float64, k)
			for j := range cols {
				d.X[i][j] = cols[j][i]
			}
		}
		for j := 0; j < k; j++ {
			if tree == nil {
				tree = NewVar(j)
			} else {
				tree = sum2(tree, NewVar(j))
			}
		}
		raw, fit := fitOf(t, d, tree)
		if math.IsNaN(raw) || raw < 0 {
			t.Fatalf("raw = %v", raw)
		}
		if math.IsInf(raw, 1) {
			return // screened out before any fit
		}
		if !finite(fit.coef[:fit.k+1]) {
			t.Fatalf("raw %v with coefficients %v", raw, fit.coef[:fit.k+1])
		}
		if fit.k != 1 && fit.k != k {
			t.Fatalf("k = %d, want 1 or %d", fit.k, k)
		}
	})
}

// fuzzValue draws row i of column j from two fuzz bytes: mostly ordinary
// values, sometimes a constant, a copy of an earlier column, a huge
// value, NaN or ±Inf.
func fuzzValue(kind, v byte, i int, cols [][]float64, j int) float64 {
	switch kind % 16 {
	case 0:
		return 7
	case 1:
		if j > 0 {
			return 3 * cols[j-1][i]
		}
	case 2:
		return math.Float64frombits(binary.LittleEndian.Uint64([]byte{v, v, v, v, v, v, 0x7e, 0x7f}))
	case 3:
		return math.NaN()
	case 4:
		return math.Inf(1 - 2*int(v&1))
	}
	return float64(v) + float64(i%7)*0.5
}
