package regress

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dpreverser/internal/gp"
)

func grid(f func(a, b float64) float64, x0s, x1s []float64) *gp.Dataset {
	d := &gp.Dataset{}
	for _, a := range x0s {
		for _, b := range x1s {
			d.X = append(d.X, []float64{a, b})
			d.Y = append(d.Y, f(a, b))
		}
	}
	return d
}

func seq(from, to, step float64) []float64 {
	var out []float64
	for v := from; v <= to; v += step {
		out = append(out, v)
	}
	return out
}

func TestLinearFitExact(t *testing.T) {
	// Y = 3*X0 - 2*X1 + 5.
	d := grid(func(a, b float64) float64 { return 3*a - 2*b + 5 }, seq(0, 10, 1), seq(0, 5, 1))
	res, err := LinearFit(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Intercept-5) > 1e-6 ||
		math.Abs(res.Coeffs[0]-3) > 1e-6 ||
		math.Abs(res.Coeffs[1]+2) > 1e-6 {
		t.Fatalf("fit = %+v", res)
	}
	if res.MAE > 1e-6 {
		t.Fatalf("MAE = %v on exact linear data", res.MAE)
	}
}

func TestLinearFitCannotExpressProduct(t *testing.T) {
	// Y = X0*X1/5 — the paper's engine-speed formula. Linear regression
	// must leave substantial residual error (§4.4's point).
	d := grid(func(a, b float64) float64 { return a * b / 5 }, seq(100, 250, 10), seq(5, 50, 5))
	res, err := LinearFit(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.MAE < 10 {
		t.Fatalf("linear MAE = %v on product data, expected large residual", res.MAE)
	}
}

func TestLinearFitSensitiveToOutliers(t *testing.T) {
	// Same corruption as the GP robustness test: plain least squares must
	// be dragged far off while GP (tested in internal/gp) stays put.
	d := &gp.Dataset{}
	for x := 1.0; x <= 100; x++ {
		d.X = append(d.X, []float64{x})
		d.Y = append(d.Y, 2*x)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < len(d.Y); i += 20 {
		d.Y[i] = rng.Float64() * 1000
	}
	res, err := LinearFit(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Coeffs[0]-2) < 0.05 && math.Abs(res.Intercept) < 5 {
		t.Fatalf("least squares unexpectedly robust: %+v", res)
	}
}

func TestLinearFitConstantColumnSingular(t *testing.T) {
	// X0 pinned at 100 (the paper's vehicle-speed capture): the X0 column
	// is a multiple of the intercept, so the naive normal-equations solver
	// must report a singular system — the failure mode behind the paper's
	// Car K baseline collapse (2/41 correct).
	d := &gp.Dataset{}
	for x1 := 0.0; x1 <= 60; x1 += 2 {
		d.X = append(d.X, []float64{100, x1})
		d.Y = append(d.Y, x1)
	}
	if _, err := LinearFit(d); !errors.Is(err, ErrSingular) {
		t.Fatalf("constant column: err = %v, want ErrSingular", err)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit(&gp.Dataset{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestPolyFitExactQuadratic(t *testing.T) {
	// Y = X0² + 2*X0*X1 - X1 + 3.
	d := grid(func(a, b float64) float64 { return a*a + 2*a*b - b + 3 }, seq(-5, 5, 1), seq(-3, 3, 1))
	res, err := PolyFit(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.MAE > 1e-5 {
		t.Fatalf("MAE = %v on exact quadratic data (tree %q)", res.MAE, res.Tree)
	}
}

func TestPolyFitRecoversProduct(t *testing.T) {
	// Y = X0*X1/5 is representable by the cross term; the fit should be
	// near-exact on clean data (Table 10 shows poly beating linear on some
	// cars for exactly this reason).
	d := grid(func(a, b float64) float64 { return a * b / 5 }, seq(100, 250, 10), seq(5, 50, 5))
	res, err := PolyFit(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.MAE > 1 {
		t.Fatalf("poly MAE = %v on product data", res.MAE)
	}
}

func TestPolyFitCannotExpressSqrt(t *testing.T) {
	// A non-polynomial formula leaves residual error over a wide domain.
	d := &gp.Dataset{}
	for x := 0.0; x <= 400; x += 2 {
		d.X = append(d.X, []float64{x})
		d.Y = append(d.Y, 40*math.Sqrt(x))
	}
	res, err := PolyFit(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.MAE < 5 {
		t.Fatalf("poly MAE = %v on sqrt data, expected residual", res.MAE)
	}
}

func TestPolyFitDegreeValidation(t *testing.T) {
	d := &gp.Dataset{X: [][]float64{{1}}, Y: []float64{1}}
	if _, err := PolyFit(d, 3); !errors.Is(err, ErrBadDegree) {
		t.Fatalf("degree 3: %v", err)
	}
}

func TestSolveSingular(t *testing.T) {
	a := [][]float64{{1, 1}, {1, 1}}
	if _, err := solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular system: %v", err)
	}
}

// Property: linear fit recovers arbitrary affine relations exactly on
// noise-free data with enough spread.
func TestLinearFitRecoveryProperty(t *testing.T) {
	f := func(rawB0, rawB1, rawC int16) bool {
		b0 := float64(rawB0) / 100
		b1 := float64(rawB1) / 100
		c := float64(rawC) / 100
		d := &gp.Dataset{}
		for x0 := 0.0; x0 < 10; x0++ {
			for x1 := 0.0; x1 < 5; x1++ {
				d.X = append(d.X, []float64{x0, x1})
				d.Y = append(d.Y, b0*x0+b1*x1+c)
			}
		}
		res, err := LinearFit(d)
		if err != nil {
			return false
		}
		return res.MAE < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the poly tree and the coefficient vector agree — evaluating the
// tree equals the dot product of features and coefficients.
func TestPolyTreeMatchesCoeffsProperty(t *testing.T) {
	d := grid(func(a, b float64) float64 { return a*b + a - 3 }, seq(0, 6, 1), seq(0, 4, 1))
	res, err := PolyFit(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a8, b8 int8) bool {
		row := []float64{float64(a8) / 4, float64(b8) / 4}
		feats := polyFeatures(row)
		dot := 0.0
		for i, c := range res.Coeffs {
			dot += c * feats[i]
		}
		return math.Abs(dot-res.Tree.Eval(row)) < 1e-6*(1+math.Abs(dot))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
