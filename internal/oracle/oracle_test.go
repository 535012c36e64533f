package oracle

import (
	"math"
	"slices"
	"testing"

	"dpreverser/internal/gp"
)

func TestToleranceFollowsDisplayBands(t *testing.T) {
	for _, c := range []struct{ want, tol float64 }{
		{0, 0.02},
		{0.5, 0.02 + 0.015},
		{-50, 0.02 + 1.5},
		{100, 0.2 + 3},
		{-999, 0.2 + 29.97},
		{1000, 2 + 30},
	} {
		if got := Tolerance(c.want); math.Abs(got-c.tol) > 1e-12 {
			t.Errorf("Tolerance(%v) = %v, want %v", c.want, got, c.tol)
		}
	}
}

func TestCorrect(t *testing.T) {
	// truth: 0.01·X0 − 0.5, whose whole range is under ±2.
	decode := func(v []float64) float64 { return 0.01*v[0] - 0.5 }
	domain := [][]float64{{0}, {50}, {100}, {200}}
	exact := gp.NewBinary(gp.OpSub, gp.NewBinary(gp.OpMul, gp.NewConst(0.01), gp.NewVar(0)), gp.NewConst(0.5))
	if !Correct(exact, decode, domain) {
		t.Error("exact formula rejected")
	}
	// Off by 0.1 everywhere: inside the old 1.0 + 3% rule, outside two
	// display steps (0.02) plus 3%.
	off := gp.NewBinary(gp.OpAdd, exact, gp.NewConst(0.1))
	if Correct(off, decode, domain) {
		t.Error("formula off by 0.1 accepted")
	}
	if Correct(gp.NewConst(math.NaN()), decode, domain) {
		t.Error("NaN formula accepted")
	}
	if Correct(nil, decode, domain) || Correct(exact, decode, nil) {
		t.Error("nil formula or empty domain accepted")
	}
	nan := func([]float64) float64 { return math.NaN() }
	if Correct(exact, nan, domain) {
		t.Error("undecodable row accepted")
	}
}

func TestDomainCorrect(t *testing.T) {
	// truth: 0.392·X0, seen on two rows only.
	decode := func(v []float64) float64 { return 0.392 * v[0] }
	observed := [][]float64{{100}, {110}}
	exact := gp.NewBinary(gp.OpMul, gp.NewConst(0.392), gp.NewVar(0))
	// A line through the two rows that is off by 1.38 at X0 = 0, where
	// the truth is 0 and the tolerance two display steps.
	line := gp.NewBinary(gp.OpSub, gp.NewBinary(gp.OpMul, gp.NewConst(0.4), gp.NewVar(0)), gp.NewConst(1.38))
	if !Correct(line, decode, observed) {
		t.Fatal("the two-row line fails its observed rows")
	}
	if DomainCorrect(line, decode, observed) {
		t.Error("the two-row line passes the whole domain")
	}
	if !DomainCorrect(exact, decode, observed) {
		t.Error("exact formula rejected")
	}
	// truth X0·X1/5 with X1 frozen at 10: 2·X0 is right wherever the
	// stream can go.
	product := func(v []float64) float64 { return v[0] * v[1] / 5 }
	frozen := [][]float64{{3, 10}, {90, 10}, {200, 10}}
	twice := gp.NewBinary(gp.OpMul, gp.NewConst(2), gp.NewVar(0))
	if !DomainCorrect(twice, product, frozen) {
		t.Error("formula right on the frozen variable's value rejected")
	}
	if DomainCorrect(twice, product, [][]float64{{3, 10}, {90, 11}}) {
		t.Error("2·X0 accepted with X1 varying")
	}
	if DomainCorrect(nil, decode, observed) || DomainCorrect(exact, decode, nil) {
		t.Error("nil formula or empty domain accepted")
	}
	if DomainCorrect(exact, func([]float64) float64 { return math.NaN() }, observed) {
		t.Error("undecodable grid accepted")
	}
}

func TestDomainAxes(t *testing.T) {
	lens := func(axes [][]float64) []int {
		var n []int
		for _, a := range axes {
			n = append(n, len(a))
		}
		return n
	}
	for _, c := range []struct {
		name     string
		observed [][]float64
		lens     []int
		top      float64
	}{
		{"one byte", [][]float64{{0, 5}, {200, 5}}, []int{256, 1}, 255},
		{"seen above 255", [][]float64{{0, 5}, {300, 5}}, []int{65536, 1}, 65535},
		{"two varying bytes", [][]float64{{1, 2}, {3, 4}}, []int{256, 256}, 255},
		{"four varying bytes, stepped", [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}}, []int{32, 32, 32, 32}, 255},
		{"seen above 65535, stepped", [][]float64{{0}, {70000}}, []int{1 << 20}, 1<<24 - 1},
	} {
		axes := domainAxes(c.observed)
		if got := lens(axes); !slices.Equal(got, c.lens) {
			t.Errorf("%s: axis lengths %v, want %v", c.name, got, c.lens)
			continue
		}
		if a := axes[0]; a[0] != 0 || a[len(a)-1] != c.top {
			t.Errorf("%s: first axis spans %v..%v, want 0..%v", c.name, a[0], a[len(a)-1], c.top)
		}
	}
	if got := domainAxes([][]float64{{0, 5}, {200, 5}})[1][0]; got != 5 {
		t.Errorf("frozen variable held at %v, want 5", got)
	}
}
