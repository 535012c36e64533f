package oracle

import (
	"math"
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
