package gp

import (
	"math"
	"testing"
)

// kernelEdges are the inputs where a compare-first kernel could part from
// math.Max/math.Min: signed zeros, infinities, NaN, subnormals, the
// tangent clamp's bounds and tangent poles.
var kernelEdges = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
	1e6, -1e6, math.Nextafter(1e6, 2e6), math.Nextafter(-1e6, -2e6),
	1, -1, 3.5, math.Pi / 2, -math.Pi / 2,
}

// bitEqual is float64 identity down to the NaN payload.
func bitEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestBranchFirstKernelsMatchMath(t *testing.T) {
	for _, a := range kernelEdges {
		for _, b := range kernelEdges {
			if got, want := pMax(a, b), math.Max(a, b); !bitEqual(got, want) {
				t.Errorf("pMax(%v, %v) = %v, math.Max gives %v", a, b, got, want)
			}
			if got, want := pMin(a, b), math.Min(a, b); !bitEqual(got, want) {
				t.Errorf("pMin(%v, %v) = %v, math.Min gives %v", a, b, got, want)
			}
		}
		want := 0.0
		if v := math.Tan(a); !math.IsNaN(v) {
			want = math.Max(-1e6, math.Min(1e6, v))
		}
		if got := pTan(a); !bitEqual(got, want) {
			t.Errorf("pTan(%v) = %v, want %v", a, got, want)
		}
	}
}
