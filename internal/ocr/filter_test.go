package ocr

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// sortedFilterOutliers is FilterOutliers with every median taken by
// sort.Float64s over a fresh slice, the way the filter was first written.
func sortedFilterOutliers(samples []Sample) []Sample {
	if len(samples) < 5 {
		return append([]Sample(nil), samples...)
	}
	median := func(vals []float64) float64 {
		vals = slices.Clone(vals)
		sort.Float64s(vals)
		n := len(vals)
		if n%2 == 1 {
			return vals[n/2]
		}
		return (vals[n/2-1] + vals[n/2]) / 2
	}
	mad := func(vals []float64, med float64) float64 {
		devs := make([]float64, len(vals))
		for i, v := range vals {
			devs[i] = math.Abs(v - med)
		}
		return median(devs)
	}
	var all []float64
	for _, s := range samples {
		all = append(all, s.Value)
	}
	globalMed := median(all)
	globalMAD := mad(all, globalMed)
	var out []Sample
	for i, s := range samples {
		var neigh []float64
		for j := max(i-3, 0); j < min(i+4, len(samples)); j++ {
			if j != i {
				neigh = append(neigh, samples[j].Value)
			}
		}
		med := median(neigh)
		tol := math.Max(5*mad(neigh, med), 0.15*math.Abs(med)+0.5)
		tol = math.Max(tol, 4*globalMAD)
		if math.Abs(s.Value-med) <= tol {
			out = append(out, s)
		}
	}
	return out
}

// sameSamples compares sample series bit for bit, so NaN values and the
// sign of zero count.
func sameSamples(a, b []Sample) bool {
	return slices.EqualFunc(a, b, func(x, y Sample) bool {
		return x.At == y.At && math.Float64bits(x.Value) == math.Float64bits(y.Value)
	})
}

// The insertion-sorted neighbourhood medians must keep exactly the samples
// the sort-based filter keeps, also for NaN, ±Inf, ±0 and repeated values,
// and must append to dst without touching what it already holds.
func TestFilterOutliersMatchesSortedReference(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, 1, 250, -3.5}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		samples := make([]Sample, rng.Intn(40))
		for i := range samples {
			v := 25 + rng.NormFloat64()
			switch r := rng.Intn(10); {
			case r < 3:
				v = specials[rng.Intn(len(specials))]
			case r < 5 && i > 0:
				v = samples[i-1].Value
			}
			samples[i] = Sample{At: time.Duration(i) * time.Second, Value: v}
		}
		want := sortedFilterOutliers(samples)
		prefix := []Sample{{At: -1, Value: 7}}
		got := FilterOutliers(samples, slices.Clone(prefix))
		if !sameSamples(got[:1], prefix) || !sameSamples(got[1:], want) {
			t.Fatalf("trial %d: samples %v: kept %v, reference kept %v", trial, samples, got, want)
		}
	}
}

// A series longer than the stack buffer for the series-wide median takes
// the same decisions.
func TestFilterOutliersLongSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	samples := make([]Sample, 1500)
	for i := range samples {
		v := 800 + float64(i) + 5*rng.NormFloat64()
		if i%97 == 0 {
			v *= 10
		}
		samples[i] = Sample{At: time.Duration(i), Value: v}
	}
	if got, want := FilterOutliers(samples, nil), sortedFilterOutliers(samples); !sameSamples(got, want) {
		t.Fatalf("kept %d samples, reference kept %d", len(got), len(want))
	}
}

func TestFilterRangeAppends(t *testing.T) {
	dst := []Sample{{At: -1, Value: 1}}
	out := FilterRange([]Sample{{0, 5}, {1, 500}, {2, 6}}, 0, 100, dst)
	if want := []Sample{{-1, 1}, {0, 5}, {2, 6}}; !slices.Equal(out, want) {
		t.Fatalf("got %v, want %v", out, want)
	}
}
