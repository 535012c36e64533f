package ocr

import (
	"math"
	"sort"
	"time"
)

// Sample is one timestamped recognised value of a single quantity.
type Sample struct {
	At    time.Duration
	Value float64
}

// FilterRange implements stage one of §3.3's filtering: drop samples
// outside the quantity's plausible physical range (the paper seeds these
// ranges from public PID tables; here they come from the tool database's
// min/max or, for fully unknown quantities, generous defaults).
func FilterRange(samples []Sample, min, max float64) []Sample {
	out := make([]Sample, 0, len(samples))
	for _, s := range samples {
		if s.Value >= min && s.Value <= max {
			out = append(out, s)
		}
	}
	return out
}

// FilterOutliers implements stage two: windowed median/MAD rejection.
// For each sample, the median of its temporal neighbourhood is computed;
// values far beyond both the local and the series-wide dispersion are
// rejected. This encodes the paper's observation that an ESV cannot change
// greatly within a short time, while tolerating both genuine drift and
// genuinely volatile quantities (whose series-wide MAD is large).
func FilterOutliers(samples []Sample) []Sample {
	if len(samples) < 5 {
		return append([]Sample(nil), samples...)
	}
	// Series-wide dispersion: jumps comparable to how much the quantity
	// moves anyway are not OCR errors. The medians only feed comparisons,
	// so sorting the scratch in place changes no decision.
	all := make([]float64, len(samples))
	for i, s := range samples {
		all[i] = s.Value
	}
	globalMed := MedianInPlace(all)
	globalMAD := medianAbsDevInPlace(all, globalMed)

	const window = 3 // neighbours on each side
	// The neighbourhood never exceeds 2*window values, so its scratch
	// lives on the stack instead of costing allocations per sample.
	var neighBuf [2 * window]float64
	out := make([]Sample, 0, len(samples))
	for i, s := range samples {
		lo, hi := i-window, i+window+1
		if lo < 0 {
			lo = 0
		}
		if hi > len(samples) {
			hi = len(samples)
		}
		neigh := neighBuf[:0]
		for j := lo; j < hi; j++ {
			if j == i {
				continue
			}
			neigh = append(neigh, samples[j].Value)
		}
		med := MedianInPlace(neigh)
		mad := medianAbsDevInPlace(neigh, med)
		tol := math.Max(5*mad, 0.15*math.Abs(med)+0.5)
		tol = math.Max(tol, 4*globalMAD)
		if math.Abs(s.Value-med) <= tol {
			out = append(out, s)
		}
	}
	return out
}

// Filter chains both stages.
func Filter(samples []Sample, min, max float64) []Sample {
	return FilterOutliers(FilterRange(samples, min, max))
}

// MedianInPlace sorts vals and returns their median (0 when empty).
func MedianInPlace(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sort.Float64s(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// medianAbsDevInPlace overwrites vals with their absolute deviations from
// med and returns the median of those.
func medianAbsDevInPlace(vals []float64, med float64) float64 {
	for i, v := range vals {
		vals[i] = math.Abs(v - med)
	}
	return MedianInPlace(vals)
}
