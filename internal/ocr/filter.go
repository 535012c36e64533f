package ocr

import (
	"cmp"
	"math"
	"slices"
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
// min/max or, for fully unknown quantities, generous defaults). The kept
// samples are appended to dst.
func FilterRange(samples []Sample, min, max float64, dst []Sample) []Sample {
	for _, s := range samples {
		if s.Value >= min && s.Value <= max {
			dst = append(dst, s)
		}
	}
	return dst
}

// FilterOutliers implements stage two: windowed median/MAD rejection.
// For each sample, the median of its temporal neighbourhood is computed;
// values far beyond both the local and the series-wide dispersion are
// rejected. This encodes the paper's observation that an ESV cannot change
// greatly within a short time, while tolerating both genuine drift and
// genuinely volatile quantities (whose series-wide MAD is large). The
// kept samples are appended to dst.
func FilterOutliers(samples, dst []Sample) []Sample {
	if len(samples) < 5 {
		return append(dst, samples...)
	}
	// Series-wide dispersion: jumps comparable to how much the quantity
	// moves anyway are not OCR errors. The medians only feed comparisons,
	// so sorting the scratch in place changes no decision. A series of a
	// few hundred samples sorts on the stack.
	var allBuf [512]float64
	all := allBuf[:0]
	for _, s := range samples {
		all = append(all, s.Value)
	}
	globalMed := MedianInPlace(all)
	globalMAD := medianAbsDevInPlace(all, globalMed)

	const window = 3 // neighbours on each side
	// The neighbourhood never exceeds 2*window values, so its scratch
	// lives on the stack and is sorted by insertion.
	var neighBuf [2 * window]float64
	for i, s := range samples {
		lo, hi := max(i-window, 0), min(i+window+1, len(samples))
		neigh := neighBuf[:0]
		for j := lo; j < hi; j++ {
			if j != i {
				neigh = append(neigh, samples[j].Value)
			}
		}
		med := smallMedian(neigh)
		dev := math.Abs(s.Value - med)
		// The tolerance is the largest of three terms, and only the local
		// MAD's needs another sort: a sample within the other two is kept
		// whatever it is. (If the MAD is NaN, so is med or a term is +Inf.)
		floor := math.Max(0.15*math.Abs(med)+0.5, 4*globalMAD)
		if dev <= floor {
			dst = append(dst, s)
			continue
		}
		for k, v := range neigh {
			neigh[k] = math.Abs(v - med)
		}
		if dev <= math.Max(5*smallMedian(neigh), floor) {
			dst = append(dst, s)
		}
	}
	return dst
}

// Filter chains both stages into a new slice.
func Filter(samples []Sample, min, max float64) []Sample {
	return FilterOutliers(FilterRange(samples, min, max, nil), nil)
}

// MedianInPlace sorts vals and returns their median (0 when empty).
func MedianInPlace(vals []float64) float64 {
	slices.Sort(vals)
	return sortedMedian(vals)
}

// smallMedian is MedianInPlace for the few values of a neighbourhood: it
// sorts them by insertion in cmp.Less order, NaNs first, which is the sort
// slices.Sort runs on so few values, without the call.
func smallMedian(vals []float64) float64 {
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && cmp.Less(vals[j], vals[j-1]); j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	return sortedMedian(vals)
}

// sortedMedian returns the median of sorted vals (0 when empty).
func sortedMedian(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
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
