package reverser

// This file keeps the original, straightforward stream-preparation code as
// a test-only reference. The production path (streams.go) indexes keys,
// buckets rows and pairs by binary search for speed; the oracle tests in
// streams_oracle_test.go require both to produce deeply equal StreamData.
// Keep this file as it is: it is the behaviour the fast path must match.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dpreverser/internal/gp"
	"dpreverser/internal/ocr"
)

func refStreamsFromExtraction(ext *Extraction, uiFrames []ocr.Frame) []StreamData {
	var out []StreamData
	for _, sess := range splitSessions(uiFrames) {
		keys, inSession := refSessionStreams(ext.ESVs, sess)
		for rowIdx, key := range keys {
			out = append(out, refBuildStreamData(key, rowIdx, inSession[key], sess))
		}
	}
	return out
}

func refSessionStreams(obs []ESVObservation, sess session) ([]StreamKey, map[StreamKey][]ESVObservation) {
	var keys []StreamKey
	var sessObs []ESVObservation
	seen := map[StreamKey]bool{}
	inSession := map[StreamKey][]ESVObservation{}
	for _, o := range obs {
		if o.At < sess.start-time.Second || o.At > sess.end+time.Second {
			continue
		}
		if (o.Key.Proto == "OBD") != (sess.screenName == "obd-live") {
			continue
		}
		if !seen[o.Key] {
			seen[o.Key] = true
			keys = append(keys, o.Key)
		}
		sessObs = append(sessObs, o)
		inSession[o.Key] = append(inSession[o.Key], o)
	}
	if len(keys) > 1 {
		counts := make([]float64, len(keys))
		for i, k := range keys {
			counts[i] = float64(len(inSession[k]))
		}
		med := refMedianOf(counts)
		kept := keys[:0]
		for _, k := range keys {
			if float64(len(inSession[k]))*5 < med {
				delete(inSession, k)
				continue
			}
			kept = append(kept, k)
		}
		keys = kept
		keys = refVoteRowOrder(keys, sessObs, inSession)
	}
	return keys, inSession
}

func refVoteRowOrder(keys []StreamKey, sessObs []ESVObservation, inSession map[StreamKey][]ESVObservation) []StreamKey {
	firstSeen := make(map[StreamKey]int, len(keys))
	for i, k := range keys {
		firstSeen[k] = i
	}
	var kept []ESVObservation
	for _, o := range sessObs {
		if _, ok := inSession[o.Key]; ok {
			kept = append(kept, o)
		}
	}
	var gaps []float64
	for i := 1; i < len(kept); i++ {
		gaps = append(gaps, float64(kept[i].At-kept[i-1].At))
	}
	cycleGap := time.Duration(3 * refMedianOf(gaps))
	votes := make(map[StreamKey]map[int]int, len(keys))
	pos := 0
	cycleSeen := map[StreamKey]bool{}
	for i, o := range kept {
		tempCut := i > 0 && o.At-kept[i-1].At > cycleGap
		if tempCut || cycleSeen[o.Key] {
			pos = 0
			cycleSeen = map[StreamKey]bool{}
		}
		cycleSeen[o.Key] = true
		if votes[o.Key] == nil {
			votes[o.Key] = map[int]int{}
		}
		votes[o.Key][pos]++
		pos++
	}
	rank := make(map[StreamKey]int, len(keys))
	for _, k := range keys {
		best, bestN := firstSeen[k], 0
		for p, n := range votes[k] {
			if n > bestN || (n == bestN && p < best) {
				best, bestN = p, n
			}
		}
		rank[k] = best
	}
	ordered := append([]StreamKey(nil), keys...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if rank[ordered[i]] != rank[ordered[j]] {
			return rank[ordered[i]] < rank[ordered[j]]
		}
		return firstSeen[ordered[i]] < firstSeen[ordered[j]]
	})
	return ordered
}

func refBuildStreamData(key StreamKey, rowIdx int, obs []ESVObservation, sess session) StreamData {
	sd := StreamData{Key: key}

	labelVotes := map[string]int{}
	unitVotes := map[string]int{}
	var ySamples []ocr.Sample
	numericRows, textRows := 0, 0
	for _, f := range sess.frames {
		for _, row := range ocr.Layout(f.Texts, nil) {
			if row.Index != rowIdx {
				continue
			}
			if row.Label != "" {
				labelVotes[row.Label]++
			}
			if row.Unit != "" {
				unitVotes[row.Unit]++
			}
			if row.ParseOK {
				numericRows++
				ySamples = append(ySamples, ocr.Sample{At: f.At, Value: row.Parsed})
			} else if row.Value != "" {
				textRows++
			}
		}
	}
	sd.Label = majority(labelVotes)
	sd.Unit = majority(unitVotes)

	if textRows > numericRows {
		sd.Enum = true
		return sd
	}

	rawSamples := ySamples
	min, max := rangeForLabel(sd.Label)
	ySamples = refFilterOutliers(ocr.FilterRange(ySamples, min, max, nil))

	pair := func(samples []ocr.Sample) ([][]float64, []float64) {
		maxGap := pairMaxGap
		if spacing := refTypicalSpacing(samples); spacing > 0 && spacing*3/5 < maxGap {
			maxGap = spacing * 3 / 5
		}
		var xs [][]float64
		var ys []float64
		for _, o := range obs {
			vars, ok := o.appendVariables(nil)
			if !ok {
				continue
			}
			y, ok := refNearestSample(samples, o.At, maxGap)
			if !ok {
				continue
			}
			xs = append(xs, vars)
			ys = append(ys, y)
		}
		return xs, ys
	}

	pairsX, pairsY := pair(ySamples)
	pairsX, pairsY, sd.RejectedPairs = refScreenPairs(pairsX, pairsY)
	sd.RawPairs = len(pairsY)
	if sd.RawPairs < minPairs {
		return sd
	}
	sd.Dataset = refAggregateByX(pairsX, pairsY)

	rawX, rawY := pair(rawSamples)
	if len(rawY) > 0 {
		sd.RawDataset = &gp.Dataset{X: rawX, Y: rawY}
	}
	return sd
}

func refScreenPairs(xs [][]float64, ys []float64) ([][]float64, []float64, int) {
	if len(ys) < 4 {
		return xs, ys, 0
	}
	groupMed := map[string]float64{}
	keys := make([]string, len(xs))
	{
		groups := map[string][]float64{}
		for i, x := range xs {
			keys[i] = fmt.Sprintf("%v", x)
			groups[keys[i]] = append(groups[keys[i]], ys[i])
		}
		for k, vals := range groups {
			groupMed[k] = refMedianOf(vals)
		}
	}
	residuals := make([]float64, len(ys))
	absRes := make([]float64, len(ys))
	var absYs []float64
	for i, y := range ys {
		residuals[i] = y - groupMed[keys[i]]
		absRes[i] = abs(residuals[i])
		absYs = append(absYs, abs(y))
	}
	mad := refMedianOf(absRes)
	scale := refMedianOf(absYs)
	tol := 8 * mad
	if floor := 0.05*scale + 1; tol < floor {
		tol = floor
	}
	rejected := 0
	for i := range ys {
		if absRes[i] > tol {
			rejected++
		}
	}
	if rejected == 0 {
		return xs, ys, 0
	}
	if rejected*2 > len(residuals) {
		return xs, ys, 0
	}
	keptX := make([][]float64, 0, len(xs)-rejected)
	keptY := make([]float64, 0, len(ys)-rejected)
	for i := range ys {
		if absRes[i] > tol {
			continue
		}
		keptX = append(keptX, xs[i])
		keptY = append(keptY, ys[i])
	}
	return keptX, keptY, rejected
}

func refMedianOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func refAggregateByX(xs [][]float64, ys []float64) *gp.Dataset {
	groups := map[string][]float64{}
	reprs := map[string][]float64{}
	var order []string
	for i, x := range xs {
		key := fmt.Sprintf("%v", x)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
			reprs[key] = x
		}
		groups[key] = append(groups[key], ys[i])
	}
	d := &gp.Dataset{}
	for _, key := range order {
		vals := groups[key]
		sort.Float64s(vals)
		med := vals[len(vals)/2]
		if len(vals)%2 == 0 {
			med = (vals[len(vals)/2-1] + vals[len(vals)/2]) / 2
		}
		d.X = append(d.X, reprs[key])
		d.Y = append(d.Y, med)
	}
	return d
}

func refTypicalSpacing(samples []ocr.Sample) time.Duration {
	if len(samples) < 3 {
		return 0
	}
	gaps := make([]time.Duration, 0, len(samples)-1)
	for i := 1; i < len(samples); i++ {
		if g := samples[i].At - samples[i-1].At; g > 0 {
			gaps = append(gaps, g)
		}
	}
	if len(gaps) == 0 {
		return 0
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	return gaps[len(gaps)/2]
}

func refNearestSample(samples []ocr.Sample, t time.Duration, maxGap time.Duration) (float64, bool) {
	best := maxGap + 1
	var y float64
	found := false
	for _, s := range samples {
		gap := s.At - t
		if gap < 0 {
			gap = -gap
		}
		if gap <= maxGap && gap < best {
			best, y, found = gap, s.Value, true
		}
	}
	return y, found
}

// refFilterOutliers is ocr.FilterOutliers as it was written before its
// neighbour buffers became fixed-size.
func refFilterOutliers(samples []ocr.Sample) []ocr.Sample {
	if len(samples) < 5 {
		return append([]ocr.Sample(nil), samples...)
	}
	all := make([]float64, len(samples))
	for i, s := range samples {
		all[i] = s.Value
	}
	globalMed := refMedianOf(all)
	globalMAD := refMedianAbsDev(all, globalMed)

	const window = 3
	out := make([]ocr.Sample, 0, len(samples))
	for i, s := range samples {
		lo, hi := i-window, i+window+1
		if lo < 0 {
			lo = 0
		}
		if hi > len(samples) {
			hi = len(samples)
		}
		var neigh []float64
		for j := lo; j < hi; j++ {
			if j == i {
				continue
			}
			neigh = append(neigh, samples[j].Value)
		}
		med := refMedianOf(neigh)
		mad := refMedianAbsDev(neigh, med)
		tol := math.Max(5*mad, 0.15*math.Abs(med)+0.5)
		tol = math.Max(tol, 4*globalMAD)
		if math.Abs(s.Value-med) <= tol {
			out = append(out, s)
		}
	}
	return out
}

func refMedianAbsDev(vals []float64, med float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	devs := make([]float64, len(vals))
	for i, v := range vals {
		devs[i] = math.Abs(v - med)
	}
	return refMedianOf(devs)
}

func majority(votes map[string]int) string {
	best, n := "", 0
	for s, c := range votes {
		if c > n || (c == n && s < best) {
			best, n = s, c
		}
	}
	return best
}
