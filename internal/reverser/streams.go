package reverser

import (
	"cmp"
	"context"
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dpreverser/internal/gp"
	"dpreverser/internal/ocr"
	"dpreverser/internal/rig"
	"dpreverser/internal/scaling"
)

// StreamData is the fully prepared per-stream material the inference step
// consumes: the recovered semantics and the paired, filtered, aggregated
// (X, Y) dataset. Exposing it lets the experiment harness run alternative
// inference algorithms (linear regression, polynomial fitting) on exactly
// the data GP sees — the §4.4 comparison.
type StreamData struct {
	Key   StreamKey
	Label string
	Unit  string
	// Enum marks state streams (no dataset).
	Enum bool
	// RawPairs counts pairs before aggregation (after outlier screening).
	RawPairs int
	// RejectedPairs counts paired samples the robust median-residual
	// screen rejected before aggregation; non-zero values surface on
	// Result.Degraded as pairing-stage damage.
	RejectedPairs int
	// Dataset is the cleaned, aggregated inference input (nil for enums
	// and under-sampled streams) — what DP-Reverser's GP consumes.
	Dataset *gp.Dataset
	// RawDataset holds the unfiltered, unaggregated pairs: X observations
	// matched to raw OCR samples with no outlier rejection. The §4.4
	// baseline comparison runs linear regression and polynomial fitting on
	// this, since the two-stage filtering is part of DP-Reverser, not of
	// the LibreCAN-style baselines.
	RawDataset *gp.Dataset
}

// ExtractStreams runs the pipeline's front half — assembly, extraction,
// alignment, session splitting, semantics, pairing, filtering, aggregation
// — and returns one StreamData per observed stream plus the traffic stats
// and the estimated clock offset. Pairing uses the fixed pairMaxGap and
// minPairs, so cfg is not read.
//
// (*Reverser).Reverse runs the same two halves, the camera half
// (newCamera) and the CAN half (streamsFromExtraction), with the camera
// half beside assembly, and publishes the streams on Result.Streams; this
// entry point runs them one after the other for callers that only need
// the front half.
func ExtractStreams(cap rig.Capture, cfg Config) ([]StreamData, TrafficStats, time.Duration) {
	fr := FramesColumnar(cap.Frames)
	ms, stats, _ := AssembleColumnar(context.Background(), fr, nil)
	ext := ExtractFieldsColumnar(ms)
	cam := newCamera(cap.UIFrames)
	defer cam.release()
	offset := cam.clockOffset(fr)
	return streamsFromExtraction(ext, cam, offset, 1), stats, offset
}

// streamsFromExtraction is the CAN half of stream preparation: it builds
// the per-stream datasets from an extracted capture and its camera half,
// whose times it shifts by the clock offset off. Sessions are
// independent, so up to workers goroutines (the caller's among them)
// prepare them: each claims sessions from a shared cursor with scratch
// of its own over the shared index, and the streams are concatenated in
// session order, so the output is the same at any worker count.
func streamsFromExtraction(ext *Extraction, cam *camera, off time.Duration, workers int) []StreamData {
	sessions := cam.sessions
	per := make([][]StreamData, len(sessions))
	idx := newStreamIndex(ext.ESVs)
	defer idx.release()
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	work := func(wp *streamPrep) {
		for i := int(cursor.Add(1)) - 1; i < len(sessions); i = int(cursor.Add(1)) - 1 {
			per[i] = wp.session(cam, sessions[i], off)
		}
	}
	for w := 1; w < min(workers, len(sessions)); w++ {
		wg.Add(1)
		go func(wp *streamPrep) {
			defer wg.Done()
			defer wp.release()
			work(wp)
		}(newStreamPrep(idx))
	}
	p := newStreamPrep(idx)
	defer p.release()
	work(p)
	wg.Wait()
	return slices.Concat(per...)
}

// session prepares one session's streams in display-row order. A stream
// whose display row no frame shows gets an empty camera row.
func (p *streamPrep) session(cam *camera, sess camSession, off time.Duration) []StreamData {
	keys := p.sessionStreams(sess.screenName, sess.start-off, sess.end-off)
	rows := cam.rows[sess.row0 : sess.row0+sess.nrows]
	out := make([]StreamData, 0, len(keys))
	for rowIdx, k := range keys {
		var row camRow
		if rowIdx < len(rows) {
			row = rows[rowIdx]
		}
		out = append(out, p.buildStreamData(k, cam, row, off))
	}
	return out
}

// streamIndex indexes one capture's observations for stream
// preparation. Every stream key is indexed once, so per-key bookkeeping
// lives in slices indexed by key id rather than in maps keyed by the
// string-bearing StreamKey. It is read-only once built, so the
// streamPreps of every worker share it.
type streamIndex struct {
	obs []ESVObservation
	// keys lists the distinct stream keys in capture order; kid[i] is
	// obs[i]'s index into keys, ids maps a key to its index, and obd[k]
	// marks keys[k] as an OBD stream.
	keys []StreamKey
	kid  []int32
	ids  map[StreamKey]int32
	obd  []bool
	// byTime lists the observations in time order (capture order among
	// equal times), so a session finds its window by binary search
	// rather than by scanning the capture; timeSorted marks a capture
	// already in time order, where byTime is the identity.
	byTime     []int32
	timeSorted bool
}

// streamPrep is one worker's stream-preparation state over a shared
// index. Its per-session and per-stream buffers are reused from one
// session and stream to the next. Apart from the sorts behind its
// medians, the work is linear in the observations and camera samples.
//
// Indexes and preps come from indexPool and prepPool and go back to them
// emptied (release), so a capture's preparation reuses the buffers
// earlier ones grew.
type streamPrep struct {
	*streamIndex

	// Session state, indexed by key id. members[k] lists keys[k]'s
	// observations in the session; live[k] marks a key in the session and
	// not dropped as a phantom; local[k] is its first-seen rank; cycle[k]
	// stamps the poll cycle that last saw it.
	members [][]int32
	live    []bool
	local   []int32
	cycle   []int
	stamp   int
	touched []int32 // keys with members this session, first-seen order
	order   []int32 // the session's streams in display-row order
	sessObs []int32 // the session's observations in capture order
	window  []int32
	kept    []int32
	votes   []uint64
	rank    []int

	// Stream scratch. samples holds a camera row's samples moved onto the
	// traffic clock.
	samples  []ocr.Sample
	gaps     []time.Duration
	vars     [][]float64 // vars[j]: members[j]'s X row, nil when malformed
	gid      []int32     // gid[j]: the exact-X group of vars[j]
	groups   map[string]int32
	keyBuf   []byte
	pairs    pairSet
	screened pairSet // screenPairs' survivors
	rawGid   []int32 // the raw pairs' group ids; RawDataset keeps X and Y only
	f64      []float64
	absRes   []float64
	start    []int32
	fill     []int32
	vals     []float64
	slot     []int32
}

// pairSet is one stream's paired samples in pairing order. gid[i] names
// xs[i]'s exact-X group: equal ids mean bit-identical rows, so grouping
// needs no formatted keys. Group ids are below groups.
type pairSet struct {
	xs     [][]float64
	ys     []float64
	gid    []int32
	groups int
}

// indexPool and prepPool recycle stream-preparation buffers across
// captures.
var (
	indexPool = sync.Pool{New: func() any { return &streamIndex{ids: make(map[StreamKey]int32)} }}
	prepPool  = sync.Pool{New: func() any { return &streamPrep{groups: make(map[string]int32)} }}
)

// newStreamIndex indexes the stream key and time order of every
// observation.
//
//dplint:hotpath streams-prepare
func newStreamIndex(obs []ESVObservation) *streamIndex {
	p := indexPool.Get().(*streamIndex)
	p.obs, p.timeSorted = obs, true
	p.kid, p.byTime = resize(p.kid, len(obs)), resize(p.byTime, len(obs))
	for i := range obs {
		p.byTime[i] = int32(i)
		if i > 0 && obs[i].At < obs[i-1].At {
			p.timeSorted = false
		}
		k, ok := p.ids[obs[i].Key]
		if !ok {
			k = int32(len(p.keys))
			p.ids[obs[i].Key] = k
			p.keys = append(p.keys, obs[i].Key)
			p.obd = append(p.obd, obs[i].Key.Proto == "OBD")
		}
		p.kid[i] = k
	}
	if !p.timeSorted {
		slices.SortStableFunc(p.byTime, func(a, b int32) int { return cmp.Compare(obs[a].At, obs[b].At) })
	}
	return p
}

// release empties x and returns it to indexPool. It drops the
// observations and the stream keys, which refer into the capture.
func (x *streamIndex) release() {
	clear(x.keys)
	clear(x.ids)
	x.obs, x.keys, x.obd = nil, x.keys[:0], x.obd[:0]
	indexPool.Put(x)
}

// newStreamPrep returns session and stream state over idx for one
// worker.
//
//dplint:hotpath streams-prepare
func newStreamPrep(idx *streamIndex) *streamPrep {
	p := prepPool.Get().(*streamPrep)
	p.streamIndex = idx
	p.initSession()
	return p
}

// initSession empties the per-key session state.
func (p *streamPrep) initSession() {
	n := len(p.keys)
	p.members = resize(p.members, n)
	for k := range p.members {
		p.members[k] = p.members[k][:0]
	}
	p.live, p.local, p.cycle = resize(p.live, n), resize(p.local, n), resize(p.cycle, n)
	clear(p.live)
	clear(p.cycle)
	p.stamp, p.touched = 0, p.touched[:0]
}

// release empties p and returns it to prepPool. Nothing it keeps refers
// into the capture or the prepared streams: the index and the X rows
// (which the streams' datasets hold) are dropped.
func (p *streamPrep) release() {
	p.streamIndex = nil
	clear(p.groups)
	clear(p.vars[:cap(p.vars)])
	clear(p.pairs.xs[:cap(p.pairs.xs)])
	clear(p.screened.xs[:cap(p.screened.xs)])
	prepPool.Put(p)
}

// sessionStreams lists the streams active in a session in display-row
// order, as key ids, recovered robustly from damaged traffic in two steps:
//
//  1. Streams with far fewer observations than the session's typical
//     stream are dropped as phantoms — a bit-flipped identifier field
//     yields a "stream" that was never on screen, and keeping it would
//     shift the row pairing of every stream after it.
//  2. Row order is majority-voted across poll cycles rather than taken
//     from first-seen order alone: the tool polls its identifiers
//     round-robin, so each cycle restates the on-screen order, and a
//     response lost at the session head (which rotates first-seen order)
//     is outvoted by the intact cycles that follow.
//
// On a clean capture every cycle agrees with first-seen order and both
// steps are no-ops. members[k] holds each returned key's observations.
//
//dplint:hotpath streams-prepare
func (p *streamPrep) sessionStreams(screenName string, start, end time.Duration) []int32 {
	for _, k := range p.touched {
		p.members[k] = p.members[k][:0]
		p.live[k] = false
	}
	p.touched, p.sessObs = p.touched[:0], p.sessObs[:0]
	window := p.sessionWindow(start-time.Second, end+time.Second)
	wantOBD := screenName == "obd-live"
	for _, i := range window {
		k := p.kid[i]
		if p.obd[k] != wantOBD {
			continue
		}
		if !p.live[k] {
			p.live[k] = true
			p.touched = append(p.touched, k)
		}
		p.members[k] = append(p.members[k], i)
		p.sessObs = append(p.sessObs, i)
	}
	p.order = append(p.order[:0], p.touched...)
	if len(p.order) > 1 {
		counts := p.f64[:0]
		for _, k := range p.order {
			counts = append(counts, float64(len(p.members[k])))
		}
		p.f64 = counts
		med := ocr.MedianInPlace(counts)
		kept := p.order[:0]
		for _, k := range p.order {
			if float64(len(p.members[k]))*5 < med {
				p.live[k] = false
				continue
			}
			kept = append(kept, k)
		}
		p.order = kept
		p.voteRowOrder()
	}
	return p.order
}

// sessionWindow returns the observations timed within [lo, hi], in
// capture order.
//
//dplint:hotpath streams-prepare
func (p *streamPrep) sessionWindow(lo, hi time.Duration) []int32 {
	first := p.firstInTime(lo, false)
	window := p.byTime[first:max(first, p.firstInTime(hi, true))]
	if p.timeSorted {
		return window
	}
	p.window = append(p.window[:0], window...)
	slices.Sort(p.window)
	return p.window
}

// firstInTime returns the first position in byTime whose observation is
// at or after t, or strictly after t when after is set.
func (p *streamPrep) firstInTime(t time.Duration, after bool) int {
	lo, hi := 0, len(p.byTime)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if at := p.obs[p.byTime[m]].At; at < t || (after && at == t) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// voteRowOrder reorders p.order into the display-row order the poll cycles
// agree on. Cycle boundaries are temporal: the tool answers a whole
// screenful back-to-back, then idles until its next refresh, so a gap
// well above the typical inter-observation spacing separates cycles. (A
// key repeating within a cycle also cuts, as a fallback for degenerate
// spacing.) Each cycle votes for the position of every key it contains,
// and keys are ranked by their modal position, the lowest position
// winning ties and first-seen order breaking ties between keys. Cutting
// on time rather than on first-seen repetition matters: responses missing
// from the capture at the session head would rotate every repeat-cut
// cycle in unison, and the vote would ratify the rotation instead of
// repairing it.
//
//dplint:hotpath streams-prepare
func (p *streamPrep) voteRowOrder() {
	for i, k := range p.order {
		p.local[k] = int32(i)
	}
	kept := p.kept[:0]
	for _, i := range p.sessObs {
		if p.live[p.kid[i]] { // drop phantoms
			kept = append(kept, i)
		}
	}
	p.kept = kept
	gaps := p.f64[:0]
	for i := 1; i < len(kept); i++ {
		gaps = append(gaps, float64(p.obs[kept[i]].At-p.obs[kept[i-1]].At))
	}
	p.f64 = gaps
	// A whole screenful shares (nearly) one poll-tick timestamp, so the
	// median gap is (close to) zero and any clearly larger gap is a
	// refresh boundary. When spacing is uniform instead (one identifier
	// per tick), no gap qualifies and the repeat-cut below decides.
	cycleGap := time.Duration(3 * ocr.MedianInPlace(gaps))
	// Each vote packs (first-seen rank, position); sorting them groups a
	// key's votes by position, so the modal position is one run scan.
	votes := p.votes[:0]
	pos := 0
	p.stamp++
	for i, oi := range kept {
		k := p.kid[oi]
		tempCut := i > 0 && p.obs[oi].At-p.obs[kept[i-1]].At > cycleGap
		if tempCut || p.cycle[k] == p.stamp {
			pos = 0
			p.stamp++
		}
		p.cycle[k] = p.stamp
		votes = append(votes, uint64(p.local[k])<<32|uint64(pos))
		pos++
	}
	p.votes = votes
	slices.Sort(votes)
	// A key without votes would keep its first-seen rank; every kept key
	// has at least one, since its observations are all in kept.
	rank := p.rank[:0]
	for i := range p.order {
		rank = append(rank, i)
	}
	for i := 0; i < len(votes); {
		key := votes[i] >> 32
		best, bestN := 0, 0
		for i < len(votes) && votes[i]>>32 == key {
			v, n := votes[i], 0
			for i < len(votes) && votes[i] == v {
				n++
				i++
			}
			if n > bestN {
				best, bestN = int(uint32(v)), n
			}
		}
		rank[key] = best
	}
	p.rank = rank
	slices.SortStableFunc(p.order, func(a, b int32) int {
		return cmp.Compare(rank[p.local[a]], rank[p.local[b]])
	})
}

// Pairing settings, matched to the rig's poll cadence: pairMaxGap is the
// largest traffic-to-video timestamp distance that still pairs an X
// observation with a Y sample, and a stream with fewer than minPairs
// screened pairs is reported without a formula.
const (
	pairMaxGap = time.Second
	minPairs   = 8
)

// buildStreamData performs §3.3/§3.4 and §3.5 Step 1 for stream k, shown
// on the session's display row row, whose samples are on the camera clock
// of cam, off ahead of the traffic clock.
func (p *streamPrep) buildStreamData(k int32, cam *camera, row camRow, off time.Duration) StreamData {
	sd := StreamData{Key: p.keys[k], Label: row.label, Unit: row.unit}
	if row.enum {
		sd.Enum = true
		return sd
	}
	p.samples = shifted(cam.samplesOf(row.filtered), off, p.samples[:0])

	members := p.members[k]
	p.groupX(members)
	p.pairs = p.pair(members, p.samples, pairMaxGap, p.pairs)
	screened, rejected := p.screenPairs(p.pairs)
	sd.RawPairs, sd.RejectedPairs = len(screened.ys), rejected
	if sd.RawPairs < minPairs {
		return sd
	}
	// Even a single distinct X is inferable: the constant formula is
	// exactly right over the observed domain (the paper's collapsed-
	// variable cases are the same phenomenon).
	sd.Dataset = p.aggregateByX(screened)

	// The raw pairs become the stream's RawDataset, so they get fresh
	// slices, sized for every observation to pair.
	p.samples = shifted(cam.samplesOf(row.ys), off, p.samples[:0])
	raw := p.pair(members, p.samples, pairMaxGap, pairSet{
		xs: make([][]float64, 0, len(members)), ys: make([]float64, 0, len(members)), gid: p.rawGid})
	p.rawGid = raw.gid
	if len(raw.ys) > 0 {
		sd.RawDataset = &gp.Dataset{X: raw.xs, Y: raw.ys}
	}
	return sd
}

// groupX builds the X row of each of a stream's observations in one slab,
// and files each row under an exact-X group: rows with bit-identical
// values (math.Float64bits) share a group id, which screenPairs and
// aggregateByX use in place of formatted keys.
//
//dplint:hotpath streams-prepare
func (p *streamPrep) groupX(members []int32) {
	width := 0
	for _, i := range members {
		width += len(p.obs[i].Bytes)
	}
	// Every stream's rows are at most as wide as its raw fields, so the
	// slab never grows and each row keeps its own backing.
	slab := make([]float64, 0, width)
	clear(p.groups)
	p.vars, p.gid = p.vars[:0], p.gid[:0]
	for _, i := range members {
		at := len(slab)
		var ok bool
		slab, ok = p.obs[i].appendVariables(slab)
		if !ok {
			p.vars = append(p.vars, nil)
			p.gid = append(p.gid, -1)
			continue
		}
		row := slab[at:len(slab):len(slab)]
		key := p.keyBuf[:0]
		for _, v := range row {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
		}
		p.keyBuf = key
		g, seen := p.groups[string(key)]
		if !seen {
			g = int32(len(p.groups))
			p.groups[string(key)] = g
		}
		p.vars = append(p.vars, row)
		p.gid = append(p.gid, g)
	}
}

// pair matches each of a stream's observations (whose X rows groupX
// built) with the Y value displayed closest in time, appending the pairs
// to into's (truncated) slices.
//
//dplint:hotpath streams-prepare
func (p *streamPrep) pair(members []int32, samples []ocr.Sample, maxGap time.Duration, into pairSet) pairSet {
	if spacing := p.typicalSpacing(samples); spacing > 0 && spacing*3/5 < maxGap {
		maxGap = spacing * 3 / 5
	}
	sorted := samplesSorted(samples)
	out := pairSet{xs: into.xs[:0], ys: into.ys[:0], gid: into.gid[:0], groups: len(p.groups)}
	for j, i := range members {
		vars := p.vars[j]
		if vars == nil {
			continue
		}
		y, ok := nearestSample(samples, sorted, p.obs[i].At, maxGap)
		if !ok {
			continue
		}
		out.xs = append(out.xs, vars)
		out.ys = append(out.ys, y)
		out.gid = append(out.gid, p.gid[j])
	}
	return out
}

// screenPairs rejects paired samples whose Y is wildly inconsistent with
// other observations of the same X vector — the signature of OCR damage
// (a dropped decimal point multiplies by 100, a flipped sign doubles the
// distance) surviving the per-sample range filter. The residual of each
// pair against its X-group's median Y should be near zero, since identical
// raw bytes decode to identical displayed values; pairs whose residual
// exceeds a robust tolerance (scaled MAD with a floor proportional to the
// stream's magnitude) are dropped before aggregation. The screen is
// order-preserving and deterministic, and backs off entirely when it would
// reject more than half the data — at that point the residuals, not the
// pairs, are untrustworthy.
//
//dplint:hotpath streams-prepare
func (p *streamPrep) screenPairs(ps pairSet) (pairSet, int) {
	n := len(ps.ys)
	if n < 4 {
		return ps, 0
	}
	vals, start := p.groupYs(ps)
	p.f64 = resize(p.f64, ps.groups)
	groupMed := p.f64
	for g := range groupMed {
		groupMed[g] = ocr.MedianInPlace(vals[start[g]:start[g+1]])
	}
	p.absRes, p.vals = resize(p.absRes, n), resize(p.vals, n) // groupYs' values are spent
	absRes, absYs := p.absRes, p.vals
	for i, y := range ps.ys {
		absRes[i] = abs(y - groupMed[ps.gid[i]])
		absYs[i] = abs(y)
	}
	scale := ocr.MedianInPlace(absYs)
	mad := ocr.MedianInPlace(append(absYs[:0], absRes...))
	tol := 8 * mad
	if floor := 0.05*scale + 1; tol < floor {
		tol = floor
	}
	rejected := 0
	for _, r := range absRes {
		if r > tol {
			rejected++
		}
	}
	if rejected == 0 {
		return ps, 0
	}
	if rejected*2 > n {
		// Residuals this wide mean the groups themselves are noise; let
		// aggregation's per-group medians do what they can instead.
		return ps, 0
	}
	out := pairSet{xs: p.screened.xs[:0], ys: p.screened.ys[:0], gid: p.screened.gid[:0], groups: ps.groups}
	for i, r := range absRes {
		if r > tol {
			continue
		}
		out.xs = append(out.xs, ps.xs[i])
		out.ys = append(out.ys, ps.ys[i])
		out.gid = append(out.gid, ps.gid[i])
	}
	p.screened = out
	return out, rejected
}

// aggregateByX collapses repeated observations of the same X vector to one
// (X, median Y) point, in first-seen order.
//
//dplint:hotpath streams-prepare
func (p *streamPrep) aggregateByX(ps pairSet) *gp.Dataset {
	slot := p.slot[:0]
	for g := 0; g < ps.groups; g++ {
		slot = append(slot, -1)
	}
	p.slot = slot
	n := int32(0)
	for _, g := range ps.gid {
		if slot[g] < 0 {
			slot[g] = n
			n++
		}
	}
	d := &gp.Dataset{}
	if n == 0 {
		return d
	}
	d.X = make([][]float64, n)
	for i, g := range ps.gid {
		if d.X[slot[g]] == nil {
			d.X[slot[g]] = ps.xs[i]
		}
	}
	vals, start := p.groupYs(ps)
	d.Y = make([]float64, len(d.X))
	for g, s := range slot {
		if s < 0 {
			continue
		}
		// Each group's values sit in pairing order, so the sort (and the
		// median it yields) is the one a per-group slice would get.
		d.Y[s] = ocr.MedianInPlace(vals[start[g]:start[g+1]])
	}
	return d
}

// groupYs lays ps's Y values out group by group, each group's values in
// pairing order: group g's values are vals[start[g]:start[g+1]].
//
//dplint:hotpath streams-prepare
func (p *streamPrep) groupYs(ps pairSet) (vals []float64, start []int32) {
	start = p.start[:0]
	for g := 0; g <= ps.groups; g++ {
		start = append(start, 0)
	}
	for _, g := range ps.gid {
		start[g+1]++
	}
	for g := 1; g <= ps.groups; g++ {
		start[g] += start[g-1]
	}
	fill := append(p.fill[:0], start[:ps.groups]...)
	p.vals = resize(p.vals, len(ps.ys))
	vals = p.vals
	for i, g := range ps.gid {
		vals[fill[g]] = ps.ys[i]
		fill[g]++
	}
	p.start, p.fill = start, fill
	return vals, start
}

// shifted appends samples to dst moved from the camera clock onto the
// traffic clock, off behind it.
func shifted(samples []ocr.Sample, off time.Duration, dst []ocr.Sample) []ocr.Sample {
	for _, s := range samples {
		dst = append(dst, ocr.Sample{At: s.At - off, Value: s.Value})
	}
	return dst
}

// resize returns s resized to n elements, reallocating only to grow.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// typicalSpacing estimates the video sampling period as the median gap
// between successive samples.
//
//dplint:hotpath streams-prepare
func (p *streamPrep) typicalSpacing(samples []ocr.Sample) time.Duration {
	if len(samples) < 3 {
		return 0
	}
	gaps := p.gaps[:0]
	for i := 1; i < len(samples); i++ {
		if g := samples[i].At - samples[i-1].At; g > 0 {
			gaps = append(gaps, g)
		}
	}
	p.gaps = gaps
	if len(gaps) == 0 {
		return 0
	}
	slices.Sort(gaps)
	return gaps[len(gaps)/2]
}

// samplesSorted reports whether samples are in nondecreasing time order.
func samplesSorted(samples []ocr.Sample) bool {
	for i := 1; i < len(samples); i++ {
		if samples[i].At < samples[i-1].At {
			return false
		}
	}
	return true
}

// nearestSample finds the Y value displayed closest to t, at most maxGap
// away; of equally close samples the earliest in the slice wins. Samples
// in nondecreasing time order (sorted) are binary-searched; others are
// scanned.
//
//dplint:hotpath streams-prepare
func nearestSample(samples []ocr.Sample, sorted bool, t, maxGap time.Duration) (float64, bool) {
	if !sorted {
		// The scan's sentinel is maxGap+1, so the search below applies
		// the same two bounds.
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
	// i is the first sample at or after t: the earliest of its timestamp.
	i := firstAtOrAfter(samples, len(samples), t)
	best := -1
	if i < len(samples) {
		best = i
	}
	if i > 0 {
		// The closest sample before t ties with its timestamp's earliest,
		// which precedes i and so wins ties with it.
		before := samples[i-1].At
		if best < 0 || t-before <= samples[best].At-t {
			best = firstAtOrAfter(samples, i-1, before)
		}
	}
	if best < 0 {
		return 0, false
	}
	gap := samples[best].At - t
	if gap < 0 {
		gap = -gap
	}
	if gap > maxGap || gap >= maxGap+1 {
		return 0, false
	}
	return samples[best].Value, true
}

// firstAtOrAfter returns the first index below n whose sample is at or
// after t, or n, in time-sorted samples.
func firstAtOrAfter(samples []ocr.Sample, n int, t time.Duration) int {
	lo, hi := 0, n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if samples[m].At < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// InferStream runs §3.5 Steps 2-3 (scaling + GP) on prepared stream data.
// The returned error is non-nil only when ctx was cancelled; inference
// failures on a single stream yield a formula-less ReversedESV instead, so
// one degenerate dataset cannot abort a whole capture.
func InferStream(ctx context.Context, sd StreamData, cfg Config) (ReversedESV, error) {
	rev := ReversedESV{Key: sd.Key, Label: sd.Label, Unit: sd.Unit, Enum: sd.Enum, Pairs: sd.RawPairs}
	if sd.Enum || sd.Dataset == nil {
		return rev, ctx.Err()
	}
	res, err := scaling.InferContext(ctx, sd.Dataset, cfg.GP)
	if err != nil {
		return rev, ctx.Err()
	}
	rev.Formula = res.Best
	rev.Fitness = res.Fitness
	rev.Generations = res.Generations
	rev.Evaluations = res.Evaluations
	rev.CacheHits = res.CacheHits
	rev.CacheMisses = res.CacheMisses
	return rev, nil
}
