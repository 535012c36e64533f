package reverser

import (
	"sync"
	"time"

	"dpreverser/internal/align"
	"dpreverser/internal/colstore"
	"dpreverser/internal/ocr"
)

// camera is the camera half of stream preparation (§3.3-§3.4): all of it
// that depends only on a capture's UI frames, so that it can run while the
// CAN half of the capture is still being assembled. It splits the
// sessions, lays out each frame once and, for each display row of each
// session, takes the label and unit votes, the parsed samples, the enum
// decision and the range- and outlier-filtered samples. Times stay on the
// camera clock: the CAN half shifts them by the clock offset when it
// pairs. The laid-out obd-live frames are kept for alignment.
//
// Cameras come from cameraPool and go back to it emptied (release).
type camera struct {
	sessions []camSession
	// rows holds every session's display rows, session after session,
	// and samples every row's parsed and filtered samples.
	rows    []camRow
	samples []ocr.Sample
	// laid holds the frames of the obd-live sessions laid out; live lists
	// those frames, in capture order, with their rows in laid.
	laid []ocr.Row
	live []align.LiveFrame

	// Scratch.
	ends   []int // ends[i]: the end in laid of a session's frame i's rows
	ranged []ocr.Sample
	labels []vote
	units  []vote
}

// camSession is one session as the CAN half sees it: its screen, its span
// on the camera clock and its display rows, rows[row0:row0+nrows] of the
// camera.
type camSession struct {
	screenName  string
	start, end  time.Duration
	row0, nrows int
}

// camRow is what the camera saw on one display row of a session: the
// majority label and unit, whether the row shows text rather than numbers,
// and (for numeric rows) its parsed and filtered samples, both spans of
// camera.samples.
type camRow struct {
	label, unit  string
	enum         bool
	ys, filtered span
}

// span is samples[lo:hi] of a camera.
type span struct{ lo, hi int }

// vote is one candidate of a majority vote and its count.
type vote struct {
	s string
	n int
}

var cameraPool = sync.Pool{New: func() any { return new(camera) }}

// newCamera runs the camera half over a capture's UI frames.
func newCamera(uiFrames []ocr.Frame) *camera {
	c := cameraPool.Get().(*camera)
	for _, s := range splitSessions(uiFrames) {
		c.session(s)
	}
	return c
}

// session lays out one session's frames and prepares its display rows.
// Only an obd-live session's rows stay in laid, for alignment.
//
//dplint:hotpath streams-prepare
func (c *camera) session(s session) {
	base := len(c.laid)
	c.ends = c.ends[:0]
	nrows := 0
	for fi := range s.frames {
		first := len(c.laid)
		c.laid = ocr.Layout(s.frames[fi].Texts, c.laid)
		c.ends = append(c.ends, len(c.laid))
		nrows = max(nrows, len(c.laid)-first)
	}
	cs := camSession{screenName: s.screenName, start: s.start, end: s.end, row0: len(c.rows), nrows: nrows}
	for r := 0; r < nrows; r++ {
		c.rows = append(c.rows, c.row(s.frames, base, r))
	}
	c.sessions = append(c.sessions, cs)
	if s.screenName != "obd-live" {
		c.laid = c.laid[:base]
		return
	}
	// Later sessions only append past these rows, so they stay put even
	// when laid moves.
	lo := base
	for fi, hi := range c.ends {
		c.live = append(c.live, align.LiveFrame{At: s.frames[fi].At, Rows: c.laid[lo:hi:hi]})
		lo = hi
	}
}

// row prepares display row r of a session whose frames are laid out from
// laid[base] on: each frame shows row r at its r-th row, if it has one.
//
//dplint:hotpath streams-prepare
func (c *camera) row(frames []ocr.Frame, base, r int) camRow {
	c.labels, c.units = c.labels[:0], c.units[:0]
	ys := span{lo: len(c.samples)}
	numeric, text := 0, 0
	lo := base
	for fi, hi := range c.ends {
		if lo+r < hi {
			row := &c.laid[lo+r]
			if row.Label != "" {
				c.labels = tally(c.labels, row.Label)
			}
			if row.Unit != "" {
				c.units = tally(c.units, row.Unit)
			}
			if row.ParseOK {
				numeric++
				c.samples = append(c.samples, ocr.Sample{At: frames[fi].At, Value: row.Parsed})
			} else if row.Value != "" {
				text++
			}
		}
		lo = hi
	}
	cr := camRow{label: winner(c.labels), unit: winner(c.units)}
	if text > numeric {
		cr.enum = true
		c.samples = c.samples[:ys.lo]
		return cr
	}
	ys.hi = len(c.samples)
	min, max := rangeForLabel(cr.label)
	c.ranged = ocr.FilterRange(c.samples[ys.lo:ys.hi], min, max, c.ranged[:0])
	cr.ys, cr.filtered = ys, span{lo: ys.hi}
	c.samples = ocr.FilterOutliers(c.ranged, c.samples)
	cr.filtered.hi = len(c.samples)
	return cr
}

// tally counts one vote for s.
func tally(votes []vote, s string) []vote {
	for i := range votes {
		if votes[i].s == s {
			votes[i].n++
			return votes
		}
	}
	return append(votes, vote{s: s, n: 1})
}

// winner returns the most voted candidate, the least string among equals,
// or "" when there are no votes.
func winner(votes []vote) string {
	best, n := "", 0
	for _, v := range votes {
		if v.n > n || v.n == n && v.s < best {
			best, n = v.s, v.n
		}
	}
	return best
}

// samplesOf returns the samples of sp.
func (c *camera) samplesOf(sp span) []ocr.Sample { return c.samples[sp.lo:sp.hi] }

// clockOffset estimates the camera-to-CAN clock offset (§3.3) from the
// laid-out obd-live frames. Captures with no usable OBD anchors get a zero
// offset, which keeps their UI timestamps as they are.
func (c *camera) clockOffset(fr *colstore.Frames) time.Duration {
	off, err := align.EstimateOffsetLive(fr, c.live)
	if err != nil {
		return 0
	}
	return off
}

// release empties c and returns it to cameraPool. Nothing it keeps
// refers into the capture: the rows' labels and units and the laid-out
// rows, which hold OCR strings, are dropped.
func (c *camera) release() {
	clear(c.rows[:cap(c.rows)])
	clear(c.laid[:cap(c.laid)])
	clear(c.live[:cap(c.live)])
	clear(c.labels[:cap(c.labels)])
	clear(c.units[:cap(c.units)])
	c.sessions, c.rows, c.samples = c.sessions[:0], c.rows[:0], c.samples[:0]
	c.laid, c.live = c.laid[:0], c.live[:0]
	cameraPool.Put(c)
}
