// Package align solves the paper's §9.4 problem: the UI video and the CAN
// capture are stamped by different clocks, and formula inference needs
// (X, Y) pairs matched in time. Two methods are provided, mirroring the
// paper:
//
//   - NTP-style synchronisation is modelled by simply starting the capture
//     with a (near-)zero camera offset — the rig's CameraOffset config;
//   - OBD-II anchoring (method 2): the OBD-II formulas are public, so the
//     responses captured during the alignment phase can be decoded to real
//     values, those values located on the OCR'd screen, and the clock
//     offset read off as the median timestamp difference.
package align

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"time"

	"dpreverser/internal/colstore"
	"dpreverser/internal/isotp"
	"dpreverser/internal/obd"
	"dpreverser/internal/ocr"
)

// ErrNoAnchors reports that no OBD response value could be located on any
// UI frame.
var ErrNoAnchors = errors.New("align: no OBD anchor matches between traffic and video")

// obdObservation is one decoded OBD-II response from the capture.
type obdObservation struct {
	pid   byte
	value float64
	at    time.Duration
}

// decodeOBDTrafficColumnar extracts decoded OBD mode-01 responses from a
// columnar frame store using only public knowledge (the response CAN ID
// and J1979 formulas). ParseResponse consumes the reassembled view before
// the next Feed, so no message is ever materialised.
func decodeOBDTrafficColumnar(frames *colstore.Frames) []obdObservation {
	var out []obdObservation
	var r isotp.Reassembler
	for i, n := 0, frames.Len(); i < n; i++ {
		if frames.ID(i) != obd.FirstResponseID {
			continue
		}
		out = decodeOBDFrame(&r, frames.Payload(i), frames.At(i), out)
	}
	return out
}

// decodeOBDFrame feeds one response-ID frame through the shared
// reassembler and appends the decoded observation, if any.
func decodeOBDFrame(r *isotp.Reassembler, data []byte, at time.Duration, out []obdObservation) []obdObservation {
	res, err := r.FeedView(data)
	if err != nil || res.Message == nil {
		return out
	}
	pid, v, err := obd.ParseResponse(res.Message)
	if err != nil {
		return out
	}
	return append(out, obdObservation{pid: pid, value: v, at: at})
}

// EstimateOffsetOBDColumnar estimates the camera-minus-CAN clock offset
// from an alignment-phase capture held in a columnar frame store. For
// every decoded OBD response, the matching displayed value is searched on
// OBD UI frames (same PID name, value equal after display rounding); each
// match yields one offset sample, and the median is returned — robust to
// OCR corruption and to values that repeat over time.
func EstimateOffsetOBDColumnar(frames *colstore.Frames, uiFrames []ocr.Frame) (time.Duration, error) {
	return EstimateOffsetLive(frames, layOutLive(uiFrames))
}

// LiveFrame is one "obd-live" UI frame as ocr.Layout reads it.
type LiveFrame struct {
	At   time.Duration
	Rows []ocr.Row
}

// EstimateOffsetLive is EstimateOffsetOBDColumnar over OBD UI frames the
// caller has already laid out, in capture order. It does not modify live.
func EstimateOffsetLive(frames *colstore.Frames, live []LiveFrame) (time.Duration, error) {
	samples := offsetSamples(decodeOBDTrafficColumnar(frames), live)
	if len(samples) == 0 {
		return 0, ErrNoAnchors
	}
	slices.Sort(samples)
	return samples[len(samples)/2], nil
}

// layOutLive lays out the obd-live frames of uiFrames, in capture order.
func layOutLive(uiFrames []ocr.Frame) []LiveFrame {
	var rows []ocr.Row
	var ends []int
	for i := range uiFrames {
		if f := &uiFrames[i]; f.ScreenName == "obd-live" {
			rows = ocr.Layout(f.Texts, rows)
			ends = append(ends, len(rows))
		}
	}
	live := make([]LiveFrame, 0, len(ends))
	lo := 0
	for i := range uiFrames {
		if f := &uiFrames[i]; f.ScreenName == "obd-live" {
			hi := ends[len(live)]
			live = append(live, LiveFrame{At: f.At, Rows: rows[lo:hi:hi]})
			lo = hi
		}
	}
	return live
}

// offsetSamples returns one offset sample per observation that some OBD
// UI frame shows, in observation order: the gap to the earliest such
// frame at or after the observation, since the screen cannot show a value
// before it was measured. The frames are visited in display-time order,
// so the search for each observation starts at its time and stops at the
// first frame showing the value.
func offsetSamples(obs []obdObservation, live []LiveFrame) []time.Duration {
	byAt := func(a, b LiveFrame) int { return cmp.Compare(a.At, b.At) }
	if !slices.IsSortedFunc(live, byAt) {
		live = slices.Clone(live)
		slices.SortStableFunc(live, byAt)
	}
	var samples []time.Duration
	for _, o := range obs {
		spec, ok := obd.Lookup(o.pid)
		if !ok {
			continue
		}
		i, _ := slices.BinarySearchFunc(live, o.at, func(f LiveFrame, at time.Duration) int { return cmp.Compare(f.At, at) })
		for _, f := range live[i:] {
			if shows(f.Rows, spec.Name, o.value) {
				samples = append(samples, f.At-o.at)
				break
			}
		}
	}
	return samples
}

// shows reports whether rows include one labelled label whose value
// equals v after display rounding.
func shows(rows []ocr.Row, label string, v float64) bool {
	for _, row := range rows {
		if row.ParseOK && row.Label == label && math.Abs(row.Parsed-v) <= displayTolerance(v) {
			return true
		}
	}
	return false
}

// displayTolerance is the quantisation of the tool's value rendering (two
// decimals below 100, one below 1000, integers above).
func displayTolerance(v float64) float64 {
	av := math.Abs(v)
	switch {
	case av >= 1000:
		return 0.51
	case av >= 100:
		return 0.051
	default:
		return 0.0051
	}
}

// ApplyOffset rewrites UI frame timestamps into the CAN clock domain:
// corrected = recorded − offset.
func ApplyOffset(uiFrames []ocr.Frame, offset time.Duration) []ocr.Frame {
	out := make([]ocr.Frame, len(uiFrames))
	for i, f := range uiFrames {
		f.At -= offset
		out[i] = f
	}
	return out
}
