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
	"errors"
	"math"
	"sort"
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
	return estimateOffset(decodeOBDTrafficColumnar(frames), uiFrames)
}

// estimateOffset matches decoded observations against the OBD UI frames
// and returns the median offset sample.
func estimateOffset(obs []obdObservation, uiFrames []ocr.Frame) (time.Duration, error) {
	if len(obs) == 0 {
		return 0, ErrNoAnchors
	}
	var samples []time.Duration
	for _, o := range obs {
		spec, ok := obd.Lookup(o.pid)
		if !ok {
			continue
		}
		// Find the closest-in-display-time UI frame showing this value.
		bestGap := time.Duration(math.MaxInt64)
		found := false
		var bestOffset time.Duration
		for _, f := range uiFrames {
			if f.ScreenName != "obd-live" {
				continue
			}
			for _, row := range f.Rows {
				if !row.ParseOK || row.Label != spec.Name {
					continue
				}
				if math.Abs(row.Parsed-o.value) > displayTolerance(o.value) {
					continue
				}
				gap := f.At - o.at
				if gap < 0 {
					continue // the screen cannot show a value before it was measured
				}
				if gap < bestGap {
					bestGap, bestOffset, found = gap, f.At-o.at, true
				}
			}
		}
		if found {
			samples = append(samples, bestOffset)
		}
	}
	if len(samples) == 0 {
		return 0, ErrNoAnchors
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2], nil
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
