// Package bmwtp implements the BMW/Mini transport framing the paper calls
// out in §3.2 Step 2: "some vehicles like BMW and Mini Copper do not
// directly adopt the ISO 15765-2 protocol. Instead, the first byte of each
// CAN frame stores the ID of the target ECU. The remaining bytes are the
// payload of the diagnostic message."
//
// Technically this is ISO 15765-2 *extended addressing*: byte 0 carries the
// target ECU address and the normal ISO-TP PCI starts at byte 1, leaving 7
// bytes of frame budget instead of 8. The package reuses the isotp
// reassembly engine on the address-stripped remainder — exactly the
// "ignore the first byte and put the remaining bytes together" recovery
// rule the paper applies.
package bmwtp

import (
	"errors"
	"fmt"

	"dpreverser/internal/isotp"
)

// Limits under extended addressing (one byte of each frame is the address).
const (
	// MaxSingleFrame is the largest payload one extended-addressed single
	// frame carries.
	MaxSingleFrame = 6
	firstFrameData = 5
	consecData     = 6
)

// ErrShortFrame reports a frame too short to carry an address byte plus a
// PCI byte.
var ErrShortFrame = errors.New("bmwtp: frame shorter than address + PCI")

// Classify reports the ISO-TP frame type of the address-stripped remainder.
func Classify(data []byte) isotp.FrameType {
	if len(data) < 2 {
		return isotp.Invalid
	}
	return isotp.Classify(data[1:])
}

// Segment splits payload into extended-addressed frames for the ECU at
// addr. Frames are padded to 8 bytes total with pad.
func Segment(addr byte, payload []byte, pad byte) ([][]byte, error) {
	if len(payload) == 0 {
		return nil, isotp.ErrEmptyPayload
	}
	if len(payload) > isotp.MaxPayload {
		return nil, fmt.Errorf("%w: %d", isotp.ErrPayloadTooLong, len(payload))
	}
	var frames [][]byte
	if len(payload) <= MaxSingleFrame {
		f := make([]byte, 8)
		f[0] = addr
		f[1] = byte(len(payload)) // SF PCI: high nibble 0
		copy(f[2:], payload)
		for i := 2 + len(payload); i < 8; i++ {
			f[i] = pad
		}
		return [][]byte{f}, nil
	}
	ff := make([]byte, 8)
	ff[0] = addr
	ff[1] = 0x10 | byte(len(payload)>>8)
	ff[2] = byte(len(payload))
	copy(ff[3:], payload[:firstFrameData])
	frames = append(frames, ff)

	rest := payload[firstFrameData:]
	seq := byte(1)
	for len(rest) > 0 {
		n := len(rest)
		if n > consecData {
			n = consecData
		}
		cf := make([]byte, 8)
		cf[0] = addr
		cf[1] = 0x20 | seq
		copy(cf[2:], rest[:n])
		for i := 2 + n; i < 8; i++ {
			cf[i] = pad
		}
		frames = append(frames, cf)
		rest = rest[n:]
		seq = (seq + 1) & 0x0F
	}
	return frames, nil
}

// EncodeFlowControl builds an extended-addressed flow-control frame.
func EncodeFlowControl(addr byte, status isotp.FlowStatus, blockSize, stMin byte) []byte {
	inner := isotp.EncodeFlowControl(status, blockSize, stMin)
	out := make([]byte, 8)
	out[0] = addr
	copy(out[1:], inner)
	return out
}

// Reassembler rebuilds payloads from extended-addressed frames for one ECU
// address, delegating PCI handling to the isotp engine.
type Reassembler struct {
	// Addr filters frames; only frames whose address byte matches are
	// consumed. Set FilterByAddr false to accept any address (the
	// reverse-engineering pipeline does this, since it learns addresses
	// from traffic rather than configuring them).
	Addr         byte
	FilterByAddr bool

	inner isotp.Reassembler
}

// Feed consumes one raw CAN frame data field and returns completed
// messages as fresh heap copies the caller owns.
func (r *Reassembler) Feed(data []byte) (isotp.Result, error) {
	res, err := r.FeedView(data)
	if res.Message != nil {
		res.Message = append([]byte(nil), res.Message...)
	}
	return res, err
}

// FeedView consumes one raw CAN frame data field. Completed messages are
// zero-copy views with the isotp.Reassembler.FeedView lifetime: valid
// only until the next call on this reassembler.
//
//dplint:hotpath bmwtp-feed
func (r *Reassembler) FeedView(data []byte) (isotp.Result, error) {
	if len(data) < 2 {
		return isotp.Result{}, ErrShortFrame
	}
	if r.FilterByAddr && data[0] != r.Addr {
		return isotp.Result{}, nil
	}
	// Extended addressing shrinks single frames to 6 bytes, so first
	// frames of length 7 are legal here.
	r.inner.MinMultiFrameLen = MaxSingleFrame + 1
	return r.inner.FeedView(data[1:])
}

// Completed reports the number of assembled messages.
func (r *Reassembler) Completed() int { return r.inner.Completed() }

// Errors reports protocol errors seen.
func (r *Reassembler) Errors() int { return r.inner.Errors() }

// InFlight reports whether a reassembly is in progress.
func (r *Reassembler) InFlight() bool { return r.inner.InFlight() }

// Reset discards any in-flight transfer and returns the reassembler to
// idle; counters are preserved.
func (r *Reassembler) Reset() { r.inner.Reset() }

// Reason maps a reassembly error to a short stable label for metrics.
// BMW extended addressing reuses the ISO-TP state machine under a
// one-byte address prefix, so most reasons delegate to isotp.Reason; the
// address-prefix failure is the one BMW-specific case.
func Reason(err error) string {
	if errors.Is(err, ErrShortFrame) {
		return "short-frame"
	}
	return isotp.Reason(err)
}
