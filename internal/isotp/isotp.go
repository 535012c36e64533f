// Package isotp implements ISO 15765-2, the transport/network layer that
// carries diagnostic messages longer than one CAN frame (paper §2.2, Fig. 7).
//
// It provides three layers:
//
//   - a pure codec: Segment splits a payload into single/first/consecutive
//     frame data fields, Classify recognises frame types (the paper's
//     "Step 1: Screening Frames"), and Reassembler rebuilds payloads
//     ("Step 2: Assembling Payload");
//   - FlowControl encode/decode for the receiver-paced handshake;
//   - Endpoint, a full-duplex binding of the codec to a CAN bus with the
//     flow-control state machine, used by both the simulated diagnostic
//     tools and the simulated ECUs.
//
// Each layer also speaks extended addressing, the BMW/Mini framing of
// §3.2 Step 2 ("the first byte of each CAN frame stores the ID of the
// target ECU"): SegmentExtended prefixes the address byte, a Reassembler
// fed the address-stripped remainder with MinMultiFrameLen 7 rebuilds
// the payload, and EndpointConfig.Extended does both on a bus. ExtendedID
// says which CAN IDs carry the address byte.
package isotp

import (
	"errors"
	"fmt"
	"time"

	"dpreverser/internal/colstore"
)

// Frame-type nibbles per ISO 15765-2 (high nibble of the first data byte).
const (
	pciSingle     = 0x0
	pciFirst      = 0x1
	pciConsec     = 0x2
	pciFlowContrl = 0x3
)

// FrameType classifies an ISO 15765-2 frame.
type FrameType int

// Frame types. Invalid marks data that cannot be an ISO-TP frame (empty, or
// a reserved PCI nibble).
const (
	Invalid FrameType = iota
	SingleFrame
	FirstFrame
	ConsecutiveFrame
	FlowControlFrame
)

// String implements fmt.Stringer.
func (t FrameType) String() string {
	switch t {
	case SingleFrame:
		return "SF"
	case FirstFrame:
		return "FF"
	case ConsecutiveFrame:
		return "CF"
	case FlowControlFrame:
		return "FC"
	default:
		return "invalid"
	}
}

// FlowStatus is the first field of a flow-control frame.
type FlowStatus int

// Flow statuses per ISO 15765-2.
const (
	ContinueToSend FlowStatus = 0
	Wait           FlowStatus = 1
	Overflow       FlowStatus = 2
)

// Limits of the protocol.
const (
	// MaxSingleFrame is the largest payload a single frame carries.
	MaxSingleFrame = 7
	// MaxPayload is the 12-bit first-frame length limit.
	MaxPayload = 0xFFF
	// firstFrameData is the payload carried by a first frame.
	firstFrameData = 6
	// consecFrameData is the payload carried by each consecutive frame.
	consecFrameData = 7
)

// Extended addressing on the fleet's BMW and Mini cars: the tester
// transmits on ExtendedTesterID and the ECU at address a answers on
// ExtendedECUBase+a.
const (
	ExtendedTesterID uint32 = 0x6F1
	ExtendedECUBase  uint32 = 0x600
)

// ExtendedID reports whether frames on CAN ID id start with an address
// byte: the tester's ID, or an ECU response ID in 0x600-0x6EF.
func ExtendedID(id uint32) bool {
	return id == ExtendedTesterID || (id >= ExtendedECUBase && id <= ExtendedECUBase+0xEF)
}

// Errors reported by the codec and reassembler.
var (
	ErrPayloadTooLong  = errors.New("isotp: payload exceeds 4095 bytes")
	ErrEmptyPayload    = errors.New("isotp: empty payload")
	ErrBadSequence     = errors.New("isotp: consecutive frame out of sequence")
	ErrDuplicateFrame  = errors.New("isotp: duplicate consecutive frame")
	ErrUnexpectedFrame = errors.New("isotp: frame unexpected in current state")
	ErrTruncatedFrame  = errors.New("isotp: frame too short for its type")
	ErrNotFlowControl  = errors.New("isotp: frame is not flow control")
)

// Classify inspects a frame's data field and reports its ISO-TP type.
func Classify(data []byte) FrameType {
	if len(data) == 0 {
		return Invalid
	}
	switch data[0] >> 4 {
	case pciSingle:
		n := int(data[0] & 0x0F)
		if n == 0 || n > MaxSingleFrame || len(data) < 1+n {
			return Invalid
		}
		return SingleFrame
	case pciFirst:
		if len(data) < 2 {
			return Invalid
		}
		return FirstFrame
	case pciConsec:
		return ConsecutiveFrame
	case pciFlowContrl:
		if len(data) < 3 {
			return Invalid
		}
		return FlowControlFrame
	default:
		return Invalid
	}
}

// Segment splits payload into ISO-TP frame data fields: either one single
// frame, or a first frame followed by consecutive frames with cycling
// sequence numbers. Frames are padded to 8 bytes with the pad byte
// (real tools pad with 0x00, 0x55 or 0xAA; the value is visible on the wire
// but carries no payload).
func Segment(payload []byte, pad byte) ([][]byte, error) {
	return segment(nil, payload, pad)
}

// SegmentExtended is Segment under extended addressing: every frame
// starts with the target address byte, so each carries one payload byte
// fewer (single frames at most 6).
func SegmentExtended(addr byte, payload []byte, pad byte) ([][]byte, error) {
	return segment([]byte{addr}, payload, pad)
}

// segment is the body of Segment and SegmentExtended: prefix (empty, or
// the address byte) leads every frame and the PCI follows it.
func segment(prefix, payload []byte, pad byte) ([][]byte, error) {
	if len(payload) == 0 {
		return nil, ErrEmptyPayload
	}
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("%w: %d", ErrPayloadTooLong, len(payload))
	}
	// frame builds one padded 8-byte frame: prefix, PCI bytes, data.
	frame := func(pci []byte, data []byte) []byte {
		f := make([]byte, 8)
		n := copy(f, prefix)
		n += copy(f[n:], pci)
		n += copy(f[n:], data)
		for i := n; i < 8; i++ {
			f[i] = pad
		}
		return f
	}
	p := len(prefix)
	if len(payload) <= MaxSingleFrame-p {
		return [][]byte{frame([]byte{byte(pciSingle<<4) | byte(len(payload))}, payload)}, nil
	}

	first := firstFrameData - p
	frames := [][]byte{frame([]byte{byte(pciFirst<<4) | byte(len(payload)>>8), byte(len(payload))}, payload[:first])}
	rest := payload[first:]
	seq := byte(1)
	for len(rest) > 0 {
		n := min(len(rest), consecFrameData-p)
		frames = append(frames, frame([]byte{byte(pciConsec<<4) | seq}, rest[:n]))
		rest = rest[n:]
		seq = (seq + 1) & 0x0F
	}
	return frames, nil
}

// EncodeFlowControl builds a flow-control frame data field.
// blockSize 0 means "send everything without further FC"; stMin is the
// minimum CF separation in the raw ISO encoding (0x00-0x7F = ms).
func EncodeFlowControl(status FlowStatus, blockSize, stMin byte) []byte {
	return []byte{byte(pciFlowContrl<<4) | byte(status), blockSize, stMin, 0, 0, 0, 0, 0}
}

// FlowControl is a decoded flow-control frame.
type FlowControl struct {
	Status    FlowStatus
	BlockSize byte
	// STmin is the decoded minimum separation time between consecutive
	// frames.
	STmin time.Duration
}

// DecodeFlowControl parses a flow-control frame data field.
func DecodeFlowControl(data []byte) (FlowControl, error) {
	if Classify(data) != FlowControlFrame {
		return FlowControl{}, ErrNotFlowControl
	}
	fc := FlowControl{
		Status:    FlowStatus(data[0] & 0x0F),
		BlockSize: data[1],
	}
	raw := data[2]
	switch {
	case raw <= 0x7F:
		fc.STmin = time.Duration(raw) * time.Millisecond
	case raw >= 0xF1 && raw <= 0xF9:
		fc.STmin = time.Duration(raw-0xF0) * 100 * time.Microsecond
	default:
		// Reserved values are treated as the maximum per the standard.
		fc.STmin = 127 * time.Millisecond
	}
	return fc, nil
}

// Reassembler rebuilds one payload at a time from a stream of ISO-TP frame
// data fields (one reassembler per CAN ID, as the paper groups frames by
// identifier before assembling).
type Reassembler struct {
	// MinMultiFrameLen is the smallest legal first-frame length. Zero means
	// the normal-addressing default (MaxSingleFrame+1); extended addressing
	// lowers it to 7 because its single frames carry only 6 bytes.
	MinMultiFrameLen int

	// buf is in-flight assembly scratch, leased from the colstore buffer
	// pool for the duration of one transfer. It is nil whenever no
	// transfer is in flight *and* no completed message view is pending;
	// abort — the single release point — returns it on every path that
	// ends a transfer, including all resynchronisation errors.
	buf      []byte
	expected int
	nextSeq  byte
	// lastSeq/haveLast remember the previous accepted consecutive frame,
	// so a retransmitted duplicate can be recognised and skipped without
	// discarding the transfer (resynchronization under frame duplication).
	lastSeq   byte
	haveLast  bool
	inFlight  bool
	completed int
	errors    int
}

// Result is the outcome of feeding one frame to a Reassembler.
type Result struct {
	// Message is the completed payload, nil until a message completes.
	Message []byte
	// NeedFlowControl is true right after a first frame: the receiver
	// should answer with an FC frame.
	NeedFlowControl bool
}

// Feed consumes one frame's data field and returns completed messages as
// fresh heap copies the caller owns. It is FeedView plus a copy; hot
// consumers (the reverser's columnar assembler) use FeedView directly and
// copy the view into their own storage once.
func (r *Reassembler) Feed(data []byte) (Result, error) {
	res, err := r.FeedView(data)
	if res.Message != nil {
		res.Message = append([]byte(nil), res.Message...)
	}
	return res, err
}

// FeedView consumes one frame's data field. Flow-control frames are
// ignored (they belong to the opposite direction). A new first or single
// frame aborts any partial reassembly in progress, which mirrors how
// tools recover from lost frames.
//
// The returned Result.Message is a zero-copy view — into data for single
// frames, into the reassembler's pooled scratch for multi-frame messages
// — and is valid only until the next call on this reassembler (or, for
// single frames, until the caller reuses data). Callers that retain
// messages must copy; Feed does exactly that.
//
//dplint:hotpath isotp-feed
func (r *Reassembler) FeedView(data []byte) (Result, error) {
	switch Classify(data) {
	case SingleFrame:
		r.abort()
		n := int(data[0] & 0x0F)
		r.completed++
		return Result{Message: data[1 : 1+n : 1+n]}, nil

	case FirstFrame:
		r.abort()
		r.expected = int(data[0]&0x0F)<<8 | int(data[1])
		minLen := r.MinMultiFrameLen
		if minLen == 0 {
			minLen = MaxSingleFrame + 1
		}
		if r.expected < minLen {
			expected := r.expected
			r.expected = 0
			r.errors++
			return Result{}, fmt.Errorf("%w: first frame with length %d", ErrUnexpectedFrame, expected)
		}
		n := len(data) - 2
		if n > firstFrameData {
			n = firstFrameData
		}
		r.buf = append(colstore.GetBuf(r.expected), data[2:2+n]...)
		r.nextSeq = 1
		r.inFlight = true
		return Result{NeedFlowControl: true}, nil

	case ConsecutiveFrame:
		if !r.inFlight {
			r.errors++
			return Result{}, fmt.Errorf("%w: consecutive frame without first frame", ErrUnexpectedFrame)
		}
		seq := data[0] & 0x0F
		if seq != r.nextSeq {
			// A retransmitted copy of the frame just consumed is skipped
			// and the transfer salvaged; anything else is unrecoverable
			// (payload bytes are missing), so discard — returning the
			// scratch buffer — and resync on the next first frame.
			if r.haveLast && seq == r.lastSeq {
				r.errors++
				return Result{}, fmt.Errorf("%w: sequence %d repeated", ErrDuplicateFrame, seq)
			}
			r.abort()
			r.errors++
			return Result{}, fmt.Errorf("%w: got %d want %d", ErrBadSequence, seq, r.nextSeq)
		}
		r.lastSeq, r.haveLast = seq, true
		r.nextSeq = (r.nextSeq + 1) & 0x0F
		remaining := r.expected - len(r.buf)
		n := len(data) - 1
		if n > remaining {
			n = remaining
		}
		r.buf = append(r.buf, data[1:1+n]...)
		if len(r.buf) >= r.expected {
			// Completion keeps the scratch buffer: the view must survive
			// until the caller's next Feed, whose abort releases it.
			msg := r.buf[:r.expected:r.expected]
			r.expected = 0
			r.nextSeq = 0
			r.lastSeq = 0
			r.haveLast = false
			r.inFlight = false
			r.completed++
			return Result{Message: msg}, nil
		}
		return Result{}, nil

	case FlowControlFrame:
		return Result{}, nil

	default:
		r.errors++
		return Result{}, fmt.Errorf("%w: %d bytes, pci %#x", ErrTruncatedFrame, len(data), firstByte(data))
	}
}

func firstByte(data []byte) byte {
	if len(data) == 0 {
		return 0
	}
	return data[0]
}

// InFlight reports whether a multi-frame reassembly is in progress.
func (r *Reassembler) InFlight() bool { return r.inFlight }

// Completed reports how many messages this reassembler has produced.
func (r *Reassembler) Completed() int { return r.completed }

// Errors reports how many malformed or out-of-order frames were seen.
func (r *Reassembler) Errors() int { return r.errors }

// Reset discards any in-flight transfer and returns the reassembler to
// idle, releasing its pending buffer; completion and error counters are
// preserved. The assembler uses it to evict pending state when hostile
// traffic opens more transfers than the pipeline will hold. A message
// view obtained from FeedView is invalidated by Reset.
func (r *Reassembler) Reset() { r.abort() }

// abort ends any transfer — in flight or completed-and-pending — and is
// the single point that returns the pooled scratch buffer.
func (r *Reassembler) abort() {
	if r.buf != nil {
		colstore.PutBuf(r.buf)
		r.buf = nil
	}
	r.expected = 0
	r.nextSeq = 0
	r.lastSeq = 0
	r.haveLast = false
	r.inFlight = false
}

// Reason maps a reassembly error to a short stable label for metrics
// (the telemetry transport-error counter's "reason" dimension). Unknown
// errors report "other"; nil reports "".
func Reason(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrBadSequence):
		return "bad-sequence"
	case errors.Is(err, ErrDuplicateFrame):
		return "duplicate-frame"
	case errors.Is(err, ErrUnexpectedFrame):
		return "unexpected-frame"
	case errors.Is(err, ErrTruncatedFrame):
		return "truncated-frame"
	case errors.Is(err, ErrPayloadTooLong):
		return "payload-too-long"
	case errors.Is(err, ErrEmptyPayload):
		return "empty-payload"
	case errors.Is(err, ErrNotFlowControl):
		return "not-flow-control"
	default:
		return "other"
	}
}
