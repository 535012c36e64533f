// Package vwtp implements VW TP 2.0, Volkswagen's proprietary CAN
// transport/network layer used beneath KWP 2000 on VAG vehicles (paper
// Table 1, §3.2). Volkswagen Magotan, Lavida and Passat in the paper's
// fleet carry KWP 2000 over this transport.
//
// TP 2.0 differs from ISO 15765-2 in the ways the paper highlights:
//
//   - a dynamic channel is negotiated first (broadcast channel setup on ID
//     0x200 + ECU address, then channel-parameter exchange on the
//     negotiated IDs);
//   - data frames carry an opcode nibble + 4-bit sequence number instead of
//     a length-bearing PCI, so "the data transmission frames do not contain
//     the data length fields. We check their opcodes to determine if the
//     current frame is the last frame or not" (§3.2 Step 2);
//   - the receiver paces the sender with explicit ACK frames every
//     block-size packets.
//
// The package provides the frame codec (Classify, Segment, Reassembler)
// used by the reverse-engineering pipeline's screening/assembly steps, and
// a Channel implementation used by the simulated VAG vehicles and tools.
package vwtp

import (
	"errors"
	"fmt"

	"dpreverser/internal/colstore"
)

// Kind classifies a TP 2.0 frame by its first byte, for the screening step.
type Kind int

// Frame kinds. The paper's screening removes Broadcast, ChannelSetup and
// ChannelParams frames and keeps only Data frames.
const (
	KindInvalid Kind = iota
	// KindChannelSetup covers setup requests (0xC0) and responses
	// (0xD0-0xD8) exchanged on the broadcast IDs.
	KindChannelSetup
	// KindChannelParams covers parameter request/response/test (0xA0,
	// 0xA1, 0xA3).
	KindChannelParams
	// KindDisconnect is 0xA8.
	KindDisconnect
	// KindACK covers 0x9x (ready) and 0xBx (not ready).
	KindACK
	// KindData covers the four data opcodes 0x0x-0x3x.
	KindData
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindChannelSetup:
		return "channel-setup"
	case KindChannelParams:
		return "channel-params"
	case KindDisconnect:
		return "disconnect"
	case KindACK:
		return "ack"
	case KindData:
		return "data"
	default:
		return "invalid"
	}
}

// Data-frame opcodes (high nibble). Low nibble is the 4-bit sequence.
const (
	opMoreExpectACK = 0x0 // more packets follow, ACK expected now
	opLastExpectACK = 0x1 // last packet, ACK expected
	opMoreNoACK     = 0x2 // more packets follow, no ACK
	opLastNoACK     = 0x3 // last packet, no ACK
	opACKReady      = 0x9
	opACKNotReady   = 0xB
	opParamsReq     = 0xA0
	opParamsResp    = 0xA1
	opChannelTest   = 0xA3
	opBreak         = 0xA4
	opDisconnect    = 0xA8
	opSetupReq      = 0xC0
	opSetupPosResp  = 0xD0
)

// Errors reported by the codec.
var (
	ErrEmptyFrame     = errors.New("vwtp: empty frame")
	ErrEmptyPayload   = errors.New("vwtp: empty payload")
	ErrBadSequence    = errors.New("vwtp: data frame out of sequence")
	ErrDuplicateFrame = errors.New("vwtp: duplicate data frame")
	ErrNotData        = errors.New("vwtp: frame is not a data frame")
	ErrLengthMismatch = errors.New("vwtp: message length prefix mismatch")
	ErrPayloadTooLong = errors.New("vwtp: payload exceeds 65535 bytes")
)

// Classify reports the kind of a TP 2.0 frame from its data field.
func Classify(data []byte) Kind {
	if len(data) == 0 {
		return KindInvalid
	}
	op := data[0]
	switch {
	case op>>4 <= opLastNoACK:
		return KindData
	case op>>4 == opACKReady || op>>4 == opACKNotReady:
		return KindACK
	case op == opParamsReq || op == opParamsResp || op == opChannelTest || op == opBreak:
		return KindChannelParams
	case op == opDisconnect:
		return KindDisconnect
	case op == opSetupReq || (op >= opSetupPosResp && op <= 0xD8):
		return KindChannelSetup
	default:
		return KindInvalid
	}
}

// IsNotReady reports whether a frame is a receiver-not-ready ACK (0xBx):
// the TP 2.0 wait state, which a hostile peer floods to stall a sender
// indefinitely.
func IsNotReady(data []byte) bool {
	return len(data) > 0 && data[0]>>4 == opACKNotReady
}

// SetupIDs decodes a positive channel-setup response, laid out
// [0x00, 0xD0, rxLo, rxHi, txLo, txHi, app]: the CAN IDs the ECU receives
// and transmits the channel's data on. ok is false for any other frame.
func SetupIDs(data []byte) (ecuRx, ecuTx uint32, ok bool) {
	if len(data) < 7 || data[1] != opSetupPosResp {
		return 0, 0, false
	}
	return uint32(data[2]) | uint32(data[3])<<8, uint32(data[4]) | uint32(data[5])<<8, true
}

// IsLastData reports whether a data frame's opcode marks the final packet
// of a message — the check the paper's assembly step performs.
func IsLastData(data []byte) bool {
	if Classify(data) != KindData {
		return false
	}
	op := data[0] >> 4
	return op == opLastExpectACK || op == opLastNoACK
}

// ExpectsACK reports whether a data frame requests an acknowledgement.
func ExpectsACK(data []byte) bool {
	if Classify(data) != KindData {
		return false
	}
	op := data[0] >> 4
	return op == opMoreExpectACK || op == opLastExpectACK
}

// Seq extracts the 4-bit sequence number of a data or ACK frame.
func Seq(data []byte) byte {
	if len(data) == 0 {
		return 0
	}
	return data[0] & 0x0F
}

// Segment splits an application payload into TP 2.0 data-frame fields.
// The first frame carries a 2-byte big-endian length prefix, then payload;
// each frame carries up to 7 bytes after the opcode byte. blockSize
// controls how often an ACK is requested: every blockSize-th packet uses an
// expect-ACK opcode (and the final packet always does). seq is the starting
// sequence number (channels carry sequence state across messages).
func Segment(payload []byte, blockSize int, seq byte) ([][]byte, error) {
	if len(payload) == 0 {
		return nil, ErrEmptyPayload
	}
	if len(payload) > 0xFFFF {
		return nil, fmt.Errorf("%w: %d", ErrPayloadTooLong, len(payload))
	}
	if blockSize <= 0 {
		blockSize = 15
	}
	body := make([]byte, 0, 2+len(payload))
	body = append(body, byte(len(payload)>>8), byte(len(payload)))
	body = append(body, payload...)

	var frames [][]byte
	for i := 0; len(body) > 0; i++ {
		n := len(body)
		if n > 7 {
			n = 7
		}
		last := n == len(body)
		var op byte
		switch {
		case last:
			op = opLastExpectACK
		case (i+1)%blockSize == 0:
			op = opMoreExpectACK
		default:
			op = opMoreNoACK
		}
		frame := make([]byte, 1+n)
		frame[0] = op<<4 | (seq & 0x0F)
		copy(frame[1:], body[:n])
		frames = append(frames, frame)
		body = body[n:]
		seq = (seq + 1) & 0x0F
	}
	return frames, nil
}

// EncodeACK builds an ACK frame acknowledging up to (but not including)
// sequence number next.
func EncodeACK(next byte, ready bool) []byte {
	op := byte(opACKReady)
	if !ready {
		op = opACKNotReady
	}
	return []byte{op<<4 | (next & 0x0F)}
}

// Reassembler rebuilds application payloads from a stream of TP 2.0 data
// frames on one channel direction.
type Reassembler struct {
	// buf is assembly scratch leased from the colstore buffer pool. It is
	// nil when no transfer is in flight and no completed message view is
	// pending; abort — the single release point — returns it on every
	// path that discards a transfer, and the first data frame after a
	// completed message releases the old lease before taking a new one.
	buf     []byte
	nextSeq byte
	started bool
	// viewLive marks that buf holds a completed message whose view was
	// handed to the caller; it expires on the next data frame.
	viewLive  bool
	completed int
	errors    int
}

// Result is the outcome of feeding a frame.
type Result struct {
	// Message is the completed payload (length prefix stripped), or nil.
	Message []byte
	// NeedACK reports that the peer requested an acknowledgement; NextSeq
	// is the sequence to acknowledge with.
	NeedACK bool
	// NextSeq is the sequence number expected next (valid when NeedACK).
	NextSeq byte
}

// Feed consumes one frame and returns completed messages as fresh heap
// copies the caller owns. It is FeedView plus a copy; hot consumers (the
// reverser's columnar assembler) use FeedView directly and copy the view
// into their own storage once.
func (r *Reassembler) Feed(data []byte) (Result, error) {
	res, err := r.FeedView(data)
	if res.Message != nil {
		res.Message = append([]byte(nil), res.Message...)
	}
	return res, err
}

// FeedView consumes one frame. Non-data frames are ignored. Sequence
// errors abort the in-progress message.
//
// The returned Result.Message is a zero-copy view into the reassembler's
// pooled scratch, valid only until the next call on this reassembler.
// Callers that retain messages must copy; Feed does exactly that.
//
//dplint:hotpath vwtp-feed
func (r *Reassembler) FeedView(data []byte) (Result, error) {
	if Classify(data) != KindData {
		return Result{}, nil
	}
	seq := Seq(data)
	if r.started && seq != r.nextSeq {
		// A retransmitted copy of the frame just consumed is skipped and
		// the message salvaged — sequence numbers run across messages on a
		// channel, so the previous sequence is always (nextSeq-1) mod 16.
		// Any other gap loses payload bytes: discard and resync on the
		// next frame (the length prefix will catch misassembly).
		if seq == (r.nextSeq+15)&0x0F {
			r.errors++
			return Result{}, fmt.Errorf("%w: sequence %d repeated", ErrDuplicateFrame, seq)
		}
		r.abort()
		r.errors++
		return Result{}, fmt.Errorf("%w: got %d want %d", ErrBadSequence, seq, r.nextSeq)
	}
	if !r.started {
		r.started = true
		r.nextSeq = seq
	}
	r.nextSeq = (r.nextSeq + 1) & 0x0F
	if r.viewLive {
		// The previous message's view expires with this call; release its
		// buffer before leasing scratch for the new message.
		colstore.PutBuf(r.buf)
		r.buf = nil
		r.viewLive = false
	}
	if r.buf == nil {
		// First bytes of a message. The first frame leads with the 2-byte
		// big-endian length prefix, so the scratch lease can usually be
		// sized for the whole message up front.
		size := 64
		if len(data) >= 3 {
			size = (int(data[1])<<8 | int(data[2])) + 2
		}
		r.buf = colstore.GetBuf(size)
	}
	r.buf = append(r.buf, data[1:]...)

	res := Result{NeedACK: ExpectsACK(data), NextSeq: r.nextSeq}
	if !IsLastData(data) {
		return res, nil
	}
	// Last frame: validate and strip the 2-byte length prefix.
	if len(r.buf) < 2 {
		r.abort()
		r.errors++
		return Result{}, fmt.Errorf("%w: message shorter than length prefix", ErrLengthMismatch)
	}
	want := int(r.buf[0])<<8 | int(r.buf[1])
	got := len(r.buf) - 2
	if got != want {
		r.abort()
		r.errors++
		return Result{}, fmt.Errorf("%w: prefix %d, assembled %d", ErrLengthMismatch, want, got)
	}
	// Completion keeps the buffer — the view must survive until the next
	// data frame, which releases it — and keeps sequence continuity:
	// TP 2.0 sequence numbers run across messages within a channel.
	r.viewLive = true
	r.completed++
	res.Message = r.buf[2 : 2+want : 2+want]
	return res, nil
}

// Completed reports how many messages have been produced.
func (r *Reassembler) Completed() int { return r.completed }

// Errors reports how many protocol errors were seen.
func (r *Reassembler) Errors() int { return r.errors }

// InFlight reports whether a message is partially assembled. A completed
// message whose view is still pending does not count as in flight.
func (r *Reassembler) InFlight() bool { return len(r.buf) > 0 && !r.viewLive }

// Reset discards any in-flight message and returns the reassembler to
// idle, releasing its pending buffer; completion and error counters are
// preserved. A message view obtained from FeedView is invalidated.
func (r *Reassembler) Reset() { r.abort() }

// abort discards the transfer — releasing the pooled scratch buffer —
// and resets sequence tracking so the next frame resynchronises.
func (r *Reassembler) abort() {
	if r.buf != nil {
		colstore.PutBuf(r.buf)
		r.buf = nil
	}
	r.started = false
	r.nextSeq = 0
	r.viewLive = false
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
	case errors.Is(err, ErrLengthMismatch):
		return "length-mismatch"
	case errors.Is(err, ErrNotData):
		return "not-data"
	case errors.Is(err, ErrEmptyFrame):
		return "empty-frame"
	case errors.Is(err, ErrEmptyPayload):
		return "empty-payload"
	case errors.Is(err, ErrPayloadTooLong):
		return "payload-too-long"
	default:
		return "other"
	}
}
