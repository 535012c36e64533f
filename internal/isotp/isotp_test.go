package isotp

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want FrameType
	}{
		{"empty", nil, Invalid},
		{"sf len 1", []byte{0x01, 0xAA}, SingleFrame},
		{"sf len 7", []byte{0x07, 1, 2, 3, 4, 5, 6, 7}, SingleFrame},
		{"sf len 0 invalid", []byte{0x00}, Invalid},
		{"sf len 8 invalid", []byte{0x08, 1, 2, 3, 4, 5, 6, 7}, Invalid},
		{"sf truncated", []byte{0x03, 1}, Invalid},
		{"ff", []byte{0x10, 0x14, 1, 2, 3, 4, 5, 6}, FirstFrame},
		{"ff truncated", []byte{0x10}, Invalid},
		{"cf", []byte{0x21, 1, 2, 3, 4, 5, 6, 7}, ConsecutiveFrame},
		{"fc cts", []byte{0x30, 0x00, 0x00}, FlowControlFrame},
		{"fc truncated", []byte{0x30, 0x00}, Invalid},
		{"reserved pci", []byte{0x40}, Invalid},
		{"reserved pci f", []byte{0xF0}, Invalid},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Classify(c.data); got != c.want {
				t.Fatalf("Classify(% X) = %v, want %v", c.data, got, c.want)
			}
		})
	}
}

func TestFrameTypeString(t *testing.T) {
	pairs := map[FrameType]string{
		SingleFrame: "SF", FirstFrame: "FF", ConsecutiveFrame: "CF",
		FlowControlFrame: "FC", Invalid: "invalid",
	}
	for ft, want := range pairs {
		if got := ft.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ft, got, want)
		}
	}
}

func TestSegmentSingleFrame(t *testing.T) {
	frames, err := Segment([]byte{0x22, 0xF4, 0x0D}, 0xAA)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 {
		t.Fatalf("got %d frames, want 1", len(frames))
	}
	want := []byte{0x03, 0x22, 0xF4, 0x0D, 0xAA, 0xAA, 0xAA, 0xAA}
	if !bytes.Equal(frames[0], want) {
		t.Fatalf("frame = % X, want % X", frames[0], want)
	}
}

func TestSegmentMultiFrame(t *testing.T) {
	payload := make([]byte, 20)
	for i := range payload {
		payload[i] = byte(i + 1)
	}
	frames, err := Segment(payload, 0x00)
	if err != nil {
		t.Fatal(err)
	}
	// 20 bytes: FF carries 6, then CFs carry 7+7 → 3 frames total.
	if len(frames) != 3 {
		t.Fatalf("got %d frames, want 3", len(frames))
	}
	if frames[0][0] != 0x10 || frames[0][1] != 20 {
		t.Fatalf("FF header = % X", frames[0][:2])
	}
	if frames[1][0] != 0x21 || frames[2][0] != 0x22 {
		t.Fatalf("CF sequence bytes = %#x, %#x", frames[1][0], frames[2][0])
	}
}

func TestSegmentSequenceWraps(t *testing.T) {
	// 6 + 7*16 = 118 bytes means the 16th CF wraps its sequence to 0x20.
	payload := make([]byte, 6+7*16)
	frames, err := Segment(payload, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := frames[len(frames)-1]
	if last[0] != 0x20 {
		t.Fatalf("16th CF pci = %#x, want 0x20 (sequence wrap)", last[0])
	}
}

func TestSegmentErrors(t *testing.T) {
	if _, err := Segment(nil, 0); !errors.Is(err, ErrEmptyPayload) {
		t.Fatalf("empty: err = %v", err)
	}
	if _, err := Segment(make([]byte, MaxPayload+1), 0); !errors.Is(err, ErrPayloadTooLong) {
		t.Fatalf("too long: err = %v", err)
	}
}

func TestFlowControlRoundTrip(t *testing.T) {
	data := EncodeFlowControl(ContinueToSend, 4, 20)
	fc, err := DecodeFlowControl(data)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Status != ContinueToSend || fc.BlockSize != 4 || fc.STmin != 20*time.Millisecond {
		t.Fatalf("fc = %+v", fc)
	}
}

func TestDecodeFlowControlSTminMicroseconds(t *testing.T) {
	fc, err := DecodeFlowControl([]byte{0x30, 0, 0xF3})
	if err != nil {
		t.Fatal(err)
	}
	if fc.STmin != 300*time.Microsecond {
		t.Fatalf("STmin = %v, want 300µs", fc.STmin)
	}
}

func TestDecodeFlowControlReservedSTmin(t *testing.T) {
	fc, err := DecodeFlowControl([]byte{0x31, 0, 0x80})
	if err != nil {
		t.Fatal(err)
	}
	if fc.Status != Wait {
		t.Fatalf("status = %v, want Wait", fc.Status)
	}
	if fc.STmin != 127*time.Millisecond {
		t.Fatalf("reserved STmin = %v, want 127ms", fc.STmin)
	}
}

func TestDecodeFlowControlRejectsOthers(t *testing.T) {
	if _, err := DecodeFlowControl([]byte{0x02, 1, 2}); !errors.Is(err, ErrNotFlowControl) {
		t.Fatalf("err = %v", err)
	}
}

func TestReassembleSingleFrame(t *testing.T) {
	var r Reassembler
	res, err := r.Feed([]byte{0x02, 0x10, 0x03, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Message, []byte{0x10, 0x03}) {
		t.Fatalf("message = % X", res.Message)
	}
	if r.Completed() != 1 {
		t.Fatalf("Completed = %d", r.Completed())
	}
}

func TestReassembleMultiFrame(t *testing.T) {
	payload := make([]byte, 50)
	for i := range payload {
		payload[i] = byte(200 - i)
	}
	frames, _ := Segment(payload, 0xCC)
	var r Reassembler
	var got []byte
	for i, f := range frames {
		res, err := r.Feed(f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if i == 0 && !res.NeedFlowControl {
			t.Fatal("first frame did not request flow control")
		}
		if res.Message != nil {
			got = res.Message
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("reassembled % X, want % X", got, payload)
	}
}

func TestReassembleBadSequence(t *testing.T) {
	var r Reassembler
	_, err := r.Feed([]byte{0x10, 0x14, 1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Feed([]byte{0x23, 7, 8, 9, 10, 11, 12, 13}) // seq 3, want 1
	if !errors.Is(err, ErrBadSequence) {
		t.Fatalf("err = %v, want ErrBadSequence", err)
	}
	if r.InFlight() {
		t.Fatal("reassembler still in flight after sequence error")
	}
	if r.Errors() != 1 {
		t.Fatalf("Errors = %d, want 1", r.Errors())
	}
}

func TestReassembleCFWithoutFF(t *testing.T) {
	var r Reassembler
	_, err := r.Feed([]byte{0x21, 1, 2, 3, 4, 5, 6, 7})
	if !errors.Is(err, ErrUnexpectedFrame) {
		t.Fatalf("err = %v, want ErrUnexpectedFrame", err)
	}
}

func TestReassembleFFWithShortLengthRejected(t *testing.T) {
	var r Reassembler
	_, err := r.Feed([]byte{0x10, 0x05, 1, 2, 3, 4, 5, 6})
	if !errors.Is(err, ErrUnexpectedFrame) {
		t.Fatalf("err = %v, want ErrUnexpectedFrame (FF length must exceed SF capacity)", err)
	}
}

func TestReassembleNewFFAbortsPartial(t *testing.T) {
	var r Reassembler
	if _, err := r.Feed([]byte{0x10, 0x14, 1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	// A fresh FF replaces the stalled transfer.
	payload := make([]byte, 10)
	for i := range payload {
		payload[i] = byte(i)
	}
	frames, _ := Segment(payload, 0)
	var got []byte
	for _, f := range frames {
		res, err := r.Feed(f)
		if err != nil {
			t.Fatal(err)
		}
		if res.Message != nil {
			got = res.Message
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got % X, want % X", got, payload)
	}
}

func TestReassembleIgnoresFlowControl(t *testing.T) {
	var r Reassembler
	res, err := r.Feed(EncodeFlowControl(ContinueToSend, 0, 0))
	if err != nil || res.Message != nil || res.NeedFlowControl {
		t.Fatalf("FC frame not ignored: res=%+v err=%v", res, err)
	}
}

func TestReassembleInvalidFrame(t *testing.T) {
	var r Reassembler
	if _, err := r.Feed([]byte{0x90, 1, 2}); !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("err = %v, want ErrTruncatedFrame", err)
	}
}

// addressing is one addressing mode under test: normal, or extended with
// address byte 0x12 leading every frame.
type addressing struct {
	name     string
	extended bool
}

var modes = []addressing{{"normal", false}, {"extended", true}}

// segment splits payload in this mode.
func (m addressing) segment(payload []byte, pad byte) ([][]byte, error) {
	if m.extended {
		return SegmentExtended(0x12, payload, pad)
	}
	return Segment(payload, pad)
}

// reassembler returns an idle reassembler configured for this mode.
func (m addressing) reassembler() *Reassembler {
	if m.extended {
		return &Reassembler{MinMultiFrameLen: 7}
	}
	return &Reassembler{}
}

// strip removes the address byte an extended frame carries.
func (m addressing) strip(frame []byte) []byte {
	if m.extended && len(frame) > 0 {
		return frame[1:]
	}
	return frame
}

// roundTrip segments payload, checks the address byte on every frame,
// and reassembles it; ok is false on any error or a missing message.
func (m addressing) roundTrip(payload []byte, pad byte) ([]byte, bool) {
	frames, err := m.segment(payload, pad)
	if err != nil {
		return nil, false
	}
	r := m.reassembler()
	for _, fr := range frames {
		if len(fr) != 8 || (m.extended && fr[0] != 0x12) {
			return nil, false
		}
		res, err := r.Feed(m.strip(fr))
		if err != nil {
			return nil, false
		}
		if res.Message != nil {
			return res.Message, true
		}
	}
	return nil, false
}

// Property: Segment → Reassemble is the identity for every payload size in
// range, in both addressing modes.
func TestSegmentReassembleRoundTripProperty(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			f := func(raw []byte, pad byte) bool {
				if len(raw) == 0 || len(raw) > MaxPayload {
					return true // out of protocol range; skip
				}
				got, ok := m.roundTrip(raw, pad)
				return ok && bytes.Equal(got, raw)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: every boundary payload size round-trips in both modes
// (exhaustive over the interesting sizes: SF/FF boundary, CF boundaries,
// max).
func TestSegmentReassembleBoundarySizes(t *testing.T) {
	sizes := []int{1, 5, 6, 7, 8, 11, 12, 13, 14, 17, 18, 20, 21, 62, 63, 4094, 4095}
	for _, m := range modes {
		for _, n := range sizes {
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = byte(i * 7)
			}
			if got, ok := m.roundTrip(payload, 0x55); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("%s size %d: round trip failed", m.name, n)
			}
		}
	}
}

// TestSegmentExtended pins the extended-addressing frame shapes: the
// address on every frame, the PCI behind it, and one payload byte fewer
// per frame than normal addressing (SF 6, FF 5, CF 6).
func TestSegmentExtended(t *testing.T) {
	seq := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i + 1)
		}
		return p
	}
	cases := []struct {
		name    string
		addr    byte
		payload []byte
		want    [][]byte
		kinds   []FrameType
	}{
		{
			name: "single frame padded", addr: 0x29, payload: []byte{0x22, 0xDB, 0xE5},
			want:  [][]byte{{0x29, 0x03, 0x22, 0xDB, 0xE5, 0xFF, 0xFF, 0xFF}},
			kinds: []FrameType{SingleFrame},
		},
		{
			name: "six bytes still fit one frame", addr: 0x29, payload: seq(6),
			want:  [][]byte{{0x29, 0x06, 1, 2, 3, 4, 5, 6}},
			kinds: []FrameType{SingleFrame},
		},
		{
			name: "seven bytes need a first frame", addr: 0x10, payload: seq(7),
			want: [][]byte{
				{0x10, 0x10, 0x07, 1, 2, 3, 4, 5},
				{0x10, 0x21, 6, 7, 0xFF, 0xFF, 0xFF, 0xFF},
			},
			kinds: []FrameType{FirstFrame, ConsecutiveFrame},
		},
		{
			// 25 = 5 + 6 + 6 + 6 + 2: five frames.
			name: "address on every frame", addr: 0x60, payload: seq(25),
			want: [][]byte{
				{0x60, 0x10, 25, 1, 2, 3, 4, 5},
				{0x60, 0x21, 6, 7, 8, 9, 10, 11},
				{0x60, 0x22, 12, 13, 14, 15, 16, 17},
				{0x60, 0x23, 18, 19, 20, 21, 22, 23},
				{0x60, 0x24, 24, 25, 0xFF, 0xFF, 0xFF, 0xFF},
			},
			kinds: []FrameType{FirstFrame, ConsecutiveFrame, ConsecutiveFrame, ConsecutiveFrame, ConsecutiveFrame},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			frames, err := SegmentExtended(c.addr, c.payload, 0xFF)
			if err != nil {
				t.Fatal(err)
			}
			if len(frames) != len(c.want) {
				t.Fatalf("got %d frames, want %d", len(frames), len(c.want))
			}
			for i := range frames {
				if !bytes.Equal(frames[i], c.want[i]) {
					t.Errorf("frame %d = % X, want % X", i, frames[i], c.want[i])
				}
				if got := Classify(frames[i][1:]); got != c.kinds[i] {
					t.Errorf("frame %d classifies as %v behind the address, want %v", i, got, c.kinds[i])
				}
			}
		})
	}
	if _, err := SegmentExtended(0x12, nil, 0); !errors.Is(err, ErrEmptyPayload) {
		t.Fatalf("empty: err = %v", err)
	}
	if _, err := SegmentExtended(0x12, make([]byte, MaxPayload+1), 0); !errors.Is(err, ErrPayloadTooLong) {
		t.Fatalf("too long: err = %v", err)
	}
}

// TestFirstFrameMinimumLength: a first frame announcing 7 bytes is legal
// only under extended addressing, whose single frames hold 6.
func TestFirstFrameMinimumLength(t *testing.T) {
	cases := []struct {
		name   string
		min    int
		length byte
		ok     bool
	}{
		{"normal rejects 7", 0, 7, false},
		{"normal accepts 8", 0, 8, true},
		{"extended accepts 7", 7, 7, true},
		{"extended rejects 6", 7, 6, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := Reassembler{MinMultiFrameLen: c.min}
			res, err := r.Feed([]byte{0x10, c.length, 1, 2, 3, 4, 5, 6})
			if c.ok != (err == nil) {
				t.Fatalf("err = %v, want ok %v", err, c.ok)
			}
			if !c.ok && !errors.Is(err, ErrUnexpectedFrame) {
				t.Fatalf("err = %v, want ErrUnexpectedFrame", err)
			}
			if res.NeedFlowControl != c.ok || r.InFlight() != c.ok {
				t.Fatalf("flow control %v, in flight %v; want both %v", res.NeedFlowControl, r.InFlight(), c.ok)
			}
		})
	}
}

// TestExtendedID pins the ID rule: the tester's 0x6F1 and the ECU
// response range 0x600-0x6EF carry an address byte; nothing else does.
func TestExtendedID(t *testing.T) {
	for id, want := range map[uint32]bool{
		0x6F1: true, 0x600: true, 0x610: true, 0x6EF: true,
		0x5FF: false, 0x6F0: false, 0x6F2: false, 0x7E0: false, 0x7E8: false, 0x200: false,
	} {
		if got := ExtendedID(id); got != want {
			t.Errorf("ExtendedID(%#x) = %v, want %v", id, got, want)
		}
	}
}
