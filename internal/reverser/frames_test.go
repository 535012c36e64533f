package reverser

import (
	"bytes"
	"context"
	"testing"

	"dpreverser/internal/bmwtp"
	"dpreverser/internal/can"
	"dpreverser/internal/colstore"
	"dpreverser/internal/isotp"
	"dpreverser/internal/vwtp"
)

// framesFromData wraps raw data fields into frames on one ID.
func framesFromData(id uint32, fields [][]byte) []can.Frame {
	var out []can.Frame
	for _, d := range fields {
		out = append(out, can.MustFrame(id, d))
	}
	return out
}

// assemble runs the pipeline's assembly path over a row-oriented capture.
func assemble(t testing.TB, frames []can.Frame) (*colstore.Messages, TrafficStats) {
	t.Helper()
	msgs, stats, err := AssembleColumnar(context.Background(), FramesColumnar(frames), nil)
	if err != nil {
		t.Fatal(err)
	}
	return msgs, stats
}

func TestAssembleISOTPSingleAndMulti(t *testing.T) {
	long := make([]byte, 30)
	for i := range long {
		long[i] = byte(i + 0x60)
	}
	fields, err := isotp.Segment(long, 0xAA)
	if err != nil {
		t.Fatal(err)
	}
	var frames []can.Frame
	frames = append(frames, can.MustFrame(0x7E0, []byte{0x02, 0x3E, 0x00, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA}))
	frames = append(frames, framesFromData(0x7E8, fields)...)
	// A flow-control frame interleaves on the request ID.
	frames = append(frames, can.MustFrame(0x7E0, isotp.EncodeFlowControl(isotp.ContinueToSend, 0, 0)))

	msgs, stats := assemble(t, frames)
	if msgs.Len() != 2 {
		t.Fatalf("messages = %d, want 2", msgs.Len())
	}
	if !bytes.Equal(msgs.Payload(0), []byte{0x3E, 0x00}) {
		t.Fatalf("first message = % X", msgs.Payload(0))
	}
	if !bytes.Equal(msgs.Payload(1), long) {
		t.Fatalf("second message = % X", msgs.Payload(1))
	}
	if stats.ISOTPSingle != 1 || stats.ISOTPFirst != 1 || stats.ISOTPFlowControl != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.ISOTPMulti() != stats.ISOTPFirst+stats.ISOTPConsecutive {
		t.Fatal("ISOTPMulti mismatch")
	}
}

func TestAssembleVWTPLearnsChannelFromSetup(t *testing.T) {
	// Channel setup response on 0x201 announces data IDs 0x741 / 0x301.
	setup := can.MustFrame(0x201, []byte{0x00, 0xD0, 0x41, 0x07, 0x01, 0x03, 0x01})
	payload := []byte{0x61, 0x01, 0x01, 0xF1, 0x10}
	fields, err := vwtp.Segment(payload, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	frames := []can.Frame{setup}
	frames = append(frames, framesFromData(0x301, fields)...)
	// An ACK frame must be screened out.
	frames = append(frames, can.MustFrame(0x741, vwtp.EncodeACK(1, true)))

	msgs, stats := assemble(t, frames)
	if msgs.Len() != 1 {
		t.Fatalf("messages = %d, want 1 (stats %+v)", msgs.Len(), stats)
	}
	if !bytes.Equal(msgs.Payload(0), payload) {
		t.Fatalf("payload = % X", msgs.Payload(0))
	}
	if TransportKind(msgs.Transport(0)) != TransportVWTP {
		t.Fatalf("transport = %v", TransportKind(msgs.Transport(0)))
	}
	if stats.VWTPControl < 2 { // setup + ACK
		t.Fatalf("stats = %+v", stats)
	}
	if stats.VWTPLast != 1 {
		t.Fatalf("VWTPLast = %d", stats.VWTPLast)
	}
}

func TestAssembleBMWExtendedAddressing(t *testing.T) {
	payload := []byte{0x62, 0xDB, 0xE5, 0x21, 0x07, 0x99, 0x01, 0x02}
	fields, err := bmwtp.Segment(0xF1, payload, 0)
	if err != nil {
		t.Fatal(err)
	}
	frames := framesFromData(0x629, fields)
	msgs, stats := assemble(t, frames)
	if msgs.Len() != 1 {
		t.Fatalf("messages = %d (stats %+v)", msgs.Len(), stats)
	}
	if TransportKind(msgs.Transport(0)) != TransportBMW || msgs.Addr(0) != 0xF1 {
		t.Fatalf("message transport = %v, addr = %#x", TransportKind(msgs.Transport(0)), msgs.Addr(0))
	}
	if !bytes.Equal(msgs.Payload(0), payload) {
		t.Fatalf("payload = % X", msgs.Payload(0))
	}
	if stats.ISOTPFirst != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestAssembleInterleavedIDs(t *testing.T) {
	// Two multi-frame responses interleaved on different IDs must both
	// reassemble (per-ID state).
	longA := make([]byte, 20)
	longB := make([]byte, 25)
	for i := range longA {
		longA[i] = byte(i)
	}
	for i := range longB {
		longB[i] = byte(0x80 + i)
	}
	fa, _ := isotp.Segment(longA, 0)
	fb, _ := isotp.Segment(longB, 0)
	var frames []can.Frame
	for i := 0; i < len(fa) || i < len(fb); i++ {
		if i < len(fa) {
			frames = append(frames, can.MustFrame(0x701, fa[i]))
		}
		if i < len(fb) {
			frames = append(frames, can.MustFrame(0x703, fb[i]))
		}
	}
	msgs, _ := assemble(t, frames)
	if msgs.Len() != 2 {
		t.Fatalf("messages = %d, want 2", msgs.Len())
	}
	got := map[uint32][]byte{}
	for i := 0; i < msgs.Len(); i++ {
		got[msgs.ID(i)] = msgs.Payload(i)
	}
	if !bytes.Equal(got[0x701], longA) || !bytes.Equal(got[0x703], longB) {
		t.Fatal("interleaved reassembly corrupted")
	}
}

func TestAssembleCountsErrors(t *testing.T) {
	frames := []can.Frame{
		can.MustFrame(0x700, []byte{0x22, 1, 2, 3, 4, 5, 6, 7}), // CF without FF
	}
	_, stats := assemble(t, frames)
	if stats.AssemblyErrors != 1 {
		t.Fatalf("AssemblyErrors = %d", stats.AssemblyErrors)
	}
}

func TestTransportKindString(t *testing.T) {
	if TransportISOTP.String() != "ISO 15765-2" ||
		TransportVWTP.String() != "VW TP 2.0" ||
		TransportBMW.String() != "BMW extended" {
		t.Fatal("transport names")
	}
}

func TestIsRequestClassification(t *testing.T) {
	cases := []struct {
		payload []byte
		want    bool
	}{
		{[]byte{0x22, 0xF4, 0x0D}, true},
		{[]byte{0x62, 0xF4, 0x0D, 0x21}, false},
		{[]byte{0x21, 0x07}, true},
		{[]byte{0x61, 0x07, 0x01, 0xF1, 0x10}, false},
		{[]byte{0x2F, 0x09, 0x50, 0x02}, true},
		{[]byte{0x30, 0x15, 0x03}, true},
		{[]byte{0x7F, 0x22, 0x31}, false},
		{[]byte{0x01, 0x0C}, true},
		{[]byte{0x41, 0x0C, 0x1A, 0xF8}, false},
		{nil, false},
	}
	for _, c := range cases {
		if got := IsRequest(c.payload); got != c.want {
			t.Fatalf("IsRequest(% X) = %v", c.payload, got)
		}
	}
}
