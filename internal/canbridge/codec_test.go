package canbridge

import (
	"reflect"
	"testing"
	"time"

	"dpreverser/internal/can"
)

// stamped builds a frame with a timestamp, for traffic-line cases.
func stamped(id uint32, data []byte, at time.Duration) can.Frame {
	f := can.MustFrame(id, data)
	f.Timestamp = at
	return f
}

// roundTripCases, toleratedLines and badLines are the codec's fixed
// cases, and FuzzParse's seed corpus.
var roundTripCases = []struct {
	name string
	msg  Message
	line string
}{
	{"greeting", MsgHello{Subject: "canbridge", Version: 1}, "HELLO canbridge 1"},
	{"token-hello", MsgHello{Subject: "job-42-abc"}, "HELLO job-42-abc"},
	{"send", MsgSend{Frame: can.MustFrame(0x7E0, []byte{0x02, 0x10, 0x03})}, "SEND 7E0#021003"},
	{"send-empty", MsgSend{Frame: can.MustFrame(0x123, nil)}, "SEND 123#"},
	{"advance", MsgAdvance{D: 500 * time.Millisecond}, "ADVANCE 500"},
	{"advance-zero", MsgAdvance{}, "ADVANCE 0"},
	{"advance-max", MsgAdvance{D: maxAdvanceMS * time.Millisecond}, "ADVANCE 9223372036854"},
	{"ok", MsgOK{}, "OK"},
	{"err", MsgErr{Msg: "no such token"}, "ERR no such token"},
	{"frame", MsgFrame{Frame: stamped(0x7E8, []byte{0x06, 0x50}, 1500*time.Millisecond)},
		"(00001.500000) 7E8#0650"}, // %012.6f, matching can.Dump
}

// maxAdvanceMS is the largest ADVANCE argument whose Duration does not
// overflow.
const maxAdvanceMS = 9223372036854

var toleratedLines = []struct {
	line string
	want Message
}{
	{"  send 7E0#0100  ", MsgSend{Frame: can.MustFrame(0x7E0, []byte{0x01, 0x00})}},
	{"advance 25", MsgAdvance{D: 25 * time.Millisecond}},
	{"ok", MsgOK{}},
	{"ERR", MsgErr{}},
}

var badLines = []string{
	"", "NOPE", "SEND zzz", "SEND", "ADVANCE xyz", "ADVANCE -5",
	"HELLO", "HELLO canbridge x", "OK extra", "(garbage) 123#00",
	// ms·1e6 past math.MaxInt64 once wrapped to a negative Duration.
	"ADVANCE 9223372036855", "ADVANCE 18446744073709", "ADVANCE 9223372036854775807",
}

func TestCodecRoundTrip(t *testing.T) {
	for _, tc := range roundTripCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Format(tc.msg); got != tc.line {
				t.Fatalf("Format = %q, want %q", got, tc.line)
			}
			parsed, err := Parse(tc.line)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tc.line, err)
			}
			if !reflect.DeepEqual(parsed, tc.msg) {
				t.Fatalf("Parse(%q) = %#v, want %#v", tc.line, parsed, tc.msg)
			}
		})
	}
}

func TestCodecParseTolerance(t *testing.T) {
	// Historical behaviour the codec must keep: verbs are
	// case-insensitive and surrounding whitespace is ignored.
	for _, tc := range toleratedLines {
		got, err := Parse(tc.line)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.line, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("Parse(%q) = %#v, want %#v", tc.line, got, tc.want)
		}
	}
}

func TestCodecParseErrors(t *testing.T) {
	for _, line := range badLines {
		if msg, err := Parse(line); err == nil {
			t.Fatalf("Parse(%q) = %#v, want error", line, msg)
		}
	}
}

// TestCodecSendStripsTimestamp pins the wire contract: SEND carries no
// timestamp, so a stamped frame round-trips with Timestamp zeroed and the
// receiver re-stamps from its own clock.
func TestCodecSendStripsTimestamp(t *testing.T) {
	f := stamped(0x700, []byte{0x01}, 3*time.Second)
	line := Format(MsgSend{Frame: f})
	parsed, err := Parse(line)
	if err != nil {
		t.Fatal(err)
	}
	if got := parsed.(MsgSend).Frame.Timestamp; got != 0 {
		t.Fatalf("parsed SEND timestamp = %v, want 0", got)
	}
}

// FuzzParse: Parse never panics, never yields a negative ADVANCE, and
// Format of anything it parses parses back to an equal message.
func FuzzParse(f *testing.F) {
	for _, tc := range roundTripCases {
		f.Add(tc.line)
	}
	for _, tc := range toleratedLines {
		f.Add(tc.line)
	}
	for _, line := range badLines {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		msg, err := Parse(line)
		if err != nil {
			return
		}
		if adv, ok := msg.(MsgAdvance); ok && adv.D < 0 {
			t.Fatalf("Parse(%q) = negative ADVANCE %v", line, adv.D)
		}
		again, err := Parse(Format(msg))
		if err != nil {
			t.Fatalf("Parse(Format(%#v)) = %q: %v", msg, Format(msg), err)
		}
		if !reflect.DeepEqual(again, msg) {
			t.Fatalf("Parse(%q) = %#v, but its Format %q parses to %#v", line, msg, Format(msg), again)
		}
	})
}
