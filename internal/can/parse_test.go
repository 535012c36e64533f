package can

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dpreverser/internal/sim"
)

func TestParseDumpLine(t *testing.T) {
	for _, tc := range []struct {
		stamp string
		want  time.Duration
	}{
		{"000001.500000", 1500 * time.Millisecond},
		// 2.000002 has no exact float64; the stamp still lands on whole
		// microseconds rather than truncating to 2.000001999 s.
		{"00002.000002", 2*time.Second + 2*time.Microsecond},
	} {
		f, err := ParseDumpLine("(" + tc.stamp + ") 7E0#021003")
		if err != nil {
			t.Fatal(err)
		}
		if f.ID != 0x7E0 || f.Timestamp != tc.want {
			t.Fatalf("(%s): frame = %+v, want timestamp %v", tc.stamp, f, tc.want)
		}
		if f.Len != 3 || f.Data[1] != 0x10 {
			t.Fatalf("payload = % X", f.Payload())
		}
	}
}

func TestParseDumpLineHardwareFormat(t *testing.T) {
	// Real candump: "(1436509052.249713) vcan0 044#2A366C2BBA".
	f, err := ParseDumpLine("(1436509052.249713) vcan0 044#2A366C2BBA")
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 0x44 || f.Len != 5 {
		t.Fatalf("frame = %+v", f)
	}
}

func TestParseDumpLineExtendedID(t *testing.T) {
	f, err := ParseDumpLine("(0.1) 18DB33F1#0102")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Extended || f.ID != 0x18DB33F1 {
		t.Fatalf("frame = %+v", f)
	}
}

func TestParseDumpLineErrors(t *testing.T) {
	for _, line := range []string{
		"7E0#01",                               // no timestamp
		"(x) 7E0#01",                           // bad timestamp
		"(0.1) 7E0",                            // no '#'
		"(0.1) ZZZ#01",                         // bad id
		"(0.1) 7E0#0",                          // odd hex
		"(0.1) 7E0#" + strings.Repeat("00", 9), // too long
		"(-1) 7E0#01",                          // negative timestamp
		"(NaN) 7E0#01",                         // non-finite timestamp
		"(1e300) 7E0#01",                       // timestamp past 2^31 s
	} {
		if _, err := ParseDumpLine(line); err == nil {
			t.Errorf("line %q parsed", line)
		}
	}
	if _, err := ParseDumpLine("7E0#01"); !errors.Is(err, ErrBadDumpLine) {
		t.Fatalf("err = %v", err)
	}
}

// parseDump parses Dump's output line by line with ParseDumpLine.
func parseDump(text string) ([]Frame, error) {
	var out []Frame
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		f, err := ParseDumpLine(line)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// Property: Dump → ParseDumpLine round-trips frames (ID, payload,
// timestamp to microsecond precision).
func TestDumpParseRoundTripProperty(t *testing.T) {
	f := func(id uint16, data []byte, ts uint32) bool {
		if len(data) > 8 {
			data = data[:8]
		}
		fr, err := NewFrame(uint32(id)&0x7FF, data)
		if err != nil {
			return false
		}
		fr.Timestamp = time.Duration(ts) * time.Microsecond
		text := Dump([]Frame{fr})
		parsed, err := parseDump(text)
		if err != nil || len(parsed) != 1 {
			return false
		}
		got := parsed[0]
		if got.ID != fr.ID || got.Len != fr.Len {
			return false
		}
		for i := 0; i < fr.Len; i++ {
			if got.Data[i] != fr.Data[i] {
				return false
			}
		}
		diff := got.Timestamp - fr.Timestamp
		if diff < 0 {
			diff = -diff
		}
		return diff <= time.Microsecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDumpParseRoundTripLiveCapture(t *testing.T) {
	clock := sim.NewClock(0)
	bus := NewBus(clock)
	s := NewSniffer(bus, nil)
	for i := 0; i < 10; i++ {
		bus.Send(MustFrame(uint32(0x700+i), []byte{byte(i), 0x22}))
		clock.Advance(137 * time.Millisecond)
	}
	text := Dump(s.Frames())
	parsed, err := parseDump(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 10 {
		t.Fatalf("parsed %d frames", len(parsed))
	}
	for i, f := range parsed {
		if f.ID != uint32(0x700+i) {
			t.Fatalf("frame %d id = %#x", i, f.ID)
		}
	}
}
