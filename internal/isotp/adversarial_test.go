package isotp_test

import (
	"bytes"
	"testing"

	"dpreverser/internal/can"
	"dpreverser/internal/faults"
	"dpreverser/internal/isotp"
)

// wireMode is one addressing mode as the fault injector sees it: normal
// addressing on 0x7E8, or extended addressing to ECU 0x12 on 0x612, an ID
// in the extended range, so the injector address-prefixes its forgeries.
type wireMode struct {
	name     string
	id       uint32
	extended bool
}

var wireModes = []wireMode{{"normal", 0x7E8, false}, {"extended", 0x612, true}}

// segment splits payload into this mode's wire frames.
func (m wireMode) segment(t testing.TB, payload []byte) [][]byte {
	t.Helper()
	chunks, err := isotp.Segment(payload, 0xAA)
	if m.extended {
		chunks, err = isotp.SegmentExtended(0x12, payload, 0xAA)
	}
	if err != nil {
		t.Fatal(err)
	}
	return chunks
}

// feeder returns a reassembler for this mode and a function feeding it
// one wire frame, address byte stripped under extended addressing.
func (m wireMode) feeder() (*isotp.Reassembler, func([]byte) (isotp.Result, error)) {
	r := &isotp.Reassembler{}
	if m.extended {
		r.MinMultiFrameLen = 7
	}
	return r, func(data []byte) (isotp.Result, error) {
		if m.extended && len(data) > 0 {
			data = data[1:]
		}
		return r.Feed(data)
	}
}

// mangle runs chunks through a fault injector with spec and seed.
func (m wireMode) mangle(chunks [][]byte, spec faults.Spec, seed int64) []can.Frame {
	var in []can.Frame
	for _, d := range chunks {
		in = append(in, can.MustFrame(m.id, d))
	}
	return faults.New(spec, seed).Frames(in)
}

// attacked runs one clean 40-byte transfer through the injector with a
// single attack class saturated.
func (m wireMode) attacked(t *testing.T, spec faults.Spec) []can.Frame {
	t.Helper()
	payload := make([]byte, 40)
	for i := range payload {
		payload[i] = byte(i)
	}
	return m.mangle(m.segment(t, payload), spec, 7)
}

// TestAdversarialResync feeds each attack class's output followed by a
// clean transfer under normal addressing: the reassembler must never
// stall — whatever the attack left in flight, the next genuine transfer
// assembles, and every error along the way carries a stable Reason.
func TestAdversarialResync(t *testing.T) { adversarialResync(t, wireModes[0]) }

// TestAdversarialResyncExtended runs the same attacks under extended
// addressing, where the injector address-prefixes its forgeries.
func TestAdversarialResyncExtended(t *testing.T) { adversarialResync(t, wireModes[1]) }

func adversarialResync(t *testing.T, m wireMode) {
	cases := []struct {
		name string
		spec faults.Spec
	}{
		{"fc-starve", faults.Spec{FCStarve: 1}},
		{"ff-flood", faults.Spec{FFFlood: 1}},
		{"interleave", faults.Spec{Interleave: 1}},
		{"session-replay", faults.Spec{SessionReplay: 1}},
		{"slow-drip", faults.Spec{SlowDrip: 1}},
	}
	probe := make([]byte, 24)
	for i := range probe {
		probe[i] = byte(0x80 + i)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cleanChunks := m.segment(t, probe)
			_, feed := m.feeder()
			deliver := func(data []byte) []byte {
				res, err := feed(data)
				if err != nil && isotp.Reason(err) == "" {
					t.Fatalf("unclassified error: %v", err)
				}
				return res.Message
			}
			for _, f := range m.attacked(t, tc.spec) {
				if msg := deliver(f.Payload()); len(msg) > 0xFFF {
					t.Fatalf("message longer than announceable: %d", len(msg))
				}
			}
			var got []byte
			for _, d := range cleanChunks {
				if msg := deliver(d); msg != nil {
					got = append([]byte(nil), msg...)
				}
			}
			if !bytes.Equal(got, probe) {
				t.Fatalf("clean transfer after %s assembled % X, want % X", tc.name, got, probe)
			}
		})
	}
}

// TestFCStarveVictimSurvives: forged flow control is receiver-to-sender
// traffic, so the reassembler (which models the receiver) ignores it and
// the attacked transfer itself still assembles.
func TestFCStarveVictimSurvives(t *testing.T) {
	for _, m := range wireModes {
		t.Run(m.name, func(t *testing.T) {
			_, feed := m.feeder()
			var got []byte
			for _, f := range m.attacked(t, faults.Spec{FCStarve: 1}) {
				res, err := feed(f.Payload())
				if err != nil {
					t.Fatalf("hostile flow control caused a reassembly error: %v", err)
				}
				if res.Message != nil {
					got = res.Message
				}
			}
			if len(got) != 40 {
				t.Fatalf("victim transfer assembled %d bytes, want 40", len(got))
			}
		})
	}
}

// TestResetEvictsPendingState: Reset mid-transfer drops in-flight state
// without touching counters, and the next transfer assembles from idle.
func TestResetEvictsPendingState(t *testing.T) {
	payload := make([]byte, 40)
	for _, m := range wireModes {
		t.Run(m.name, func(t *testing.T) {
			chunks := m.segment(t, payload)
			r, feed := m.feeder()
			if _, err := feed(chunks[0]); err != nil {
				t.Fatal(err)
			}
			if !r.InFlight() {
				t.Fatal("first frame did not open a transfer")
			}
			errsBefore, doneBefore := r.Errors(), r.Completed()
			r.Reset()
			if r.InFlight() {
				t.Fatal("Reset left a transfer in flight")
			}
			if r.Errors() != errsBefore || r.Completed() != doneBefore {
				t.Fatal("Reset disturbed the counters")
			}
			for _, d := range chunks {
				res, err := feed(d)
				if err != nil {
					t.Fatal(err)
				}
				if res.Message != nil && len(res.Message) != 40 {
					t.Fatalf("post-Reset transfer assembled %d bytes", len(res.Message))
				}
			}
			if r.Completed() != doneBefore+1 {
				t.Fatal("transfer after Reset did not complete")
			}
		})
	}
}
