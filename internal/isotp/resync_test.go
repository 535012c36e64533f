package isotp

import (
	"bytes"
	"testing"

	"dpreverser/internal/telemetry"
)

// fill builds an n-byte payload of a recognisable fill value.
func fill(n int, v byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = v
	}
	return p
}

// transfer segments payload in mode m and returns the frames as they
// appear on the wire.
func transfer(t *testing.T, m addressing, payload []byte) [][]byte {
	t.Helper()
	frames, err := m.segment(payload, 0xAA)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// wire puts the mode's address byte, if any, in front of data.
func (m addressing) wire(data ...byte) []byte {
	if m.extended {
		return append([]byte{0x12}, data...)
	}
	return data
}

// TestReassemblerResync is the fault-model table: each case is a damaged
// frame sequence on one arbitration ID; the reassembler must salvage what
// it can, discard what it cannot, resynchronize on the next first frame,
// and classify every error through the telemetry Reason taxonomy. 17-byte
// payloads are a first frame and two consecutive frames in either
// addressing mode.
func TestReassemblerResync(t *testing.T) { reassemblerResync(t, modes[0]) }

// TestReassemblerResyncExtended runs the same table under extended
// addressing, the address byte stripped before the reassembler sees a
// frame.
func TestReassemblerResyncExtended(t *testing.T) { reassemblerResync(t, modes[1]) }

func reassemblerResync(t *testing.T, m addressing) {
	payloadA := fill(17, 0x0A)
	payloadB := fill(17, 0x0B)

	cases := []struct {
		name   string
		frames func(t *testing.T) [][]byte
		// want are the payloads expected to survive, in order.
		want [][]byte
		// reasons are the expected telemetry Reason counts.
		reasons map[string]int
	}{
		{
			name: "duplicate consecutive frame is skipped and the transfer salvaged",
			frames: func(t *testing.T) [][]byte {
				fs := transfer(t, m, payloadA) // FF, CF1, CF2
				return [][]byte{fs[0], fs[1], fs[1], fs[2]}
			},
			want:    [][]byte{payloadA},
			reasons: map[string]int{"duplicate-frame": 1},
		},
		{
			name: "truncated first frame is rejected; next transfer resyncs",
			frames: func(t *testing.T) [][]byte {
				fs := transfer(t, m, payloadB)
				return append([][]byte{m.wire(0x10)}, fs...)
			},
			want:    [][]byte{payloadB},
			reasons: map[string]int{"truncated-frame": 1},
		},
		{
			name: "frame with no PCI (an address byte alone) is rejected as truncated",
			frames: func(t *testing.T) [][]byte {
				return append([][]byte{m.wire()}, transfer(t, m, payloadA)...)
			},
			want:    [][]byte{payloadA},
			reasons: map[string]int{"truncated-frame": 1},
		},
		{
			name: "out-of-order consecutive frame discards the transfer; resync on next first frame",
			frames: func(t *testing.T) [][]byte {
				a := transfer(t, m, payloadA)
				b := transfer(t, m, payloadB)
				// CF1 of A is lost: CF2 arrives out of order (discard),
				// CF... after the abort is unexpected, then B assembles.
				return append([][]byte{a[0], a[2]}, b...)
			},
			want:    [][]byte{payloadB},
			reasons: map[string]int{"bad-sequence": 1},
		},
		{
			name: "interleaved sessions on one arbitration ID: new first frame wins",
			frames: func(t *testing.T) [][]byte {
				a := transfer(t, m, payloadA)
				b := transfer(t, m, payloadB)
				// A's transfer is cut off by B's first frame; A's stray
				// consecutive frames arrive after B completes.
				return [][]byte{a[0], a[1], b[0], b[1], b[2], a[2]}
			},
			want:    [][]byte{payloadB},
			reasons: map[string]int{"unexpected-frame": 1},
		},
		{
			name: "duplicated first frame restarts the transfer in place",
			frames: func(t *testing.T) [][]byte {
				fs := transfer(t, m, payloadA)
				return [][]byte{fs[0], fs[0], fs[1], fs[2]}
			},
			want:    [][]byte{payloadA},
			reasons: map[string]int{},
		},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			errs := reg.CounterVec(telemetry.MetricTransportErrors, "", "transport", "reason")
			r := m.reassembler()
			var got [][]byte
			for _, f := range c.frames(t) {
				res, err := r.Feed(m.strip(f))
				if err != nil {
					errs.With("isotp", Reason(err)).Inc()
				}
				if res.Message != nil {
					got = append(got, res.Message)
				}
			}
			if len(got) != len(c.want) {
				t.Fatalf("assembled %d messages, want %d", len(got), len(c.want))
			}
			for i := range got {
				if !bytes.Equal(got[i], c.want[i]) {
					t.Fatalf("message %d = % X, want % X", i, got[i], c.want[i])
				}
			}
			total := 0
			for reason, n := range c.reasons {
				if v := errs.With("isotp", reason).Value(); v != float64(n) {
					t.Errorf("reason %q counter = %v, want %d", reason, v, n)
				}
				total += n
			}
			if r.Errors() < total {
				t.Errorf("Errors() = %d, want at least %d", r.Errors(), total)
			}
		})
	}
}

// TestReassemblerDuplicateDoesNotAbort pins the salvage contract: the
// duplicate error is reported (for metrics) but the transfer stays alive.
func TestReassemblerDuplicateDoesNotAbort(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			fs := transfer(t, m, fill(17, 0x5A))
			r := m.reassembler()
			if _, err := r.Feed(m.strip(fs[0])); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Feed(m.strip(fs[1])); err != nil {
				t.Fatal(err)
			}
			_, err := r.Feed(m.strip(fs[1]))
			if Reason(err) != "duplicate-frame" {
				t.Fatalf("err = %v, want duplicate-frame", err)
			}
			if !r.InFlight() {
				t.Fatal("duplicate aborted the transfer")
			}
			res, err := r.Feed(m.strip(fs[2]))
			if err != nil || res.Message == nil {
				t.Fatalf("transfer did not complete after duplicate: res=%+v err=%v", res, err)
			}
		})
	}
}
