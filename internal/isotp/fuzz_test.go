package isotp_test

import (
	"testing"

	"dpreverser/internal/can"
	"dpreverser/internal/faults"
	"dpreverser/internal/isotp"
)

// FuzzAssemble feeds arbitrary 8-byte frame sequences to the reassembler
// under normal addressing. The contract under fuzzing: never panic,
// classify every error with a stable Reason, and never hand back a
// message longer than a first frame can announce (12-bit length).
func FuzzAssemble(f *testing.F) {
	fuzzAssemble(f, wireModes[0], [][]byte{{0x10}, {0x21, 0x01, 0x02}}) // truncated first frame, orphan consecutive frame
}

// FuzzAssembleExtended holds the same contract under extended addressing,
// the address byte stripped from every frame before the reassembler sees
// it.
func FuzzAssembleExtended(f *testing.F) {
	fuzzAssemble(f, wireModes[1], [][]byte{{0x12}, {0x12, 0x10}}) // address byte only, truncated first frame after it
}

// fuzzAssemble seeds the corpus in mode m with the clean transfer, then
// mangled seeds (the fault injector's output is exactly the damage class
// the resynchronization logic exists for), then adversarial seeds (each
// attack class's forged-frame shapes: hostile flow control, oversize
// first-frame floods, interleaved restarts, byte-identical replays,
// dripped transfers; address-prefixed on the extended ID), then the
// hand-made edge frames, and runs the fuzz contract.
func fuzzAssemble(f *testing.F, m wireMode, edges [][]byte) {
	payload := make([]byte, 40)
	for i := range payload {
		payload[i] = byte(i)
	}
	clean := m.segment(f, payload)
	f.Add(flatten(clean))
	for _, spec := range []faults.Spec{faults.HeavySpec(), faults.AdversarialSpec()} {
		for seed := int64(1); seed <= 3; seed++ {
			f.Add(flatten(payloads(m.mangle(clean, spec, seed))))
		}
	}
	for _, edge := range edges {
		f.Add(edge)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		_, feed := m.feeder()
		for off := 0; off < len(data); off += 8 {
			end := min(off+8, len(data))
			res, err := feed(data[off:end])
			if err != nil {
				if isotp.Reason(err) == "" {
					t.Fatalf("unclassified error: %v", err)
				}
				continue
			}
			if len(res.Message) > 0xFFF {
				t.Fatalf("message longer than a first frame can announce: %d", len(res.Message))
			}
		}
	})
}

func payloads(frames []can.Frame) [][]byte {
	out := make([][]byte, len(frames))
	for i, fr := range frames {
		out[i] = fr.Payload()
	}
	return out
}

func flatten(frames [][]byte) []byte {
	var out []byte
	for _, fr := range frames {
		out = append(out, fr...)
	}
	return out
}
