package align

import (
	"strconv"
	"testing"
	"time"

	"dpreverser/internal/can"
	"dpreverser/internal/colstore"
	"dpreverser/internal/faults"
	"dpreverser/internal/isotp"
	"dpreverser/internal/obd"
	"dpreverser/internal/ocr"
)

// FuzzPairing throws arbitrary CAN payloads and OCR texts at the
// OBD-anchored clock aligner. The contract: never panic, and either
// return a usable offset or ErrNoAnchors — even when the traffic is
// damaged mid-transfer and the displayed value is garbage.
func FuzzPairing(f *testing.F) {
	// Seed with a genuine anchor pair: a single-frame OBD vehicle-speed
	// response and the matching displayed value…
	speedResp := []byte{0x04, 0x41, 0x0D, 0x2A, 0x00, 0x00, 0x00, 0x00}
	f.Add(speedResp, "Vehicle Speed", 42.0, uint16(250))
	// …plus the same response mangled by the fault injector.
	inj := faults.New(faults.HeavySpec(), 1)
	for _, fr := range inj.Frames([]can.Frame{can.MustFrame(obd.FirstResponseID, speedResp)}) {
		f.Add(fr.Payload(), "Vehicle Speed", 42.0, uint16(250))
	}
	// …and by the adversarial injector: a multi-frame transfer on the
	// anchor ID draws forged flow control, floods and replays, each of
	// whose frame shapes seeds the corpus.
	long := make([]byte, 24)
	copy(long, speedResp)
	chunks, err := isotp.Segment(long, 0x00)
	if err != nil {
		f.Fatal(err)
	}
	var transfer []can.Frame
	for _, d := range chunks {
		transfer = append(transfer, can.MustFrame(obd.FirstResponseID, d))
	}
	adv := faults.New(faults.AdversarialSpec(), 2)
	for _, fr := range adv.Frames(transfer) {
		f.Add(fr.Payload(), "Vehicle Speed", 42.0, uint16(250))
	}
	f.Add([]byte{0x10, 0xFF}, "", -1e18, uint16(0)) // truncated FF, absurd value

	f.Fuzz(func(t *testing.T, data []byte, label string, value float64, gapMS uint16) {
		frames := colstore.NewFrames(0, len(data))
		at := time.Duration(0)
		for off := 0; off < len(data); off += 8 {
			end := off + 8
			if end > len(data) {
				end = len(data)
			}
			frames.Append(obd.FirstResponseID, at, data[off:end])
			at += 100 * time.Millisecond
		}
		ui := []ocr.Frame{{
			At:         time.Duration(gapMS) * time.Millisecond,
			ScreenName: "obd-live",
			Texts: []ocr.Text{
				{Content: "OBD-II Live Data", X: 40, Y: 16},
				{Content: label, X: 40, Y: 60}, {Content: strconv.FormatFloat(value, 'g', -1, 64), X: 420, Y: 60},
				{Content: label, X: 40, Y: 104}, {Content: "not a number", X: 420, Y: 104},
			},
		}}
		off, err := EstimateOffsetOBDColumnar(frames, ui)
		if err != nil {
			if err != ErrNoAnchors {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		shifted := ApplyOffset(ui, off)
		if len(shifted) != len(ui) {
			t.Fatalf("ApplyOffset changed frame count: %d != %d", len(shifted), len(ui))
		}
	})
}
