package faults

import (
	"reflect"
	"testing"
	"time"

	"dpreverser/internal/can"
	"dpreverser/internal/isotp"
	"dpreverser/internal/vwtp"
)

// transfer builds one clean ISO-TP transfer on id as timestamped frames.
func transfer(id uint32, n int) []can.Frame {
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i)
	}
	chunks, err := isotp.Segment(payload, 0xAA)
	if err != nil {
		panic(err)
	}
	var out []can.Frame
	for i, data := range chunks {
		f := can.MustFrame(id, data)
		f.Timestamp = time.Duration(i) * time.Millisecond
		out = append(out, f)
	}
	return out
}

func TestParseSpecAdversarialPreset(t *testing.T) {
	got, err := ParseSpec("adversarial")
	if err != nil {
		t.Fatal(err)
	}
	want := AdversarialSpec()
	// ParseSpec fills the default reorder window into every spec it
	// returns; normalise before comparing, as the round-trip test does.
	want.ReorderWindow = got.ReorderWindow
	if got != want {
		t.Fatalf("adversarial preset = %+v, want %+v", got, want)
	}
	if !got.Adversarial() || !got.Enabled() {
		t.Fatalf("adversarial preset not enabled: %+v", got)
	}
	back, err := ParseSpec(got.String())
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", got.String(), err)
	}
	if back != got {
		t.Fatalf("round trip %q: got %+v", got.String(), back)
	}
	over, err := ParseSpec("none, fc-starve=1, slow-drip=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if over.FCStarve != 1 || over.SlowDrip != 0.5 {
		t.Fatalf("override spec = %+v", over)
	}
}

func TestAdversarialDeterministic(t *testing.T) {
	in := transfer(0x7E8, 200)
	a := New(AdversarialSpec(), 42)
	b := New(AdversarialSpec(), 42)
	if !reflect.DeepEqual(a.Frames(in), b.Frames(in)) {
		t.Fatal("same spec+seed produced different adversarial captures")
	}
	if !reflect.DeepEqual(a.AttackedIDs(), b.AttackedIDs()) {
		t.Fatal("same spec+seed produced different attack ground truth")
	}
}

func TestFCStarveBurstShape(t *testing.T) {
	in := transfer(0x7E8, 40)
	inj := New(Spec{FCStarve: 1}, 3)
	out := inj.Frames(in)
	if inj.Stats().FCStarveBursts != 1 {
		t.Fatalf("stats = %+v, want one fc-starve burst", inj.Stats())
	}
	// The burst rides directly behind the first frame: three wait states,
	// a zero-block-size max-STmin lockup, an overflow abort.
	if len(out) != len(in)+5 {
		t.Fatalf("out %d frames, want %d", len(out), len(in)+5)
	}
	var fcs []isotp.FlowControl
	for _, f := range out {
		if isotp.Classify(f.Payload()) != isotp.FlowControlFrame {
			continue
		}
		fc, err := isotp.DecodeFlowControl(f.Payload())
		if err != nil {
			t.Fatal(err)
		}
		fcs = append(fcs, fc)
	}
	if len(fcs) != 5 {
		t.Fatalf("forged flow controls = %d, want 5", len(fcs))
	}
	for i := 0; i < 3; i++ {
		if fcs[i].Status != isotp.Wait {
			t.Fatalf("fc[%d] = %+v, want wait state", i, fcs[i])
		}
	}
	if fcs[3].Status != isotp.ContinueToSend || fcs[3].BlockSize != 0 || fcs[3].STmin < 100*time.Millisecond {
		t.Fatalf("fc[3] = %+v, want zero-block-size max-STmin lockup", fcs[3])
	}
	if fcs[4].Status != isotp.Overflow {
		t.Fatalf("fc[4] = %+v, want overflow", fcs[4])
	}
	want := map[uint32][]string{0x7E8: {ClassFCStarvation}}
	if !reflect.DeepEqual(inj.AttackedIDs(), want) {
		t.Fatalf("AttackedIDs = %v, want %v", inj.AttackedIDs(), want)
	}
	// The real transfer still assembles: hostile flow control must not
	// cost the victim its payload.
	assertAssembles(t, out, 40)
}

func TestFFFloodShape(t *testing.T) {
	in := transfer(0x7E8, 40)
	inj := New(Spec{FFFlood: 1}, 3)
	out := inj.Frames(in)
	if inj.Stats().FFFloods != 1 {
		t.Fatalf("stats = %+v, want one flood", inj.Stats())
	}
	if len(out) != len(in)+3 {
		t.Fatalf("out %d frames, want %d", len(out), len(in)+3)
	}
	huge := 0
	for _, f := range out {
		data := f.Payload()
		if isotp.Classify(data) == isotp.FirstFrame {
			if n := int(data[0]&0x0F)<<8 | int(data[1]); n == 0xFFF {
				huge++
			}
		}
	}
	if huge != 3 {
		t.Fatalf("forged near-max first frames = %d, want 3", huge)
	}
	want := map[uint32][]string{0x7E8: {ClassFirstFrameFlood}}
	if !reflect.DeepEqual(inj.AttackedIDs(), want) {
		t.Fatalf("AttackedIDs = %v, want %v", inj.AttackedIDs(), want)
	}
}

func TestInterleaveShape(t *testing.T) {
	in := transfer(0x7E8, 40) // FF + 5 CFs
	inj := New(Spec{Interleave: 1}, 3)
	out := inj.Frames(in)
	if inj.Stats().InterleavedFFs != 1 {
		t.Fatalf("stats = %+v, want one interleaved injection", inj.Stats())
	}
	// One forged competing FF plus one forged out-of-sequence CF, landing
	// right after the victim's first frame.
	if len(out) != len(in)+2 {
		t.Fatalf("out %d frames, want %d", len(out), len(in)+2)
	}
	var lens []int
	for _, f := range out {
		data := f.Payload()
		if isotp.Classify(data) == isotp.FirstFrame {
			lens = append(lens, int(data[0]&0x0F)<<8|int(data[1]))
		}
	}
	// Real FF announces 40; the forgery announces a small competing
	// length that differs from it.
	if len(lens) != 2 || lens[0] != 40 {
		t.Fatalf("first-frame lengths on the wire = %v", lens)
	}
	if lens[1] == 40 {
		t.Fatalf("forged interleave FF announced the victim's length: %v", lens)
	}
	forged := out[2].Payload() // FF, forged FF, forged CF, real CFs…
	if isotp.Classify(forged) != isotp.ConsecutiveFrame || forged[0] != 0x23 {
		t.Fatalf("frame after the forged FF = % X, want an out-of-sequence CF", forged)
	}
	want := map[uint32][]string{0x7E8: {ClassInterleave}}
	if !reflect.DeepEqual(inj.AttackedIDs(), want) {
		t.Fatalf("AttackedIDs = %v, want %v", inj.AttackedIDs(), want)
	}
}

func TestSessionReplayShape(t *testing.T) {
	in := transfer(0x7E8, 40)
	inj := New(Spec{SessionReplay: 1}, 3)
	out := inj.Frames(in)
	if inj.Stats().ReplayedFFs != 2 {
		t.Fatalf("stats = %+v, want two replayed first frames", inj.Stats())
	}
	var ffs []can.Frame
	for _, f := range out {
		if isotp.Classify(f.Payload()) == isotp.FirstFrame {
			ffs = append(ffs, f)
		}
	}
	if len(ffs) != 3 {
		t.Fatalf("first frames on the wire = %d, want original + 2 replays", len(ffs))
	}
	if ffs[1] != ffs[0] || ffs[2] != ffs[0] {
		t.Fatalf("replays are not byte-identical to the original: %v", ffs)
	}
	want := map[uint32][]string{0x7E8: {ClassSessionStarvation}}
	if !reflect.DeepEqual(inj.AttackedIDs(), want) {
		t.Fatalf("AttackedIDs = %v, want %v", inj.AttackedIDs(), want)
	}
}

func TestSlowDripSuppressesConsecutiveFrames(t *testing.T) {
	in := transfer(0x7E8, 40)
	inj := New(Spec{SlowDrip: 1}, 3)
	out := inj.Frames(in)
	st := inj.Stats()
	if st.DrippedTransfers != 1 || st.DrippedFrames != len(in)-1 {
		t.Fatalf("stats = %+v, want one dripped transfer, %d dripped frames", st, len(in)-1)
	}
	if len(out) != 1 || isotp.Classify(out[0].Payload()) != isotp.FirstFrame {
		t.Fatalf("out = %v, want only the first frame to survive", out)
	}
	want := map[uint32][]string{0x7E8: {ClassSlowDrip}}
	if !reflect.DeepEqual(inj.AttackedIDs(), want) {
		t.Fatalf("AttackedIDs = %v, want %v", inj.AttackedIDs(), want)
	}
}

func TestAdversarialBMWPrefixed(t *testing.T) {
	payload := make([]byte, 40)
	chunks, err := isotp.SegmentExtended(0x12, payload, 0xFF)
	if err != nil {
		t.Fatal(err)
	}
	var in []can.Frame
	for _, data := range chunks {
		in = append(in, can.MustFrame(0x612, data))
	}
	inj := New(Spec{FCStarve: 1, FFFlood: 1}, 3)
	out := inj.Frames(in)
	st := inj.Stats()
	if st.FCStarveBursts != 1 || st.FFFloods != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Every forged frame carries the victim's extended-addressing byte.
	for _, f := range out {
		if f.Payload()[0] != 0x12 {
			t.Fatalf("forged frame lost the address prefix: % X", f.Payload())
		}
	}
}

func TestAdversarialVWTPNotReadyBurst(t *testing.T) {
	payload := make([]byte, 40)
	chunks, err := vwtp.Segment(payload, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	setup := can.MustFrame(vwtp.BroadcastID+0x01, []byte{0x00, 0xD0, 0x40, 0x07, 0x40, 0x07, 0x01})
	in := []can.Frame{setup}
	for _, data := range chunks {
		in = append(in, can.MustFrame(0x740, data))
	}
	inj := New(Spec{FCStarve: 1}, 3)
	out := inj.Frames(in)
	if inj.Stats().FCStarveBursts != 1 {
		t.Fatalf("stats = %+v, want one not-ready burst", inj.Stats())
	}
	if len(out) != len(in)+3 {
		t.Fatalf("out %d frames, want %d", len(out), len(in)+3)
	}
	notReady := 0
	for _, f := range out {
		if f.ID == 0x740 && vwtp.IsNotReady(f.Payload()) {
			notReady++
		}
	}
	if notReady != 3 {
		t.Fatalf("not-ready ACKs = %d, want 3", notReady)
	}
	want := map[uint32][]string{0x740: {ClassFCStarvation}}
	if !reflect.DeepEqual(inj.AttackedIDs(), want) {
		t.Fatalf("AttackedIDs = %v, want %v", inj.AttackedIDs(), want)
	}
}

// assertAssembles reassembles the capture and fails unless a message of
// the wanted length comes out.
func assertAssembles(t *testing.T, frames []can.Frame, want int) {
	t.Helper()
	var r isotp.Reassembler
	for _, f := range frames {
		if isotp.Classify(f.Payload()) == isotp.FlowControlFrame {
			continue // the assembler screens these out the same way
		}
		if res, _ := r.Feed(f.Payload()); len(res.Message) == want {
			return
		}
	}
	t.Fatalf("capture no longer assembles a %d-byte message", want)
}
