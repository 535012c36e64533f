package faults

import (
	"reflect"
	"testing"
	"time"

	"dpreverser/internal/can"
	"dpreverser/internal/isotp"
	"dpreverser/internal/ocr"
	"dpreverser/internal/telemetry"
)

func TestParseSpecPresets(t *testing.T) {
	got, err := ParseSpec("default")
	if err != nil {
		t.Fatal(err)
	}
	if got != DefaultSpec() {
		t.Fatalf("default preset = %+v, want %+v", got, DefaultSpec())
	}
	got, err = ParseSpec("none")
	if err != nil {
		t.Fatal(err)
	}
	if got.Enabled() {
		t.Fatalf("none preset enabled: %+v", got)
	}
}

func TestParseSpecOverrides(t *testing.T) {
	s, err := ParseSpec("default, flip=0.5, jitter=2ms, window=7, ocr-sign=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if s.Drop != 0.05 || s.BitFlip != 0.5 || s.Jitter != 2*time.Millisecond ||
		s.ReorderWindow != 7 || s.OCRSign != 0.25 {
		t.Fatalf("override spec = %+v", s)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"bogus", "drop=x", "drop=1.5", "window=0", "jitter=-1ms", "unknown=0.1",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	for _, s := range []Spec{DefaultSpec(), HeavySpec(), {}} {
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s.String(), err)
		}
		// The zero spec renders as "none", which parses back with the
		// default reorder window filled in; normalise before comparing.
		if s.ReorderWindow == 0 {
			s.ReorderWindow = back.ReorderWindow
		}
		if back != s {
			t.Fatalf("round trip %q: got %+v want %+v", s.String(), back, s)
		}
	}
}

// burst builds a deterministic test capture: n single frames plus one
// multi-frame ISO-TP transfer per 8 frames.
func burst(n int) []can.Frame {
	var out []can.Frame
	at := time.Duration(0)
	payload := make([]byte, 20)
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := 0; i < n; i++ {
		at += time.Millisecond
		if i%8 == 7 {
			frames, _ := isotp.Segment(payload, 0xAA)
			for _, data := range frames {
				f := can.MustFrame(0x7E8, data)
				f.Timestamp = at
				out = append(out, f)
				at += time.Millisecond
			}
			continue
		}
		f := can.MustFrame(0x7E0, []byte{0x02, 0x10, byte(i), 0xAA, 0xAA, 0xAA, 0xAA, 0xAA})
		f.Timestamp = at
		out = append(out, f)
	}
	return out
}

func TestFramesDeterministic(t *testing.T) {
	in := burst(400)
	a := New(HeavySpec(), 42).Frames(in)
	b := New(HeavySpec(), 42).Frames(in)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec+seed produced different captures")
	}
	c := New(HeavySpec(), 43).Frames(in)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical heavy-fault captures")
	}
}

func TestFramesZeroSpecIsIdentity(t *testing.T) {
	in := burst(100)
	inj := New(Spec{}, 1)
	out := inj.Frames(in)
	if !reflect.DeepEqual(out, in) {
		t.Fatal("zero spec modified the capture")
	}
	if inj.Stats().Total() != 0 {
		t.Fatalf("zero spec injected faults: %+v", inj.Stats())
	}
}

func TestDropRate(t *testing.T) {
	in := burst(2000)
	inj := New(Spec{Drop: 0.05}, 7)
	out := inj.Frames(in)
	st := inj.Stats()
	if st.Dropped == 0 || len(out) != len(in)-st.Dropped {
		t.Fatalf("dropped %d, in %d, out %d", st.Dropped, len(in), len(out))
	}
	rate := float64(st.Dropped) / float64(len(in))
	if rate < 0.02 || rate > 0.10 {
		t.Fatalf("drop rate %.3f far from 0.05", rate)
	}
}

func TestTruncateSuppressesConsecutiveFrames(t *testing.T) {
	frames, err := isotp.Segment(make([]byte, 40), 0xAA)
	if err != nil {
		t.Fatal(err)
	}
	var in []can.Frame
	for i, data := range frames {
		f := can.MustFrame(0x7E8, data)
		f.Timestamp = time.Duration(i) * time.Millisecond
		in = append(in, f)
	}
	inj := New(Spec{Truncate: 1}, 3)
	out := inj.Frames(in)
	st := inj.Stats()
	if st.TruncatedTransfers != 1 || st.TruncatedFrames == 0 {
		t.Fatalf("stats = %+v, want one truncated transfer", st)
	}
	if len(out) != len(in)-st.TruncatedFrames {
		t.Fatalf("out %d, in %d, truncated %d", len(out), len(in), st.TruncatedFrames)
	}
	// The first frame survives; reassembly of the remainder must fail.
	var r isotp.Reassembler
	for _, f := range out {
		if res, _ := r.Feed(f.Payload()); res.Message != nil {
			t.Fatal("truncated transfer still assembled")
		}
	}
}

func TestAbortReinjectsFirstFrame(t *testing.T) {
	frames, _ := isotp.Segment(make([]byte, 40), 0xAA)
	var in []can.Frame
	for _, data := range frames {
		in = append(in, can.MustFrame(0x7E8, data))
	}
	inj := New(Spec{Abort: 1}, 3)
	out := inj.Frames(in)
	if inj.Stats().AbortedTransfers != 1 {
		t.Fatalf("stats = %+v", inj.Stats())
	}
	ffs := 0
	for _, f := range out {
		if isotp.Classify(f.Payload()) == isotp.FirstFrame {
			ffs++
		}
	}
	if ffs != 2 {
		t.Fatalf("first frames on the wire = %d, want 2 (original + re-injection)", ffs)
	}
	if len(out) != len(in)+1 {
		t.Fatalf("out %d, want %d", len(out), len(in)+1)
	}
}

func TestReorderStaysWithinWindowAndFlushes(t *testing.T) {
	in := burst(500)
	inj := New(Spec{Reorder: 0.2, ReorderWindow: 4}, 11)
	out := inj.Frames(in)
	if len(out) != len(in) {
		t.Fatalf("reorder changed frame count: %d != %d", len(out), len(in))
	}
	if inj.Stats().Reordered == 0 {
		t.Fatal("nothing reordered at 20%")
	}
	// Every input frame must still be present (multiset equality via
	// counting by rendered identity).
	count := map[can.Frame]int{}
	for _, f := range in {
		count[f]++
	}
	for _, f := range out {
		count[f]--
	}
	for f, n := range count {
		if n != 0 {
			t.Fatalf("frame %v count off by %d after reorder", f, n)
		}
	}
}

func TestBitFlipChangesExactlyOneBit(t *testing.T) {
	in := burst(1)
	inj := New(Spec{BitFlip: 1}, 5)
	out := inj.Frames(in)
	if len(out) != 1 || inj.Stats().BitFlipped != 1 {
		t.Fatalf("out=%d stats=%+v", len(out), inj.Stats())
	}
	diff := 0
	for i := 0; i < in[0].Len; i++ {
		x := in[0].Data[i] ^ out[0].Data[i]
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("bit distance = %d, want 1", diff)
	}
}

func uiFixture() []ocr.Frame {
	return []ocr.Frame{
		{At: time.Second, ScreenName: "live-data", Texts: []ocr.Text{
			{Content: "Data Stream", X: 40, Y: 16},
			{Content: "Engine speed", X: 40, Y: 60}, {Content: "1250.50", X: 420, Y: 60}, {Content: "rpm", X: 600, Y: 60},
			{Content: "Coolant", X: 40, Y: 104}, {Content: "-4.00", X: 420, Y: 104}, {Content: "°C", X: 600, Y: 104},
			{Content: "State", X: 40, Y: 148}, {Content: "On", X: 420, Y: 148},
		}},
	}
}

// uiValues lays out frame f and returns its rows' value texts.
func uiValues(f ocr.Frame) []string {
	var out []string
	for _, r := range ocr.Layout(f.Texts, nil) {
		out = append(out, r.Value)
	}
	return out
}

func TestUIFramesOCRNoise(t *testing.T) {
	inj := New(Spec{OCRDecimal: 1}, 9)
	in := uiFixture()
	out := inj.UIFrames(in)
	if got, want := uiValues(out[0]), []string{"125050", "-400", "On"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("values = %q, want %q", got, want)
	}
	if r := ocr.Layout(out[0].Texts, nil)[0]; !r.ParseOK || r.Parsed != 125050 {
		t.Fatalf("corrupted row = %+v", r)
	}
	st := inj.Stats()
	if st.DecimalDrops != 2 || st.CorruptedValues != 2 || st.Values != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Input untouched.
	if !reflect.DeepEqual(in, uiFixture()) {
		t.Fatal("input frames mutated")
	}
}

func TestUIFramesSignFlip(t *testing.T) {
	inj := New(Spec{OCRSign: 1}, 9)
	out := inj.UIFrames(uiFixture())
	if got, want := uiValues(out[0]), []string{"-1250.50", "4.00", "On"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("values = %q, want %q", got, want)
	}
}

func TestUIFramesDeterministic(t *testing.T) {
	spec := Spec{OCRDigit: 0.5, OCRDecimal: 0.2, OCRSign: 0.1}
	a := New(spec, 21).UIFrames(uiFixture())
	b := New(spec, 21).UIFrames(uiFixture())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("OCR noise not deterministic")
	}
}

func TestPublish(t *testing.T) {
	reg := telemetry.NewRegistry()
	inj := New(Spec{Drop: 0.5}, 1)
	inj.Frames(burst(200))
	inj.Publish(reg)
	cv := reg.CounterVec(telemetry.MetricFaultsInjected, "", "kind")
	if got := cv.With("drop").Value(); got != float64(inj.Stats().Dropped) {
		t.Fatalf("published drop counter = %v, want %d", got, inj.Stats().Dropped)
	}
	// Publishing on a nil registry must not panic.
	inj.Publish(nil)
}
