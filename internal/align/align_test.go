package align

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"dpreverser/internal/can"
	"dpreverser/internal/colstore"
	"dpreverser/internal/diagtool"
	"dpreverser/internal/obd"
	"dpreverser/internal/ocr"
	"dpreverser/internal/rig"
	"dpreverser/internal/sim"
	"dpreverser/internal/vehicle"
)

func collectAlignment(t *testing.T, car string, cameraOffset time.Duration) rig.Capture {
	t.Helper()
	p, _ := vehicle.ProfileByCar(car)
	clock := sim.NewClock(0)
	tool, veh, err := diagtool.ForProfile(p, clock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tool.Close(); veh.Close() })
	cfg := rig.DefaultConfig()
	cfg.AlignDuration = 10 * time.Second
	cfg.CameraOffset = cameraOffset
	r := rig.New(tool, veh, cfg)
	t.Cleanup(r.Close)
	if err := r.CollectAlignment(); err != nil {
		t.Fatal(err)
	}
	return r.Capture()
}

// columnar transposes a capture's frames into the store the pipeline
// aligns over.
func columnar(frames []can.Frame) *colstore.Frames {
	fr := colstore.NewFrames(len(frames), 8*len(frames))
	for i := range frames {
		fr.Append(frames[i].ID, frames[i].Timestamp, frames[i].Payload())
	}
	return fr
}

func TestEstimateOffsetOBDRecoversSkew(t *testing.T) {
	for _, skew := range []time.Duration{0, 120 * time.Millisecond, 2 * time.Second} {
		cap := collectAlignment(t, "Car A", skew)
		got, err := EstimateOffsetOBDColumnar(columnar(cap.Frames), cap.UIFrames)
		if err != nil {
			t.Fatalf("skew %v: %v", skew, err)
		}
		// The estimate includes the display lag (≤ one poll interval) on
		// top of the configured skew.
		lag := got - skew
		if lag < 0 || lag > 600*time.Millisecond {
			t.Fatalf("skew %v: estimated %v (lag %v outside [0, 600ms])", skew, got, lag)
		}
	}
}

func TestEstimateOffsetOBDNoTraffic(t *testing.T) {
	if _, err := EstimateOffsetOBDColumnar(colstore.NewFrames(0, 0), nil); !errors.Is(err, ErrNoAnchors) {
		t.Fatalf("err = %v", err)
	}
}

func TestEstimateOffsetOBDNoUIMatches(t *testing.T) {
	cap := collectAlignment(t, "Car A", 0)
	if _, err := EstimateOffsetOBDColumnar(columnar(cap.Frames), nil); !errors.Is(err, ErrNoAnchors) {
		t.Fatalf("err = %v", err)
	}
}

// scanSamples is offsetSamples as a plain scan of every UI frame for every
// observation, keeping the smallest non-negative gap: the reference the
// indexed search must reproduce.
func scanSamples(obs []obdObservation, uiFrames []ocr.Frame) []time.Duration {
	var samples []time.Duration
	for _, o := range obs {
		spec, ok := obd.Lookup(o.pid)
		if !ok {
			continue
		}
		bestGap, found := time.Duration(math.MaxInt64), false
		for _, f := range uiFrames {
			if f.ScreenName != "obd-live" {
				continue
			}
			for _, row := range ocr.Layout(f.Texts, nil) {
				if !row.ParseOK || row.Label != spec.Name || math.Abs(row.Parsed-o.value) > displayTolerance(o.value) {
					continue
				}
				if gap := f.At - o.at; gap >= 0 && gap < bestGap {
					bestGap, found = gap, true
				}
			}
		}
		if found {
			samples = append(samples, bestGap)
		}
	}
	return samples
}

// The indexed anchor search finds the same offset samples as the full
// scan on every fleet car's alignment capture, and again once the UI
// frames are shuffled with their timestamps coarsened so that many share
// one, which makes the search sort them.
func TestOffsetSamplesMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range vehicle.Fleet() {
		cap := collectAlignment(t, p.Car, 300*time.Millisecond)
		obs := decodeOBDTrafficColumnar(columnar(cap.Frames))
		want := scanSamples(obs, cap.UIFrames)
		if len(want) == 0 {
			t.Fatalf("%s: no anchors", p.Car)
		}
		if got := offsetSamples(obs, layOutLive(cap.UIFrames)); !slices.Equal(got, want) {
			t.Fatalf("%s: indexed search found %v, scan %v", p.Car, got, want)
		}
		ui := slices.Clone(cap.UIFrames)
		for i := range ui {
			ui[i].At = ui[i].At.Truncate(time.Second)
		}
		rng.Shuffle(len(ui), func(i, j int) { ui[i], ui[j] = ui[j], ui[i] })
		before := slices.Clone(ui)
		if want = scanSamples(obs, ui); len(want) == 0 {
			t.Fatalf("%s, shuffled: no anchors", p.Car)
		}
		if got := offsetSamples(obs, layOutLive(ui)); !slices.Equal(got, want) {
			t.Fatalf("%s, shuffled: indexed search found %v, scan %v", p.Car, got, want)
		}
		if !reflect.DeepEqual(ui, before) {
			t.Fatalf("%s: the search reordered its input", p.Car)
		}
	}
}

func TestApplyOffset(t *testing.T) {
	in := []ocr.Frame{{At: 5 * time.Second}, {At: 6 * time.Second}}
	out := ApplyOffset(in, 2*time.Second)
	if out[0].At != 3*time.Second || out[1].At != 4*time.Second {
		t.Fatalf("out = %v, %v", out[0].At, out[1].At)
	}
	if in[0].At != 5*time.Second {
		t.Fatal("ApplyOffset mutated its input")
	}
}

func TestDisplayTolerance(t *testing.T) {
	if displayTolerance(50) >= 0.01 {
		t.Fatal("two-decimal tolerance too loose")
	}
	if displayTolerance(500) < 0.05 || displayTolerance(500) > 0.06 {
		t.Fatal("one-decimal tolerance wrong")
	}
	if displayTolerance(5000) < 0.5 {
		t.Fatal("integer tolerance wrong")
	}
}

// The end-to-end property the pipeline relies on: after applying the
// estimated offset, UI timestamps line up with traffic timestamps to
// within one poll interval.
func TestAlignmentEndToEnd(t *testing.T) {
	cap := collectAlignment(t, "Car A", 1500*time.Millisecond)
	off, err := EstimateOffsetOBDColumnar(columnar(cap.Frames), cap.UIFrames)
	if err != nil {
		t.Fatal(err)
	}
	corrected := ApplyOffset(cap.UIFrames, off)
	// Every corrected OBD frame timestamp must be within a poll interval
	// of some OBD traffic timestamp.
	for _, f := range corrected {
		if f.ScreenName != "obd-live" || len(ocr.Layout(f.Texts, nil)) == 0 {
			continue
		}
		best := time.Duration(1 << 62)
		for _, cf := range cap.Frames {
			d := f.At - cf.Timestamp
			if d < 0 {
				d = -d
			}
			if d < best {
				best = d
			}
		}
		if best > 600*time.Millisecond {
			t.Fatalf("corrected UI frame at %v is %v from nearest traffic", f.At, best)
		}
	}
}
