package reverser

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"dpreverser/internal/align"
	"dpreverser/internal/diagtool"
	"dpreverser/internal/faults"
	"dpreverser/internal/ocr"
	"dpreverser/internal/rig"
	"dpreverser/internal/sim"
	"dpreverser/internal/vehicle"
)

// collectSeeded runs a full rig session on a car with the rig's default
// read durations and the given rig seed.
func collectSeeded(t *testing.T, car string, seed int64) rig.Capture {
	t.Helper()
	p, ok := vehicle.ProfileByCar(car)
	if !ok {
		t.Fatalf("unknown car %q", car)
	}
	tool, veh, err := diagtool.ForProfile(p, sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { tool.Close(); veh.Close() }()
	cfg := rig.DefaultConfig()
	cfg.Seed = seed
	r := rig.New(tool, veh, cfg)
	defer r.Close()
	cap, err := r.RunFull()
	if err != nil {
		t.Fatal(err)
	}
	return cap
}

// checkStreamsMatchReference prepares cap's streams with the production
// code and with the reference in streams_ref_test.go and requires deeply
// equal results.
func checkStreamsMatchReference(t *testing.T, name string, cap rig.Capture) {
	t.Helper()
	ext, off := frontHalf(t, cap)
	checkExtractionMatchesReference(t, name, ext, cap.UIFrames, off)
}

// checkExtractionMatchesReference prepares the streams of ext and of UI
// frames whose clock is off ahead of the traffic's, and requires the
// reference's streams over the frames moved onto the traffic clock.
func checkExtractionMatchesReference(t *testing.T, name string, ext *Extraction, uiFrames []ocr.Frame, off time.Duration) {
	t.Helper()
	got := prepareStreams(ext, uiFrames, off, 1)
	want := refStreamsFromExtraction(ext, align.ApplyOffset(uiFrames, off))
	if len(want) == 0 {
		t.Fatalf("%s: reference prepared no streams", name)
	}
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: stream %d differs from the reference (%d vs %d streams)", name, i, len(got), len(want))
			}
		}
		t.Fatalf("%s: %d streams, reference has %d", name, len(got), len(want))
	}
}

// frontHalf runs the pipeline's CAN front half on cap up to the streams
// stage, and estimates the clock offset with the standalone alignment.
func frontHalf(t *testing.T, cap rig.Capture) (*Extraction, time.Duration) {
	t.Helper()
	fr := FramesColumnar(cap.Frames)
	ms, _, err := AssembleColumnar(context.Background(), fr, nil)
	if err != nil {
		t.Fatal(err)
	}
	off, err := align.EstimateOffsetOBDColumnar(fr, cap.UIFrames)
	if err != nil {
		off = 0
	}
	return ExtractFieldsColumnar(ms), off
}

// prepareStreams runs both halves of stream preparation, the CAN half on
// workers goroutines.
func prepareStreams(ext *Extraction, uiFrames []ocr.Frame, off time.Duration, workers int) []StreamData {
	cam := newCamera(uiFrames)
	defer cam.release()
	return streamsFromExtraction(ext, cam, off, workers)
}

// checkStreamsSameAtAnyWorkerCount prepares cap's streams on 1, 2 and 8
// workers and requires deeply equal results.
func checkStreamsSameAtAnyWorkerCount(t *testing.T, name string, cap rig.Capture) {
	t.Helper()
	ext, off := frontHalf(t, cap)
	want := prepareStreams(ext, cap.UIFrames, off, 1)
	if len(want) == 0 {
		t.Fatalf("%s: no streams prepared", name)
	}
	for _, workers := range []int{2, 8} {
		if got := prepareStreams(ext, cap.UIFrames, off, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d workers prepare %d streams unlike 1 worker's %d", name, workers, len(got), len(want))
		}
	}
}

// The streams stage prepares sessions concurrently; the streams must not
// depend on how many workers share them, on clean captures of the whole
// fleet and on damaged ones.
func TestStreamsSameAtAnyWorkerCount(t *testing.T) {
	for _, p := range vehicle.Fleet() {
		checkStreamsSameAtAnyWorkerCount(t, p.Car, collectSeeded(t, p.Car, 1))
	}
	spec, err := faults.ParseSpec("heavy")
	if err != nil {
		t.Fatal(err)
	}
	for _, car := range []string{"Car A", "Car L", "Car R"} {
		clean := collectSeeded(t, car, 1)
		inj := faults.New(spec, 1)
		cap := clean
		cap.Frames = inj.Frames(clean.Frames)
		cap.UIFrames = inj.UIFrames(clean.UIFrames)
		checkStreamsSameAtAnyWorkerCount(t, car+" heavy", cap)
	}
}

func TestStreamsMatchReferenceFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("54 full captures")
	}
	for _, p := range vehicle.Fleet() {
		for seed := int64(1); seed <= 3; seed++ {
			cap := collectSeeded(t, p.Car, seed)
			checkStreamsMatchReference(t, fmt.Sprintf("%s seed %d", p.Car, seed), cap)
		}
	}
}

func TestStreamsMatchReferenceUnderFaults(t *testing.T) {
	clean := collectSeeded(t, "Car M", 1)
	for _, preset := range []string{"default", "heavy", "adversarial"} {
		spec, err := faults.ParseSpec(preset)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			inj := faults.New(spec, seed)
			cap := clean
			cap.Frames = inj.Frames(clean.Frames)
			cap.UIFrames = inj.UIFrames(clean.UIFrames)
			checkStreamsMatchReference(t, fmt.Sprintf("Car M %s seed %d", preset, seed), cap)
		}
	}
}

// Captures keep observations and video frames in time order, so the
// fleet captures never reach the fast path's unsorted fallbacks, and they
// rarely put an observation exactly on a session's window edge.
// Shuffling the observations, swapping neighbouring video frames and
// snapping every timestamp to a one-second grid do.
func TestStreamsMatchReferenceShuffledAndSnapped(t *testing.T) {
	snap := func(at time.Duration) time.Duration { return at - at%time.Second }
	for _, car := range []string{"Car A", "Car K", "Car M"} {
		cap := collectSeeded(t, car, 1)
		fr := FramesColumnar(cap.Frames)
		ms, _, err := AssembleColumnar(context.Background(), fr, nil)
		if err != nil {
			t.Fatal(err)
		}
		ext := ExtractFieldsColumnar(ms)
		off, err := align.EstimateOffsetOBDColumnar(fr, cap.UIFrames)
		if err != nil {
			t.Fatal(err)
		}

		shuffled := *ext
		shuffled.ESVs = append([]ESVObservation(nil), ext.ESVs...)
		rand.New(rand.NewSource(1)).Shuffle(len(shuffled.ESVs), func(i, j int) {
			shuffled.ESVs[i], shuffled.ESVs[j] = shuffled.ESVs[j], shuffled.ESVs[i]
		})
		checkExtractionMatchesReference(t, car+" shuffled", &shuffled, cap.UIFrames, off)

		swapped := append([]ocr.Frame(nil), cap.UIFrames...)
		for i := 0; i+1 < len(swapped); i += 2 {
			swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
		}
		checkExtractionMatchesReference(t, car+" swapped frames", ext, swapped, off)

		snapped := *ext
		snapped.ESVs = append([]ESVObservation(nil), ext.ESVs...)
		for i := range snapped.ESVs {
			snapped.ESVs[i].At = snap(snapped.ESVs[i].At)
		}
		// Snapped on the traffic clock, so that observations land on
		// session window edges.
		snappedUI := align.ApplyOffset(cap.UIFrames, off)
		for i := range snappedUI {
			snappedUI[i].At = snap(snappedUI[i].At)
		}
		checkExtractionMatchesReference(t, car+" snapped", &snapped, snappedUI, 0)
	}
}

// sessionWindow must select exactly what the scan it replaces selected:
// every observation timed within [lo, hi], edges included, in capture
// order, whether or not the capture is in time order.
func TestSessionWindowMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		times := make([]time.Duration, rng.Intn(12))
		for i := range times {
			times[i] = time.Duration(rng.Intn(6))
		}
		if trial%2 == 0 {
			slices.Sort(times)
		}
		obs := make([]ESVObservation, len(times))
		for i, at := range times {
			obs[i].At = at
		}
		p := newStreamPrep(newStreamIndex(obs))
		lo := time.Duration(rng.Intn(7)) - 1
		hi := lo + time.Duration(rng.Intn(4))
		var want []int32
		for i, o := range obs {
			if o.At >= lo && o.At <= hi {
				want = append(want, int32(i))
			}
		}
		if got := p.sessionWindow(lo, hi); !slices.Equal(got, want) {
			t.Fatalf("times %v, window [%d, %d]: got %v, scan %v", times, lo, hi, got, want)
		}
	}
}

// FuzzNearestSample checks the binary search against the linear scan it
// replaces: unsorted input (which falls back to the scan), duplicate
// timestamps, ties either side of t and gaps at exactly maxGap.
func FuzzNearestSample(f *testing.F) {
	f.Add([]byte{0, 10, 10, 20, 30}, int16(15), int16(5))
	f.Add([]byte{10, 10, 10, 20}, int16(14), int16(4))
	f.Add([]byte{30, 10, 20}, int16(20), int16(10))
	f.Add([]byte{5, 5, 5}, int16(5), int16(0))
	f.Add([]byte{}, int16(0), int16(1))
	f.Add([]byte{0, 255}, int16(300), int16(-1))
	f.Fuzz(func(t *testing.T, ats []byte, at, maxGap int16) {
		samples := make([]ocr.Sample, len(ats))
		for i, a := range ats {
			samples[i] = ocr.Sample{At: time.Duration(a), Value: float64(i)}
		}
		sorted := samplesSorted(samples)
		gotY, gotOK := nearestSample(samples, sorted, time.Duration(at), time.Duration(maxGap))
		wantY, wantOK := refNearestSample(samples, time.Duration(at), time.Duration(maxGap))
		if gotY != wantY || gotOK != wantOK {
			t.Fatalf("samples %v sorted %v t %d maxGap %d: got (%v, %v), scan (%v, %v)",
				ats, sorted, at, maxGap, gotY, gotOK, wantY, wantOK)
		}
	})
}

// TestPooledStreamPrep prepares Car K, Car M and a faulted Car A in turn
// at 1, 2 and 8 workers, so each preparation runs on pooled scratch that
// another capture grew, and requires the reference's streams every time.
// It then checks that a released camera, index and two released preps
// that shared them keep no reference into the capture or the streams.
func TestPooledStreamPrep(t *testing.T) {
	spec, err := faults.ParseSpec("heavy")
	if err != nil {
		t.Fatal(err)
	}
	faulted := collectSeeded(t, "Car A", 1)
	inj := faults.New(spec, 1)
	faulted.Frames = inj.Frames(faulted.Frames)
	faulted.UIFrames = inj.UIFrames(faulted.UIFrames)
	type prepared struct {
		name     string
		ext      *Extraction
		uiFrames []ocr.Frame
		off      time.Duration
		want     []StreamData
	}
	var caps []prepared
	for _, c := range []struct {
		name string
		cap  rig.Capture
	}{{"Car K", collectSeeded(t, "Car K", 1)}, {"Car M", collectSeeded(t, "Car M", 1)}, {"Car A heavy", faulted}} {
		ext, off := frontHalf(t, c.cap)
		want := refStreamsFromExtraction(ext, align.ApplyOffset(c.cap.UIFrames, off))
		caps = append(caps, prepared{c.name, ext, c.cap.UIFrames, off, want})
	}
	for round := 0; round < 2; round++ {
		for _, workers := range []int{1, 2, 8} {
			for _, c := range caps {
				if got := prepareStreams(c.ext, c.uiFrames, c.off, workers); !reflect.DeepEqual(got, c.want) {
					t.Fatalf("%s at %d workers, round %d: streams unlike the reference's", c.name, workers, round)
				}
			}
		}
	}
	// Concurrent stages, as a job server's workers run them, share the pool.
	var wg sync.WaitGroup
	for _, workers := range []int{1, 2, 8} {
		for _, c := range caps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := prepareStreams(c.ext, c.uiFrames, c.off, workers); !reflect.DeepEqual(got, c.want) {
					t.Errorf("%s at %d workers, concurrently: streams unlike the reference's", c.name, workers)
				}
			}()
		}
	}
	wg.Wait()

	c := caps[1]
	cam := newCamera(c.uiFrames)
	idx := newStreamIndex(c.ext.ESVs)
	p, f := newStreamPrep(idx), newStreamPrep(idx)
	for i, sess := range cam.sessions {
		if i%2 == 0 {
			p.session(cam, sess, c.off)
		} else {
			f.session(cam, sess, c.off)
		}
	}
	if len(cam.laid) == 0 || len(cam.live) == 0 || len(p.vars) == 0 || len(f.pairs.xs) == 0 {
		t.Fatal("the sessions left no scratch to check")
	}
	f.release()
	p.release()
	idx.release()
	cam.release()
	if idx.obs != nil || len(idx.ids) != 0 || !slices.Equal(idx.keys[:cap(idx.keys)], make([]StreamKey, cap(idx.keys))) {
		t.Error("index: released with its observations, key ids or stream keys")
	}
	for i, q := range []*streamPrep{p, f} {
		if q.streamIndex != nil || len(q.groups) != 0 {
			t.Errorf("prep %d: released with its index or groups", i)
		}
		for _, rows := range [][][]float64{q.vars, q.pairs.xs, q.screened.xs} {
			for _, row := range rows[:cap(rows)] {
				if row != nil {
					t.Errorf("prep %d: released with an X row", i)
					break
				}
			}
		}
	}
	if len(cam.sessions) != 0 || len(cam.samples) != 0 ||
		!slices.Equal(cam.laid[:cap(cam.laid)], make([]ocr.Row, cap(cam.laid))) ||
		!slices.Equal(cam.rows[:cap(cam.rows)], make([]camRow, cap(cam.rows))) ||
		slices.ContainsFunc(cam.live[:cap(cam.live)], func(f align.LiveFrame) bool { return f.Rows != nil }) {
		t.Error("camera: released with its sessions, samples, laid-out rows, row labels or live frames")
	}
}

// Reverse runs the camera half of stream preparation beside assembly at
// Parallelism 2 and above and inline at 1, and ExtractStreams runs the
// two halves one after the other. On every fleet car, clean and with
// heavy faults, all of them must prepare the same streams with the same
// clock offset, Reverse must give the same document at every setting, and
// its progress events must stay bracketed and in order.
func TestStreamsSameAcrossEntryPointsAndParallelism(t *testing.T) {
	spec, err := faults.ParseSpec("heavy")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	for _, p := range vehicle.Fleet() {
		clean := collectSeeded(t, p.Car, 1)
		inj := faults.New(spec, 1)
		heavy := clean
		heavy.Frames = inj.Frames(clean.Frames)
		heavy.UIFrames = inj.UIFrames(clean.UIFrames)
		for _, c := range []struct {
			name string
			cap  rig.Capture
		}{{p.Car, clean}, {p.Car + " heavy", heavy}} {
			want, _, wantOff := ExtractStreams(c.cap, cfg)
			if len(want) == 0 {
				t.Fatalf("%s: no streams prepared", c.name)
			}
			var doc []byte
			for _, workers := range []int{1, 2, 8} {
				var events []ProgressEvent
				var mu sync.Mutex
				rv := New(WithConfig(cfg), WithParallelism(workers), WithProgress(func(ev ProgressEvent) {
					mu.Lock()
					events = append(events, ev)
					mu.Unlock()
				}))
				res, err := rv.Reverse(context.Background(), c.cap)
				if err != nil {
					t.Fatalf("%s at parallelism %d: %v", c.name, workers, err)
				}
				if !reflect.DeepEqual(res.Streams, want) || res.Offset != wantOff {
					t.Fatalf("%s at parallelism %d: streams or offset %v unlike ExtractStreams' (offset %v)", c.name, workers, res.Offset, wantOff)
				}
				checkEventNesting(t, events)
				got, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if doc == nil {
					doc = got
				} else if !bytes.Equal(got, doc) {
					t.Fatalf("%s at parallelism %d: result document unlike parallelism 1's", c.name, workers)
				}
			}
		}
	}
}
