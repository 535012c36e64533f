package rig

import (
	"bytes"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func TestCaptureRoundTripBuffer(t *testing.T) {
	r, _ := newRig(t, "Car M", fastConfig())
	if err := r.CollectAlignment(); err != nil {
		t.Fatal(err)
	}
	cap := r.Capture()

	var buf bytes.Buffer
	if err := cap.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Car != cap.Car || got.ToolName != cap.ToolName || got.Protocol != cap.Protocol {
		t.Fatalf("meta = %+v", got)
	}
	if len(got.Frames) != len(cap.Frames) || len(got.UIFrames) != len(cap.UIFrames) || len(got.Clicks) != len(cap.Clicks) {
		t.Fatalf("sizes: %d/%d frames, %d/%d ui, %d/%d clicks",
			len(got.Frames), len(cap.Frames), len(got.UIFrames), len(cap.UIFrames),
			len(got.Clicks), len(cap.Clicks))
	}
	for i := range cap.Frames {
		if got.Frames[i] != cap.Frames[i] {
			t.Fatalf("frame %d differs", i)
		}
	}
}

func TestCaptureRoundTripFile(t *testing.T) {
	r, _ := newRig(t, "Car M", fastConfig())
	cap, err := r.RunFull()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "capture.json")
	if err := SaveCaptureFile(cap, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCaptureFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.UIFrames) != len(cap.UIFrames) {
		t.Fatalf("ui frames: %d vs %d", len(loaded.UIFrames), len(cap.UIFrames))
	}
	for i, f := range cap.UIFrames {
		got := loaded.UIFrames[i]
		if got.At != f.At || got.ScreenName != f.ScreenName || !slices.Equal(got.Texts, f.Texts) {
			t.Fatalf("ui frame %d differs", i)
		}
	}
	if len(loaded.Clicks) != len(cap.Clicks) {
		t.Fatalf("clicks: %d vs %d", len(loaded.Clicks), len(cap.Clicks))
	}
}

func TestReadCaptureRejectsWrongVersion(t *testing.T) {
	_, err := ReadCapture(strings.NewReader(`{"version":99,"capture":{}}`))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v", err)
	}
}

func TestReadCaptureRejectsGarbage(t *testing.T) {
	if _, err := ReadCapture(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadCaptureFileMissing(t *testing.T) {
	if _, err := LoadCaptureFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// A decode reuses the buffers the previous decode grew even when it runs
// on another goroutine after two collections, which empty a sync.Pool: it
// allocates no more than a decode right after the first on the same
// goroutine does, well below one more copy of the body.
func TestReadCaptureReusesScratchAcrossGoroutines(t *testing.T) {
	r, _ := newRig(t, "Car M", fastConfig())
	cap, err := r.RunFull()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cap.Save(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	decode := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ReadCapture(bytes.NewReader(body)); err != nil {
			t.Error(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	decode()
	warm := decode()
	for round := 0; round < 4; round++ {
		runtime.GC()
		runtime.GC()
		allocs := make(chan uint64)
		go func() { allocs <- decode() }()
		if got := <-allocs; got > warm+uint64(len(body))/2 {
			t.Fatalf("round %d: a decode on another goroutine allocated %d bytes, against %d on the first one's (body %d bytes)",
				round, got, warm, len(body))
		}
	}
}
