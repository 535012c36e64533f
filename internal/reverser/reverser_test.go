package reverser

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"dpreverser/internal/rig"
)

// fingerprint flattens the fields the determinism guarantee covers:
// identity, ordering, formulas, fitness and generation counts.
type fingerprint struct {
	key     string
	formula string
	fitness float64
	gens    int
	pairs   int
}

func fingerprints(res *Result) []fingerprint {
	out := make([]fingerprint, 0, len(res.ESVs))
	for _, e := range res.ESVs {
		out = append(out, fingerprint{
			key: e.Key.String(), formula: e.FormulaString(),
			fitness: e.Fitness, gens: e.Generations, pairs: e.Pairs,
		})
	}
	return out
}

// The headline guarantee of the parallel engine: a capture reverses
// byte-identically at every worker count, because each stream derives its
// own RNG from the capture seed and the stream key.
func TestReverseDeterministicAcrossParallelism(t *testing.T) {
	cap, _ := collect(t, "Car M")
	cfg := testConfig()

	var want []fingerprint
	var wantOffset time.Duration
	for i, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		rv := New(WithConfig(cfg), WithParallelism(workers))
		res, err := rv.Reverse(context.Background(), cap)
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		got := fingerprints(res)
		if i == 0 {
			want, wantOffset = got, res.Offset
			continue
		}
		if res.Offset != wantOffset {
			t.Fatalf("parallelism %d: offset %v, want %v", workers, res.Offset, wantOffset)
		}
		if len(got) != len(want) {
			t.Fatalf("parallelism %d: %d ESVs, want %d", workers, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("parallelism %d: ESV %d = %+v, want %+v", workers, j, got[j], want[j])
			}
		}
	}
}

// Two fresh Reversers with the same configuration must produce identical
// results — the constructor holds no hidden per-instance state.
func TestRepeatedConstructionIsDeterministic(t *testing.T) {
	cap, _ := collect(t, "Car M")
	cfg := testConfig()
	first, err := New(WithConfig(cfg)).Reverse(context.Background(), cap)
	if err != nil {
		t.Fatal(err)
	}
	second, err := New(WithConfig(cfg)).Reverse(context.Background(), cap)
	if err != nil {
		t.Fatal(err)
	}
	firstFP, secondFP := fingerprints(first), fingerprints(second)
	if len(firstFP) != len(secondFP) {
		t.Fatalf("first %d ESVs, second %d", len(firstFP), len(secondFP))
	}
	for i := range firstFP {
		if firstFP[i] != secondFP[i] {
			t.Fatalf("ESV %d: first %+v, second %+v", i, firstFP[i], secondFP[i])
		}
	}
}

func TestReverseCancelledBeforeStart(t *testing.T) {
	cap, _ := collect(t, "Car M")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New(WithConfig(testConfig())).Reverse(ctx, cap)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Cancelling mid-inference must abort promptly with ctx.Err(): the test
// cancels from the progress callback as soon as the first stream starts,
// while plenty of streams are still queued.
func TestReverseCancelledMidInference(t *testing.T) {
	cap, _ := collect(t, "Car M")
	cfg := testConfig()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := 0
	rv := New(WithConfig(cfg), WithParallelism(2), WithProgress(func(ev ProgressEvent) {
		if ev.Kind == ProgressStreamStart {
			started++
			cancel()
		}
	}))
	begin := time.Now()
	_, err := rv.Reverse(ctx, cap)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if started == 0 {
		t.Fatal("cancelled before any stream started")
	}
	// "Promptly": the in-flight GP runs may finish their generation, but
	// the pool must not drain the whole queue (a full run takes seconds).
	if elapsed := time.Since(begin); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// Progress events must arrive serialised, bracket every stage, and count
// every stream exactly once.
func TestReverseProgressEvents(t *testing.T) {
	cap, _ := collect(t, "Car M")
	var mu sync.Mutex
	stageStarts := map[string]int{}
	stageDones := map[string]int{}
	streamStarts, streamDones := 0, 0
	var total int
	rv := New(WithConfig(testConfig()), WithParallelism(4), WithProgress(func(ev ProgressEvent) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Kind {
		case ProgressStageStart:
			stageStarts[ev.Stage]++
		case ProgressStageDone:
			stageDones[ev.Stage]++
		case ProgressStreamStart:
			streamStarts++
			total = ev.Total
		case ProgressStreamDone:
			streamDones++
			if ev.Generations < 0 {
				t.Errorf("stream %v: negative generations", ev.Stream)
			}
		}
	}))
	res, err := rv.Reverse(context.Background(), cap)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"assemble", "extract", "align", "streams", "infer", "controls"} {
		if stageStarts[stage] != 1 || stageDones[stage] != 1 {
			t.Errorf("stage %q: %d starts, %d dones", stage, stageStarts[stage], stageDones[stage])
		}
	}
	if streamStarts != len(res.Streams) || streamDones != len(res.Streams) {
		t.Errorf("stream events: %d starts, %d dones, want %d each", streamStarts, streamDones, len(res.Streams))
	}
	if total != len(res.Streams) {
		t.Errorf("event Total = %d, want %d", total, len(res.Streams))
	}
}

func TestOptionsApply(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GP.Seed = 99
	rv := New(
		WithParallelism(5),
		WithConfig(cfg),
		WithParallelism(3), // a later option overrides an earlier one
	)
	cfg = rv.Config()
	if cfg.GP.Seed != 99 {
		t.Fatalf("options not applied: %+v", cfg)
	}
	if rv.Parallelism() != 3 {
		t.Fatalf("parallelism = %d", rv.Parallelism())
	}
	if def := New(); def.Parallelism() != runtime.GOMAXPROCS(0) {
		t.Fatalf("default parallelism = %d", def.Parallelism())
	}
}

// Reverse must publish the inference inputs on Result.Streams so the
// experiment harness stops re-walking the capture.
func TestReversePublishesStreams(t *testing.T) {
	cap, _ := collect(t, "Car M")
	res, err := New(WithConfig(testConfig())).Reverse(context.Background(), cap)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Streams) != len(res.ESVs) {
		t.Fatalf("%d streams, %d ESVs", len(res.Streams), len(res.ESVs))
	}
	datasets := 0
	for _, sd := range res.Streams {
		if sd.Dataset != nil {
			datasets++
		}
	}
	if datasets == 0 {
		t.Fatal("no stream carries a dataset")
	}
}

func TestResultMarshalJSON(t *testing.T) {
	cap, _ := collect(t, "Car M")
	res, err := New(WithConfig(testConfig())).Reverse(context.Background(), cap)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Car      string `json:"car"`
		Messages int    `json:"messages"`
		ESVs     []struct {
			ID      string `json:"id"`
			Kind    string `json:"kind"`
			Formula string `json:"formula"`
			Key     struct {
				Proto string `json:"proto"`
			} `json:"key"`
		} `json:"esvs"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("round trip: %v\n%s", err, raw)
	}
	if decoded.Car != res.Car || decoded.Messages != res.Messages {
		t.Fatalf("header fields: %+v", decoded)
	}
	if len(decoded.ESVs) != len(res.ESVs) {
		t.Fatalf("%d JSON ESVs, want %d", len(decoded.ESVs), len(res.ESVs))
	}
	formulas := 0
	for i, e := range decoded.ESVs {
		if e.ID == "" || e.Key.Proto == "" {
			t.Fatalf("ESV %d missing identity: %+v", i, e)
		}
		if e.Kind == "formula" {
			formulas++
			if e.Formula != res.ESVs[i].FormulaString() {
				t.Fatalf("ESV %d formula = %q, want %q", i, e.Formula, res.ESVs[i].FormulaString())
			}
		}
	}
	if formulas == 0 {
		t.Fatal("no formula ESVs in JSON output")
	}
}

// Reverse extracts into a buffer from esvFree and returns it emptied once
// the streams stage is done: no entry in the buffer's whole capacity
// still refers into a capture. Concurrent runs share the free list, and
// each gives the document it gives alone. Car K's KWP capture has more
// observations than messages, so its buffer grows past the presize.
func TestReleasedESVBufferHoldsNoCapture(t *testing.T) {
	captures := []rig.Capture{collectSeeded(t, "Car K", 1), collectSeeded(t, "Car M", 1)}
	rv := New(WithParallelism(1))
	reverse := func(c rig.Capture) []byte {
		res, err := rv.Reverse(context.Background(), c)
		if err != nil {
			t.Error(err)
			return nil
		}
		doc, err := json.Marshal(res)
		if err != nil {
			t.Error(err)
		}
		return doc
	}
	want := make([][]byte, len(captures))
	for i, c := range captures {
		want[i] = reverse(c)
	}
	var wg sync.WaitGroup
	for range 3 {
		for i, c := range captures {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := reverse(c); !bytes.Equal(got, want[i]) {
					t.Errorf("capture %d reversed concurrently differs from its run alone", i)
				}
			}()
		}
	}
	wg.Wait()
	released := 0
	for {
		select {
		case b := <-esvFree:
			released++
			if len(b) != 0 {
				t.Errorf("released buffer holds %d observations", len(b))
			}
			for i, o := range b[:cap(b)] {
				if o.Bytes != nil || o.Key != (StreamKey{}) || o.At != 0 {
					t.Fatalf("released buffer entry %d still holds %+v", i, o)
				}
			}
		default:
			if released == 0 {
				t.Fatal("Reverse returned no buffer to the free list")
			}
			return
		}
	}
}
