package reverser

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"dpreverser/internal/telemetry"
)

// recordedEvents captures a run's progress stream in arrival order.
func recordedEvents(t *testing.T, parallelism int) ([]ProgressEvent, *Result) {
	t.Helper()
	cap, _ := collect(t, "Car M")
	var mu sync.Mutex
	var events []ProgressEvent
	rv := New(WithConfig(testConfig()), WithParallelism(parallelism),
		WithProgress(func(ev ProgressEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}))
	res, err := rv.Reverse(context.Background(), cap)
	if err != nil {
		t.Fatalf("parallelism %d: %v", parallelism, err)
	}
	return events, res
}

// checkEventNesting asserts the ordering guarantees the progress API
// documents: stages are bracketed, run in pipeline order and never
// overlap; every stream event falls inside the "infer" stage; and every
// stream's start precedes its done.
func checkEventNesting(t *testing.T, events []ProgressEvent) {
	t.Helper()
	stageOrder := []string{"assemble", "extract", "align", "streams", "infer", "controls"}
	stageIdx := map[string]int{}
	for i, s := range stageOrder {
		stageIdx[s] = i
	}
	openStage := ""
	doneStages := 0
	streamOpen := map[string]int{}
	for i, ev := range events {
		switch ev.Kind {
		case ProgressStageStart:
			if openStage != "" {
				t.Fatalf("event %d: stage %q starts inside open stage %q", i, ev.Stage, openStage)
			}
			if stageIdx[ev.Stage] != doneStages {
				t.Fatalf("event %d: stage %q out of order (want %q)", i, ev.Stage, stageOrder[doneStages])
			}
			openStage = ev.Stage
		case ProgressStageDone:
			if openStage != ev.Stage {
				t.Fatalf("event %d: stage %q done while %q open", i, ev.Stage, openStage)
			}
			for key, n := range streamOpen {
				if n != 0 {
					t.Fatalf("event %d: stage %q done with stream %s still open", i, ev.Stage, key)
				}
			}
			openStage = ""
			doneStages++
		case ProgressStreamStart:
			if openStage != "infer" {
				t.Fatalf("event %d: stream start outside the infer stage (in %q)", i, openStage)
			}
			streamOpen[ev.Stream.String()+"\x00"+ev.Label]++
		case ProgressStreamDone:
			if openStage != "infer" {
				t.Fatalf("event %d: stream done outside the infer stage (in %q)", i, openStage)
			}
			key := ev.Stream.String() + "\x00" + ev.Label
			if streamOpen[key] <= 0 {
				t.Fatalf("event %d: stream %s done before start", i, key)
			}
			streamOpen[key]--
		}
	}
	if openStage != "" || doneStages != len(stageOrder) {
		t.Fatalf("run ended with stage %q open after %d completed stages", openStage, doneStages)
	}
}

// normalizeEvent strips the scheduling-dependent fields (wall time and the
// completion counter) so event multisets can be compared across
// parallelism settings.
func normalizeEvent(ev ProgressEvent) ProgressEvent {
	ev.Elapsed = 0
	ev.Done = 0
	return ev
}

// eventMultiset counts normalized events.
func eventMultiset(events []ProgressEvent) map[ProgressEvent]int {
	m := map[ProgressEvent]int{}
	for _, ev := range events {
		m[normalizeEvent(ev)]++
	}
	return m
}

// The ordering guarantees must hold at every worker count, and — once the
// scheduling-dependent fields are stripped — a serial and a highly
// parallel run must emit exactly the same events.
func TestProgressEventNestingAcrossParallelism(t *testing.T) {
	serial, _ := recordedEvents(t, 1)
	parallel, _ := recordedEvents(t, 8)
	checkEventNesting(t, serial)
	checkEventNesting(t, parallel)

	ms, mp := eventMultiset(serial), eventMultiset(parallel)
	if len(ms) != len(mp) {
		t.Fatalf("distinct events: serial %d, parallel %d", len(ms), len(mp))
	}
	for ev, n := range ms {
		if mp[ev] != n {
			t.Fatalf("event %+v: serial count %d, parallel count %d", ev, n, mp[ev])
		}
	}
}

// A panicking progress callback must not kill the pipeline: the run is
// cancelled and Reverse returns the panic as an error.
func TestProgressCallbackPanicIsRecovered(t *testing.T) {
	cap, _ := collect(t, "Car M")
	rv := New(WithConfig(testConfig()), WithParallelism(4),
		WithProgress(func(ev ProgressEvent) {
			if ev.Kind == ProgressStreamStart {
				panic("boom in callback")
			}
		}))
	res, err := rv.Reverse(context.Background(), cap)
	if err == nil {
		t.Fatal("Reverse returned nil error after a panicking callback")
	}
	if res != nil {
		t.Fatalf("Reverse returned a result (%v) alongside the panic error", res)
	}
	if !strings.Contains(err.Error(), "progress callback panicked") ||
		!strings.Contains(err.Error(), "boom in callback") {
		t.Fatalf("err = %v, want the recovered panic", err)
	}
}

// A panic in the very first event (a stage start, emitted from the main
// goroutine) must be recovered the same way.
func TestProgressCallbackPanicInStageEvent(t *testing.T) {
	cap, _ := collect(t, "Car M")
	rv := New(WithConfig(testConfig()),
		WithProgress(func(ev ProgressEvent) { panic(42) }))
	_, err := rv.Reverse(context.Background(), cap)
	if err == nil || !strings.Contains(err.Error(), "panicked: 42") {
		t.Fatalf("err = %v, want recovered panic 42", err)
	}
}

// The acceptance bar for the metrics registry: with a frozen manual clock,
// runs at different parallelism dump byte-identical metrics (all counters
// deterministic, all durations zero), and the GP counters reconcile
// exactly with the Result totals.
func TestTelemetryMetricsDeterministicAcrossParallelism(t *testing.T) {
	cap, _ := collect(t, "Car M")
	run := func(parallelism int) (*telemetry.Provider, *Result) {
		tel := telemetry.New(telemetry.NewManualClock(0))
		rv := New(WithConfig(testConfig()), WithParallelism(parallelism), WithTelemetry(tel))
		res, err := rv.Reverse(context.Background(), cap)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return tel, res
	}
	tel1, res1 := run(1)
	tel8, res8 := run(8)

	if res1.Evaluations != res8.Evaluations || res1.CacheHits != res8.CacheHits {
		t.Fatalf("result totals differ: %d/%d vs %d/%d",
			res1.Evaluations, res1.CacheHits, res8.Evaluations, res8.CacheHits)
	}
	if res1.Evaluations == 0 {
		t.Fatal("no GP evaluations recorded")
	}
	if res1.Evaluations != res1.CacheHits+res1.CacheMisses {
		t.Fatalf("totals do not add up: %d != %d + %d",
			res1.Evaluations, res1.CacheHits, res1.CacheMisses)
	}

	var j1, j8, p1, p8 bytes.Buffer
	if err := tel1.Metrics.WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := tel8.Metrics.WriteJSON(&j8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j8.Bytes()) {
		t.Errorf("JSON metric dumps differ across parallelism:\n%s\nvs\n%s", j1.String(), j8.String())
	}
	if err := tel1.Metrics.WritePrometheusFiltered(&p1, nil); err != nil {
		t.Fatal(err)
	}
	if err := tel8.Metrics.WritePrometheusFiltered(&p8, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1.Bytes(), p8.Bytes()) {
		t.Errorf("Prometheus dumps differ across parallelism")
	}

	// The registry's GP counters must reconcile exactly with the Result.
	counter := func(tel *telemetry.Provider, name string) float64 {
		for _, fam := range tel.Metrics.SnapshotFiltered(nil) {
			if fam.Name == name {
				return *fam.Series[0].Value
			}
		}
		t.Fatalf("metric %s missing from dump", name)
		return 0
	}
	if got := counter(tel1, telemetry.MetricGPEvaluations); got != float64(res1.Evaluations) {
		t.Errorf("%s = %v, want %d", telemetry.MetricGPEvaluations, got, res1.Evaluations)
	}
	if got := counter(tel1, telemetry.MetricGPCacheHits); got != float64(res1.CacheHits) {
		t.Errorf("%s = %v, want %d", telemetry.MetricGPCacheHits, got, res1.CacheHits)
	}
	if got := counter(tel1, telemetry.MetricGPCacheMisses); got != float64(res1.CacheMisses) {
		t.Errorf("%s = %v, want %d", telemetry.MetricGPCacheMisses, got, res1.CacheMisses)
	}
	if got := counter(tel1, telemetry.MetricRuns); got != 1 {
		t.Errorf("%s = %v, want 1", telemetry.MetricRuns, got)
	}
	if got := counter(tel1, telemetry.MetricFrames); got != float64(res1.Stats.Total) {
		t.Errorf("%s = %v, want %d", telemetry.MetricFrames, got, res1.Stats.Total)
	}
	if got := counter(tel1, telemetry.MetricMessagesAssembled); got != float64(res1.Messages) {
		t.Errorf("%s = %v, want %d", telemetry.MetricMessagesAssembled, got, res1.Messages)
	}
}

// The tracer must record the documented hierarchy: stage and infer-pool
// spans under the run root, stream spans under the pool, and sampled GP
// generation spans under their stream.
func TestTelemetrySpanHierarchy(t *testing.T) {
	cap, _ := collect(t, "Car M")
	tel := telemetry.New(telemetry.NewManualClock(0))
	rv := New(WithConfig(testConfig()), WithParallelism(4), WithTelemetry(tel))
	res, err := rv.Reverse(context.Background(), cap)
	if err != nil {
		t.Fatal(err)
	}
	spans := tel.Tracer.Spans()
	byID := map[int64]telemetry.SpanData{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var rootID, poolID int64
	counts := map[string]int{}
	for _, s := range spans {
		name := s.Name
		if strings.HasPrefix(name, "stage:") {
			name = "stage"
		}
		counts[name]++
		switch name {
		case "reverse":
			rootID = s.ID
		case "infer-pool":
			poolID = s.ID
		}
	}
	if counts["reverse"] != 1 || counts["infer-pool"] != 1 {
		t.Fatalf("span counts = %v", counts)
	}
	if counts["stage"] != 6 {
		t.Fatalf("%d stage spans, want 6", counts["stage"])
	}
	if counts["stream"] != len(res.Streams) {
		t.Fatalf("%d stream spans, want %d", counts["stream"], len(res.Streams))
	}
	if counts["gp-generation"] == 0 {
		t.Fatal("no sampled GP generation spans")
	}
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "stage:") || s.Name == "infer-pool":
			if s.Parent != rootID {
				t.Fatalf("span %q parent = %d, want run root %d", s.Name, s.Parent, rootID)
			}
		case s.Name == "stream":
			if s.Parent != poolID {
				t.Fatalf("stream span parent = %d, want infer-pool %d", s.Parent, poolID)
			}
		case s.Name == "gp-generation":
			if byID[s.Parent].Name != "stream" {
				t.Fatalf("gp-generation parent is %q, want a stream span", byID[s.Parent].Name)
			}
		}
	}
}

// Telemetry must not perturb the result: the same capture reversed with
// and without a provider yields identical fingerprints.
func TestTelemetryDoesNotAffectResults(t *testing.T) {
	cap, _ := collect(t, "Car M")
	plain, err := New(WithConfig(testConfig())).Reverse(context.Background(), cap)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(telemetry.NewManualClock(0))
	instr, err := New(WithConfig(testConfig()), WithTelemetry(tel)).Reverse(context.Background(), cap)
	if err != nil {
		t.Fatal(err)
	}
	a, b := fingerprints(plain), fingerprints(instr)
	if len(a) != len(b) {
		t.Fatalf("%d vs %d ESVs", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ESV %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// attrOf returns the value of key in attrs ("" when absent).
func attrOf(attrs []telemetry.Attr, key string) string {
	for _, a := range attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestScopeOutputsAgree pins the one-adapter contract: for every stage
// and stream done event there is exactly one span, one duration
// observation and one done record, per stage name and per stream, at any
// parallelism.
func TestScopeOutputsAgree(t *testing.T) {
	cap, _ := collect(t, "Car M")
	for _, parallelism := range []int{1, 8} {
		clock := telemetry.NewManualClock(0)
		ring := telemetry.NewRingSink(4096)
		tel := telemetry.New(clock).WithLogger(telemetry.NewLogger(clock, ring))
		var mu sync.Mutex
		var events []ProgressEvent
		rv := New(WithConfig(testConfig()), WithParallelism(parallelism), WithTelemetry(tel),
			WithProgress(func(ev ProgressEvent) {
				mu.Lock()
				events = append(events, ev)
				mu.Unlock()
			}))
		res, err := rv.Reverse(context.Background(), cap)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}

		// Each output is counted per scope: "stage:<name>" or
		// "stream:<key>/<label>".
		streamID := func(key, label string) string { return "stream:" + key + "/" + label }
		dones, spans, records := map[string]int{}, map[string]int{}, map[string]int{}
		streamDones := 0
		for _, ev := range events {
			switch ev.Kind {
			case ProgressStageDone:
				dones["stage:"+ev.Stage]++
			case ProgressStreamDone:
				dones[streamID(ev.Stream.String(), ev.Label)]++
				streamDones++
			}
		}
		for _, s := range tel.Tracer.Spans() {
			switch {
			case strings.HasPrefix(s.Name, "stage:"):
				spans[s.Name]++
			case s.Name == "stream":
				spans[streamID(attrOf(s.Attrs, "stream"), attrOf(s.Attrs, "label"))]++
			}
		}
		recs, _ := ring.Snapshot()
		for _, r := range recs {
			switch r.Msg {
			case ProgressStageDone.String():
				records["stage:"+attrOf(r.Attrs, "stage")]++
			case ProgressStreamDone.String():
				records[streamID(attrOf(r.Attrs, "stream"), attrOf(r.Attrs, "label"))]++
			}
		}

		if got := len(dones) - streamDones; got != 6 || streamDones != len(res.Streams) {
			t.Fatalf("parallelism %d: %d stage and %d stream done events, want 6 and %d",
				parallelism, got, streamDones, len(res.Streams))
		}
		for id, n := range dones {
			if n != 1 || spans[id] != 1 || records[id] != 1 {
				t.Errorf("parallelism %d: %s has %d done events, %d spans, %d done records; want 1 each",
					parallelism, id, n, spans[id], records[id])
			}
			if stage, ok := strings.CutPrefix(id, "stage:"); ok {
				if c := rv.met.StageDuration.With(stage).Count(); c != 1 {
					t.Errorf("parallelism %d: %s has %d duration observations, want 1", parallelism, id, c)
				}
			}
		}
		if len(spans) != len(dones) || len(records) != len(dones) {
			t.Errorf("parallelism %d: %d span scopes and %d record scopes for %d done events",
				parallelism, len(spans), len(records), len(dones))
		}
		// The stream histogram has no per-stream label, so its count must
		// equal the number of stream done events.
		if c := rv.met.StreamDuration.Count(); c != uint64(streamDones) {
			t.Errorf("parallelism %d: %d stream duration observations, want %d", parallelism, c, streamDones)
		}
	}
}
