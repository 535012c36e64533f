package reverser

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dpreverser/internal/gp"
	"dpreverser/internal/telemetry"
)

func TestParseFaultPolicy(t *testing.T) {
	for name, want := range map[string]FaultPolicy{
		"": BestEffort, "best-effort": BestEffort, "strict": Strict,
	} {
		got, err := ParseFaultPolicy(name)
		if err != nil || got != want {
			t.Errorf("ParseFaultPolicy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseFaultPolicy("yolo"); err == nil {
		t.Error("ParseFaultPolicy accepted an unknown policy")
	}
	if BestEffort.String() != "best-effort" || Strict.String() != "strict" {
		t.Error("FaultPolicy.String mismatch")
	}
}

func TestAssembleColumnarCancelled(t *testing.T) {
	cap, _ := collect(t, "Car M")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := AssembleColumnar(ctx, FramesColumnar(cap.Frames), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Reverse surfaces the same cancellation from its assembly stage.
	if _, err := New(WithConfig(testConfig())).Reverse(ctx, cap); !errors.Is(err, context.Canceled) {
		t.Fatalf("Reverse err = %v, want context.Canceled", err)
	}
}

// screenXY runs screenPairs over xs and ys, grouping rows by their
// printed value.
func screenXY(xs [][]float64, ys []float64) ([][]float64, []float64, int) {
	ps := pairSet{xs: xs, ys: ys}
	ids := map[string]int32{}
	for _, x := range xs {
		k := fmt.Sprint(x)
		g, ok := ids[k]
		if !ok {
			g = int32(len(ids))
			ids[k] = g
		}
		ps.gid = append(ps.gid, g)
	}
	ps.groups = len(ids)
	out, rejected := new(streamPrep).screenPairs(ps)
	return out.xs, out.ys, rejected
}

func TestScreenPairsRejectsInconsistentY(t *testing.T) {
	// Ten observations of X=[16]: nine agree, one lost its decimal point.
	var xs [][]float64
	var ys []float64
	for i := 0; i < 9; i++ {
		xs = append(xs, []float64{16})
		ys = append(ys, 12.5)
	}
	xs = append(xs, []float64{16})
	ys = append(ys, 1250) // "12.50" read as "1250"
	keptX, keptY, rejected := screenXY(xs, ys)
	if rejected != 1 || len(keptY) != 9 || len(keptX) != 9 {
		t.Fatalf("rejected %d, kept %d", rejected, len(keptY))
	}
	for _, y := range keptY {
		if y != 12.5 {
			t.Fatalf("outlier survived: %v", keptY)
		}
	}
}

func TestScreenPairsKeepsCleanData(t *testing.T) {
	// Distinct X values with distinct Y values: residuals are all zero and
	// nothing is rejected, no matter how wide the Y range is.
	var xs [][]float64
	var ys []float64
	for i := 0; i < 20; i++ {
		xs = append(xs, []float64{float64(i)}, []float64{float64(i)})
		ys = append(ys, float64(i*400), float64(i*400))
	}
	_, keptY, rejected := screenXY(xs, ys)
	if rejected != 0 || len(keptY) != len(ys) {
		t.Fatalf("clean data screened: rejected %d", rejected)
	}
}

func TestScreenPairsBacksOffWhenEverythingLooksWrong(t *testing.T) {
	// Two observations per X that never agree: over half the pairs exceed
	// any tolerance, so the screen must keep all of them.
	var xs [][]float64
	var ys []float64
	for i := 0; i < 10; i++ {
		xs = append(xs, []float64{float64(i)}, []float64{float64(i)})
		ys = append(ys, 0, float64(1000+i*1000))
	}
	_, keptY, rejected := screenXY(xs, ys)
	if rejected != 0 || len(keptY) != len(ys) {
		t.Fatalf("screen did not back off: rejected %d of %d", rejected, len(ys))
	}
}

func TestAssembleDegradedAttribution(t *testing.T) {
	stats := TrafficStats{ErrorsByID: map[uint32]int{0x7E8: 3, 0x700: 1}}
	streams := []StreamData{
		{Key: StreamKey{Proto: "UDS", RespID: 0x7E8, DID: 0xF40D}, Label: "Vehicle speed"},
		{Key: StreamKey{Proto: "UDS", RespID: 0x7E9, DID: 0xF405}, Label: "Clean stream"},
	}
	got := assembleDegraded(stats, streams)
	if len(got) != 2 {
		t.Fatalf("entries = %+v, want 2", got)
	}
	if got[0].Key != streams[0].Key || got[0].Stage != "assemble" || got[0].Reason != "transport-errors" {
		t.Fatalf("attributed entry = %+v", got[0])
	}
	if got[1].Key != (StreamKey{}) || !strings.Contains(got[1].Detail, "700") {
		t.Fatalf("unattributed entry = %+v", got[1])
	}
}

func TestStreamErrorRendering(t *testing.T) {
	se := StreamError{
		Key:    StreamKey{Proto: "UDS", RespID: 0x7E8, DID: 0xF40D},
		Label:  "Vehicle speed",
		Stage:  "infer",
		Reason: "panic",
		Detail: "inference panicked: boom",
	}
	if msg := se.Error(); !strings.Contains(msg, "infer degraded (panic)") {
		t.Fatalf("Error() = %q", msg)
	}
	raw, err := json.Marshal(se)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["id"] != "UDS DID F40D @7E8" || m["stage"] != "infer" || m["reason"] != "panic" {
		t.Fatalf("json = %s", raw)
	}
	// The zero key omits the id field entirely.
	raw, _ = json.Marshal(StreamError{Stage: "assemble", Reason: "transport-errors"})
	if strings.Contains(string(raw), `"id"`) {
		t.Fatalf("zero key rendered an id: %s", raw)
	}
}

// panicObserver makes every GP generation panic, simulating a crash inside
// one stream's inference.
type panicObserver struct{}

func (panicObserver) Generation(gp.GenerationStats) { panic("injected inference crash") }

func TestReverseContainsInferencePanics(t *testing.T) {
	cap, _ := collect(t, "Car M")
	cfg := testConfig()
	cfg.GP.Observer = panicObserver{}
	rv := New(WithConfig(cfg), WithParallelism(4))
	res, err := rv.Reverse(context.Background(), cap)
	if err != nil {
		t.Fatalf("best-effort run failed outright: %v", err)
	}
	var panics int
	for _, se := range res.Degraded {
		if se.Stage == "infer" && se.Reason == "panic" {
			panics++
			if !strings.Contains(se.Detail, "injected inference crash") {
				t.Fatalf("panic detail lost: %+v", se)
			}
		}
	}
	if panics == 0 {
		t.Fatalf("no infer panics reported; degraded = %+v", res.Degraded)
	}
	// Every stream still has its slot; panicked ones are formula-less but
	// keep their identity.
	if len(res.ESVs) != len(res.Streams) {
		t.Fatalf("ESVs %d != streams %d", len(res.ESVs), len(res.Streams))
	}
	for _, e := range res.ESVs {
		if e.Key == (StreamKey{}) {
			t.Fatal("a panicked stream lost its key")
		}
		if e.Formula != nil {
			t.Fatal("a formula survived a panicking observer")
		}
	}
}

func TestReverseStrictPolicyFailsOnDegraded(t *testing.T) {
	cap, _ := collect(t, "Car M")
	cfg := testConfig()
	cfg.GP.Observer = panicObserver{}
	res, err := New(WithConfig(cfg), WithFaultPolicy(Strict)).Reverse(context.Background(), cap)
	if res != nil {
		t.Fatal("strict run returned a result alongside the error")
	}
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DegradedError", err)
	}
	if de.Result == nil || len(de.Result.Degraded) == 0 {
		t.Fatal("DegradedError lost the partial result")
	}
	if !strings.Contains(de.Error(), "degraded") {
		t.Fatalf("Error() = %q", de.Error())
	}
}

func TestDegradedStreamsMetric(t *testing.T) {
	cap, _ := collect(t, "Car M")
	tel := telemetry.New(telemetry.NewManualClock(0))
	// Damage the capture's transport layer: duplicate every 10th frame so
	// the reassemblers see (and salvage) duplicate consecutive frames.
	frames := cap.Frames
	cap.Frames = nil
	for i, f := range frames {
		cap.Frames = append(cap.Frames, f)
		if i%10 == 9 {
			cap.Frames = append(cap.Frames, f)
		}
	}
	rv := New(WithConfig(testConfig()), WithTelemetry(tel))
	res, err := rv.Reverse(context.Background(), cap)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) == 0 {
		t.Fatal("duplicated frames produced no degradation report")
	}
	byStage := map[string]int{}
	for _, se := range res.Degraded {
		byStage[se.Stage]++
	}
	cv := tel.Metrics.CounterVec(telemetry.MetricDegradedStreams, "", "stage")
	for stage, n := range byStage {
		if got := cv.With(stage).Value(); got != float64(n) {
			t.Errorf("metric stage %q = %v, want %d", stage, got, n)
		}
	}
}
