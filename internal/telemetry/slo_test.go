package telemetry

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSLOCountsGoodAndBad(t *testing.T) {
	reg := NewRegistry()
	clock := NewManualClock(0)
	slo := NewSLO(reg, clock, "queue-wait", 5*time.Second, 0.9)

	for i := 0; i < 9; i++ {
		slo.Observe(time.Second)
	}
	slo.Observe(time.Minute)

	st := slo.Status()
	if st.Good != 9 || st.Bad != 1 {
		t.Fatalf("good/bad = %d/%d, want 9/1", st.Good, st.Bad)
	}
	// 10% bad over a 10% error budget → burn exactly 1.0 in every window.
	for w, b := range st.Burn {
		if math.Abs(b-1.0) > 1e-9 {
			t.Errorf("burn[%s] = %g, want 1.0", w, b)
		}
	}

	var dump strings.Builder
	if err := reg.WritePrometheusFiltered(&dump, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		MetricSLOJobs + `{slo="queue-wait",verdict="good"} 9`,
		MetricSLOJobs + `{slo="queue-wait",verdict="bad"} 1`,
		MetricSLOBurn + `{slo="queue-wait",window="5m0s"} 1`,
	} {
		if !strings.Contains(dump.String(), want) {
			t.Errorf("prometheus dump missing %q", want)
		}
	}
}

func TestSLOBurnDecaysAsSamplesAge(t *testing.T) {
	clock := NewManualClock(0)
	slo := NewSLO(NewRegistry(), clock, "run", time.Second, 0.99)

	slo.Observe(time.Minute) // bad at t=0
	if b := slo.Burn(5 * time.Minute); math.Abs(b-100) > 1e-9 {
		t.Fatalf("burn = %g, want 100 (all-bad over 1%% budget)", b)
	}

	// Age the bad sample out of the 5m window; fresh good samples remain.
	clock.Advance(6 * time.Minute)
	slo.Observe(time.Millisecond)
	if b := slo.Burn(5 * time.Minute); b != 0 {
		t.Errorf("short-window burn = %g, want 0 after bad sample aged out", b)
	}
	if b := slo.Burn(time.Hour); math.Abs(b-50) > 1e-9 {
		t.Errorf("long-window burn = %g, want 50 (1 bad of 2 over 1%% budget)", b)
	}
}

func TestSLOSampleRingBounded(t *testing.T) {
	clock := NewManualClock(0)
	slo := NewSLO(NewRegistry(), clock, "x", time.Second, 0.99)
	for i := 0; i < sloSampleCap+100; i++ {
		slo.Observe(time.Millisecond)
	}
	slo.mu.Lock()
	n := len(slo.samples)
	slo.mu.Unlock()
	if n != sloSampleCap {
		t.Fatalf("sample ring grew to %d, want bound %d", n, sloSampleCap)
	}
}

func TestSLONilRegistryStillClassifies(t *testing.T) {
	slo := NewSLO(nil, NewManualClock(0), "x", time.Second, 0.5)
	slo.Observe(2 * time.Second)
	if b := slo.Burn(time.Hour); math.Abs(b-2) > 1e-9 {
		t.Errorf("burn = %g, want 2 (all-bad over 50%% budget)", b)
	}
	var nilSLO *SLO
	nilSLO.Observe(time.Second)
	nilSLO.Sample()
	if nilSLO.Burn(time.Minute) != 0 || nilSLO.Status().Name != "" {
		t.Error("nil SLO not inert")
	}
}

func TestRuntimeMetricsSample(t *testing.T) {
	reg := NewRegistry()
	rm := NewRuntimeMetrics(reg)
	s := rm.Sample()
	if s.Goroutines < 1 || s.HeapAlloc == 0 {
		t.Fatalf("implausible runtime sample %+v", s)
	}
	var dump strings.Builder
	if err := reg.WritePrometheusFiltered(&dump, nil); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		MetricRuntimeGoroutines, MetricRuntimeHeapAlloc, MetricRuntimeHeapObjects,
		MetricRuntimeGCPauseTotal, MetricRuntimeGCCycles,
	} {
		if !strings.Contains(dump.String(), "# TYPE "+fam+" gauge") {
			t.Errorf("dump missing runtime family %s", fam)
		}
	}
	var nilRM *RuntimeMetrics
	if s := nilRM.Sample(); s.Goroutines < 1 {
		t.Error("nil RuntimeMetrics sample should still read the runtime")
	}
}

func TestNameFilter(t *testing.T) {
	q := map[string][]string{"family": {"a_total"}, "prefix": {"dp_"}}
	keep := NameFilter(q)
	for name, want := range map[string]bool{"a_total": true, "dp_x": true, "b_total": false} {
		if keep(name) != want {
			t.Errorf("keep(%q) = %v, want %v", name, keep(name), want)
		}
	}
	if NameFilter(map[string][]string{}) != nil {
		t.Error("empty query should produce nil filter")
	}
}
