package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// raceDetector is set when the tests run under -race.
var raceDetector bool

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestBenchmarkSmoke runs every workload traced at tiny scale — one car
// per transport (ISO-TP, VW TP 2.0, BMW) and a fraction of a second each —
// and checks what the full benchmark promises: every metric
// BENCHMARK.json names is emitted with its unit, no operation fails,
// span self times are not negative, the layers explain the whole
// pipeline run, and the summary is the last line of output.
func TestBenchmarkSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	for _, w := range spec.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark does not run", w.Name)
		}
	}
	for _, list := range []struct {
		spec []specMetric
		code []string
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		var listed []string
		for _, m := range list.spec {
			listed = append(listed, m.Name)
		}
		if !slices.Equal(listed, list.code) {
			t.Errorf("BENCHMARK.json lists %v, the summary carries %v", listed, list.code)
		}
	}

	dir := t.TempDir()
	o := options{
		Workloads: workloads, Seed: 1, Seconds: 0.3, Trace: true, TraceDir: dir,
		Cars: []string{"Car M", "Car B", "Car E"},
	}
	var out bytes.Buffer
	sum, reps, err := run(o, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			got, ok := rep.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s not emitted", rep.Workload, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("%s: %s in %s, BENCHMARK.json says %s", rep.Workload, m.Name, got.Unit, m.Unit)
			}
		}
		if rep.Failed != 0 || !rep.correct() {
			t.Errorf("%s: %d of %d operations failed: %v", rep.Workload, rep.Failed, rep.Attempted, rep.Wrong)
		}
		for name, ms := range rep.Self {
			if ms < 0 {
				t.Errorf("%s: span %s self time %.4f ms", rep.Workload, name, ms)
			}
		}
		if r := rep.Metrics["reverser.attributed_ratio"].Value; !raceDetector && (r < 0.9 || r > 1.1) {
			t.Errorf("%s: reverser.attributed_ratio %.3f outside [0.9, 1.1]", rep.Workload, r)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+rep.Workload+".json")); err != nil {
			t.Errorf("%s: span file: %v", rep.Workload, err)
		}
	}
	if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
		t.Errorf("summary correct=%v attempted=%d failed=%d", sum.Correct, sum.Attempted, sum.Failed)
	}

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last output line is not the JSON summary: %v", err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Errorf("summary keys %v, want %v", keys, want)
	}
}
