package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one workload run measured.
type report struct {
	Workload string
	// Attempted counts the operations the workload issued (jobs run or
	// submits sent); Failed those that erred, were refused unexpectedly,
	// did not finish done, or returned a result unlike the reference.
	Attempted, Failed int
	// Wrong lists why the run's outputs are not correct: each failure,
	// plus a formula recovery below its floor.
	Wrong   []string
	Metrics map[string]metric
	order   []string
	// Self is each span name's summed self time in ms (traced runs).
	Self map[string]float64
}

func newReport(workload string) *report {
	return &report{Workload: workload, Metrics: map[string]metric{}}
}

func (r *report) set(name, unit string, v float64) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records one failed operation.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	r.Wrong = append(r.Wrong, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.Wrong) == 0 }

// print writes the report as "name value unit" lines under a header.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "# %s: attempted %d, failed %d, correct %v\n", r.Workload, r.Attempted, r.Failed, r.correct())
	for i, why := range r.Wrong {
		if i == 10 {
			fmt.Fprintf(w, "#   ... %d more\n", len(r.Wrong)-i)
			break
		}
		fmt.Fprintf(w, "#   wrong: %s\n", why)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	names := make([]string, 0, len(r.Self))
	for name := range r.Self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-34s %14.4f ms\n", "trace.self."+name, r.Self[name])
	}
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// setLatency records a latency sample's median, tail percentiles and size
// under prefix ("job" gives job_p50_ms, job_p90_ms, ...).
func (r *report) setLatency(prefix string, ms []float64) {
	r.set(prefix+"_p50_ms", "ms", quantile(ms, 0.50))
	r.set(prefix+"_p90_ms", "ms", quantile(ms, 0.90))
	r.set(prefix+"_p95_ms", "ms", quantile(ms, 0.95))
	r.set(prefix+"_p99_ms", "ms", quantile(ms, 0.99))
	r.set(prefix+"_samples", "count", float64(len(ms)))
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// settle collects garbage and returns freed memory to the OS, so one
// phase's garbage is not collected on the next phase's clock.
func settle() { debug.FreeOSMemory() }

// heapBytes reads the live heap.
func heapBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// allocBytes reads the cumulative bytes allocated by the process.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
