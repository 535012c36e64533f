package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "help")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotonic
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	g := reg.Gauge("g", "help")
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %v, want 6", got)
	}
	// Re-registration returns the same series.
	if reg.Counter("c_total", "help").Value() != 3.5 {
		t.Fatal("re-registration did not return the existing counter")
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil metrics must read zero")
	}
	var reg *Registry
	reg.Counter("x", "").Inc()
	reg.CounterVec("y", "", "l").With("v").Inc()
	reg.Histogram("z", "", nil).Observe(1)
	if reg.SnapshotFiltered(nil) != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	bounds, cum, sum, total := h.snapshot()
	if len(bounds) != 3 {
		t.Fatalf("bounds = %v", bounds)
	}
	// le=0.1 captures 0.05 and 0.1 (upper-bound inclusive); le=1 adds 0.5;
	// le=10 adds 5; +Inf adds 50.
	if cum[0] != 2 || cum[1] != 3 || cum[2] != 4 || total != 5 {
		t.Fatalf("cumulative = %v, total %d", cum, total)
	}
	if math.Abs(sum-55.65) > 1e-9 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestVecSeriesIndependent(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("errs_total", "", "transport", "reason")
	v.With("isotp", "bad-sequence").Add(3)
	v.With("vwtp", "length-mismatch").Inc()
	if v.With("isotp", "bad-sequence").Value() != 3 {
		t.Fatal("labeled series not stable")
	}
	if v.With("vwtp", "length-mismatch").Value() != 1 {
		t.Fatal("second series wrong")
	}
}

// Resolving an existing single-label series allocates nothing, and the
// series keys, escapes included, keep their encoding.
func TestVecWithExistingSeries(t *testing.T) {
	reg := NewRegistry()
	c := reg.CounterVec("c_total", "", "stage")
	g := reg.GaugeVec("g", "", "stage")
	h := reg.HistogramVec("h_seconds", "", nil, "stage")
	c.With("infer").Inc()
	g.With("infer").Set(1)
	h.With("infer").Observe(1)
	if allocs := testing.AllocsPerRun(100, func() {
		c.With("infer").Inc()
		g.With("infer").Add(1)
		h.With("infer").Observe(1)
	}); allocs != 0 {
		t.Fatalf("With on existing single-label series allocates %v times", allocs)
	}
	for _, k := range []struct {
		values []string
		want   string
	}{
		{nil, ""},
		{[]string{"infer"}, "infer"},
		{[]string{`a\b`}, `a\\b`},
		{[]string{"a\x1fb"}, `a\x1fb`},
		{[]string{"isotp", "bad-sequence"}, "isotp\x1fbad-sequence"},
		{[]string{`x\`, "y\x1f", ""}, `x\\` + "\x1f" + `y\x1f` + "\x1f"},
	} {
		if got := seriesKey(k.values); got != k.want {
			t.Errorf("seriesKey(%q) = %q, want %q", k.values, got, k.want)
		}
	}
}

func TestMismatchedReRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	reg.Gauge("m", "")
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("dp_errs_total", "errors by kind", "kind").With(`with"quote`).Add(2)
	reg.Gauge("dp_up", "").Set(1)
	h := reg.Histogram("dp_lat_seconds", "latency", []float64{0.5, 1})
	h.Observe(0.2)
	h.Observe(3)

	var b bytes.Buffer
	if err := reg.WritePrometheusFiltered(&b, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP dp_errs_total errors by kind",
		"# TYPE dp_errs_total counter",
		"dp_errs_total{kind=\"with\\\"quote\"} 2",
		"# TYPE dp_lat_seconds histogram",
		`dp_lat_seconds_bucket{le="0.5"} 1`,
		`dp_lat_seconds_bucket{le="1"} 1`,
		`dp_lat_seconds_bucket{le="+Inf"} 2`,
		"dp_lat_seconds_sum 3.2",
		"dp_lat_seconds_count 2",
		"# TYPE dp_up gauge",
		"dp_up 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must be sorted by name.
	if strings.Index(out, "dp_errs_total") > strings.Index(out, "dp_up") {
		t.Error("families not sorted")
	}
}

// Two registries populated in different orders must dump byte-identically
// — the property the pipeline's determinism test builds on.
func TestExpositionDeterministicAcrossInsertionOrder(t *testing.T) {
	build := func(flip bool) *Registry {
		reg := NewRegistry()
		v := reg.CounterVec("a_total", "h", "k")
		if flip {
			v.With("y").Add(2)
			v.With("x").Inc()
			reg.Gauge("b", "h").Set(5)
		} else {
			reg.Gauge("b", "h").Set(5)
			v.With("x").Inc()
			v.With("y").Add(2)
		}
		return reg
	}
	var p1, p2, j1, j2 bytes.Buffer
	if err := build(false).WritePrometheusFiltered(&p1, nil); err != nil {
		t.Fatal(err)
	}
	if err := build(true).WritePrometheusFiltered(&p2, nil); err != nil {
		t.Fatal(err)
	}
	if p1.String() != p2.String() {
		t.Errorf("prometheus output order-dependent:\n%s\nvs\n%s", p1.String(), p2.String())
	}
	if err := build(false).WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := build(true).WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Errorf("JSON output order-dependent:\n%s\nvs\n%s", j1.String(), j2.String())
	}
}

func TestJSONDumpShape(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("n_total", "things").Add(7)
	reg.Histogram("d_seconds", "", []float64{1}).Observe(0.5)
	var b bytes.Buffer
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []JSONMetric `json:"metrics"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("dump does not parse: %v\n%s", err, b.String())
	}
	if len(doc.Metrics) != 2 {
		t.Fatalf("families = %d, want 2", len(doc.Metrics))
	}
	if doc.Metrics[0].Name != "d_seconds" || doc.Metrics[0].Kind != "histogram" {
		t.Fatalf("first family = %+v", doc.Metrics[0])
	}
	hist := doc.Metrics[0].Series[0]
	if hist.Count == nil || *hist.Count != 1 || len(hist.Buckets) != 2 {
		t.Fatalf("histogram series = %+v", hist)
	}
	if doc.Metrics[1].Series[0].Value == nil || *doc.Metrics[1].Series[0].Value != 7 {
		t.Fatalf("counter series = %+v", doc.Metrics[1].Series[0])
	}
}

// Metric updates must be safe under heavy concurrency (run with -race).
func TestConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	v := reg.CounterVec("v_total", "", "w")
	h := reg.Histogram("h_seconds", "", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w%4))
			for i := 0; i < 1000; i++ {
				c.Inc()
				v.With(lbl).Inc()
				h.Observe(float64(i) / 1000)
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %v, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	var sum float64
	for _, l := range []string{"a", "b", "c", "d"} {
		sum += v.With(l).Value()
	}
	if sum != 8000 {
		t.Fatalf("vec total = %v, want 8000", sum)
	}
}
