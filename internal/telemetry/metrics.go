package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds metric families. It is safe for concurrent use; all
// exposition (Prometheus text, JSON) iterates a sorted snapshot, so output
// is deterministic regardless of registration or update order.
//
// Registration is idempotent: asking for an existing name with the same
// kind and label names returns the existing family, and mismatched
// re-registration panics (it is always a programming error).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// family is one named metric with a fixed kind and label schema.
type family struct {
	name, help, kind string
	labelNames       []string
	buckets          []float64 // histogram kind only

	mu     sync.Mutex
	series map[string]any // label-value key -> *Counter/*Gauge/*Histogram
	order  []string       // insertion order of keys (sorted at exposition)
}

const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

func (r *Registry) family(name, help, kind string, buckets []float64, labels []string) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labelNames) != len(labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s(%v), was %s(%v)",
				name, kind, labels, f.kind, f.labelNames))
		}
		for i := range labels {
			if f.labelNames[i] != labels[i] {
				panic(fmt.Sprintf("telemetry: metric %q re-registered with labels %v, was %v",
					name, labels, f.labelNames))
			}
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labelNames: append([]string(nil), labels...),
		buckets:    buckets,
		series:     map[string]any{},
	}
	r.families[name] = f
	return f
}

// labelEscaper escapes the series-key separator and the escape character
// itself; a Replacer is safe for concurrent use.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\x1f", `\x1f`)

// seriesKey joins label values with a separator that cannot appear
// unescaped; label values are free-form, so escape the separator. A
// single value with nothing to escape is its own key, so resolving an
// existing single-label series allocates nothing.
func seriesKey(values []string) string {
	if len(values) == 1 && !strings.ContainsAny(values[0], "\\\x1f") {
		return values[0]
	}
	var b strings.Builder
	for i, v := range values {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		labelEscaper.WriteString(&b, v)
	}
	return b.String()
}

// get returns the series for the label values, creating it with make on
// first use. make receives a copy of values that the series may keep.
func (f *family) get(values []string, make func(vals []string) any) any {
	if f == nil {
		return nil
	}
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %q used with %d label values, schema has %d",
			f.name, len(values), len(f.labelNames)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	// Callers are this package's own metric constructors; the closure only
	// allocates the series value, it cannot block or touch the registry.
	s := make(append([]string(nil), values...)) //dplint:allow lockhold the callback is a package-private allocation closure, not user code
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// Counter is a monotonically increasing value. All methods are safe on a
// nil receiver (no-ops), so disabled telemetry costs one nil check.
type Counter struct {
	bits atomic.Uint64 // float64 bits
	vals []string
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v; negative v is ignored.
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the current total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
	vals []string
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by v (negative v decreases it).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (upper-bound
// inclusive, Prometheus-style cumulative at exposition) plus a sum and a
// count. Buckets are fixed at registration so aggregation across scrapes
// is sound.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // strictly increasing upper bounds; +Inf implicit
	counts []uint64  // len(bounds)+1, last is the +Inf overflow
	sum    float64
	total  uint64
	vals   []string
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.total++
}

// ObserveDuration records a duration in seconds — the unit every
// *_seconds histogram in the repo uses.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// snapshot returns cumulative bucket counts, the sum and the total count.
func (h *Histogram) snapshot() (bounds []float64, cumulative []uint64, sum float64, total uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cumulative[i] = acc
	}
	return h.bounds, cumulative, h.sum, h.total
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum reports the running sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// DurationBuckets is the default latency bucket ladder (seconds): wide
// enough to cover a microsecond frame feed and a two-minute full-budget
// GP stream in one schema.
var DurationBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.5, 1, 5, 15, 60, 120,
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, help, kindCounter, nil, nil)
	return f.get(nil, func([]string) any { return &Counter{} }).(*Counter)
}

// CounterVec registers (or fetches) a counter family with label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.family(name, help, kindCounter, nil, labels)}
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.family(name, help, kindGauge, nil, nil)
	return f.get(nil, func([]string) any { return &Gauge{} }).(*Gauge)
}

// GaugeVec registers (or fetches) a gauge family with label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.family(name, help, kindGauge, nil, labels)}
}

// Histogram registers (or fetches) an unlabeled histogram. nil buckets
// mean DurationBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DurationBuckets
	}
	f := r.family(name, help, kindHistogram, buckets, nil)
	return f.get(nil, func([]string) any { return newHistogram(f.buckets, nil) }).(*Histogram)
}

// HistogramVec registers (or fetches) a histogram family with label names.
// nil buckets mean DurationBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DurationBuckets
	}
	return &HistogramVec{f: r.family(name, help, kindHistogram, buckets, labels)}
}

func newHistogram(bounds []float64, vals []string) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]uint64, len(bounds)+1),
		vals:   vals,
	}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With resolves (creating on first use) the series for the label values.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.get(values, func(vals []string) any { return &Counter{vals: vals} }).(*Counter)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With resolves (creating on first use) the series for the label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.get(values, func(vals []string) any { return &Gauge{vals: vals} }).(*Gauge)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With resolves (creating on first use) the series for the label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.get(values, func(vals []string) any { return newHistogram(v.f.buckets, vals) }).(*Histogram)
}

// sortedFamilies snapshots the registry's families sorted by name, each
// with its series keys sorted, so exposition is deterministic.
func (r *Registry) sortedFamilies() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedSeries returns the family's series in label-value order.
func (f *family) sortedSeries() []any {
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	f.mu.Unlock()
	sort.Strings(keys)
	out := make([]any, 0, len(keys))
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, k := range keys {
		out = append(out, f.series[k])
	}
	return out
}
