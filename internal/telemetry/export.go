package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheusFiltered renders the families for which keep returns
// true (nil keep means all; this is the ?family=/?prefix= query filter
// behind /metrics) in the Prometheus text exposition format (version
// 0.0.4): HELP/TYPE headers, one line per series, histograms as
// cumulative le-buckets plus _sum and _count. Families and series are
// sorted, so the output is byte-stable for a given state.
func (r *Registry) WritePrometheusFiltered(w io.Writer, keep func(name string) bool) error {
	for _, f := range r.sortedFamilies() {
		if keep != nil && !keep(f.name) {
			continue
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.sortedSeries() {
			if err := writePromSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromSeries(w io.Writer, f *family, s any) error {
	switch m := s.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s %s\n", promName(f.name, f.labelNames, m.vals, nil), formatFloat(m.Value()))
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s %s\n", promName(f.name, f.labelNames, m.vals, nil), formatFloat(m.Value()))
		return err
	case *Histogram:
		bounds, cum, sum, total := m.snapshot()
		for i, b := range bounds {
			le := []string{"le", formatFloat(b)}
			if _, err := fmt.Fprintf(w, "%s %d\n",
				promName(f.name+"_bucket", f.labelNames, m.vals, le), cum[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n",
			promName(f.name+"_bucket", f.labelNames, m.vals, []string{"le", "+Inf"}), total); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n",
			promName(f.name+"_sum", f.labelNames, m.vals, nil), formatFloat(sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", promName(f.name+"_count", f.labelNames, m.vals, nil), total)
		return err
	}
	return nil
}

// promName renders name{label="value",...}; extra is an optional trailing
// key/value pair (the histogram le label).
func promName(name string, labels, values, extra []string) string {
	if len(labels) == 0 && extra == nil {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	first := true
	for i, l := range labels {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%s=%q", l, escapeLabel(values[i]))
	}
	if extra != nil {
		if !first {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extra[0], escapeLabel(extra[1]))
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	// %q already escapes backslash and quote; newlines become \n through it
	// too, so the only normalisation needed is none — but keep the helper
	// so the escaping rule has one home.
	return v
}

func escapeHelp(h string) string {
	return strings.NewReplacer("\\", "\\\\", "\n", "\\n").Replace(h)
}

// formatFloat renders floats the way Prometheus does: shortest
// round-trippable decimal, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// JSONMetric is one family in the JSON dump.
type JSONMetric struct {
	Name   string       `json:"name"`
	Help   string       `json:"help,omitempty"`
	Kind   string       `json:"kind"`
	Labels []string     `json:"labels,omitempty"`
	Series []JSONSeries `json:"series"`
}

// JSONSeries is one labeled series: a scalar value for counters and
// gauges, buckets/sum/count for histograms.
type JSONSeries struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  *float64          `json:"value,omitempty"`
	Count  *uint64           `json:"count,omitempty"`
	Sum    *float64          `json:"sum,omitempty"`
	// Buckets holds cumulative counts per upper bound; the final entry's
	// Le is "+Inf".
	Buckets []JSONBucket `json:"buckets,omitempty"`
}

// JSONBucket is one cumulative histogram bucket.
type JSONBucket struct {
	Le    string `json:"le"`
	Count uint64 `json:"count"`
}

// SnapshotFiltered returns the current state of the families for which
// keep returns true (nil keep means all) in the JSON dump shape,
// deterministically ordered.
func (r *Registry) SnapshotFiltered(keep func(name string) bool) []JSONMetric {
	var out []JSONMetric
	for _, f := range r.sortedFamilies() {
		if keep != nil && !keep(f.name) {
			continue
		}
		jm := JSONMetric{Name: f.name, Help: f.help, Kind: f.kind, Labels: f.labelNames}
		for _, s := range f.sortedSeries() {
			jm.Series = append(jm.Series, jsonSeries(f, s))
		}
		out = append(out, jm)
	}
	return out
}

func jsonSeries(f *family, s any) JSONSeries {
	js := JSONSeries{}
	var vals []string
	switch m := s.(type) {
	case *Counter:
		v := m.Value()
		js.Value, vals = &v, m.vals
	case *Gauge:
		v := m.Value()
		js.Value, vals = &v, m.vals
	case *Histogram:
		bounds, cum, sum, total := m.snapshot()
		for i, b := range bounds {
			js.Buckets = append(js.Buckets, JSONBucket{Le: formatFloat(b), Count: cum[i]})
		}
		js.Buckets = append(js.Buckets, JSONBucket{Le: "+Inf", Count: total})
		js.Count, js.Sum, vals = &total, &sum, m.vals
	}
	if len(f.labelNames) > 0 {
		js.Labels = map[string]string{}
		for i, l := range f.labelNames {
			js.Labels[l] = vals[i]
		}
	}
	return js
}

// WriteJSON renders the registry as an indented JSON document:
// {"metrics": [...]}. Like the Prometheus writer it is fully sorted, so
// two registries in the same state dump byte-identically.
func (r *Registry) WriteJSON(w io.Writer) error {
	return r.WriteJSONFiltered(w, nil)
}

// WriteJSONFiltered is WriteJSON restricted to families for which keep
// returns true (nil keep means all).
func (r *Registry) WriteJSONFiltered(w io.Writer, keep func(name string) bool) error {
	doc := struct {
		Metrics []JSONMetric `json:"metrics"`
	}{Metrics: r.SnapshotFiltered(keep)}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
