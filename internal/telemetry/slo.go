package telemetry

import (
	"sync"
	"time"
)

// SLO tracks one latency objective ("queue wait under 5s", "run under
// 2m") as good/bad counters plus multi-window burn-rate gauges. Every
// observation is classified against the objective; the burn rate over a
// window is the bad fraction within that window divided by the error
// budget (1 - target), so burn 1.0 means "spending budget exactly at the
// sustainable rate" and burn >> 1 means "paging soon". Time comes from
// the injected Clock, so tests drive burn windows with a ManualClock.

// SLO metric names, exported for tests and the CI smoke check.
const (
	// MetricSLOJobs counts observations per objective and verdict
	// (labels: slo, verdict=good|bad).
	MetricSLOJobs = "dpreverser_slo_jobs_total"
	// MetricSLOBurn gauges the burn rate per objective and window
	// (labels: slo, window).
	MetricSLOBurn = "dpreverser_slo_burn_rate"
)

// SLOWindows are the burn-rate evaluation windows, shortest first — the
// classic fast/slow pair for multi-window alerting.
var SLOWindows = []time.Duration{5 * time.Minute, time.Hour}

// sloSampleCap bounds the per-SLO timestamped sample ring; at the
// default windows this covers hours of steady load without growing.
const sloSampleCap = 4096

// sloSample is one classified observation.
type sloSample struct {
	at   time.Duration
	good bool
}

// SLO is one tracked latency objective. Methods are nil-receiver safe.
type SLO struct {
	name      string
	objective time.Duration
	target    float64

	clock Clock
	good  *Counter
	bad   *Counter
	burn  []*Gauge // parallel to SLOWindows

	mu      sync.Mutex
	samples []sloSample // ring, bounded by sloSampleCap
	start   int
}

// NewSLO registers an objective named name (e.g. "queue-wait"): latency
// observations at or under objective are good; target is the good
// fraction the objective promises (e.g. 0.99). A nil registry still
// returns a functional SLO whose metric writes are no-ops.
func NewSLO(reg *Registry, clock Clock, name string, objective time.Duration, target float64) *SLO {
	if clock == nil {
		clock = NewWallClock()
	}
	if target <= 0 || target >= 1 {
		target = 0.99
	}
	s := &SLO{name: name, objective: objective, target: target, clock: clock}
	jobs := reg.CounterVec(MetricSLOJobs,
		"SLO observations per objective and verdict", "slo", "verdict")
	s.good = jobs.With(name, "good")
	s.bad = jobs.With(name, "bad")
	burn := reg.GaugeVec(MetricSLOBurn,
		"SLO burn rate per objective and window (bad fraction over error budget)", "slo", "window")
	for _, w := range SLOWindows {
		s.burn = append(s.burn, burn.With(name, w.String()))
	}
	return s
}

// Observe classifies one latency observation, updates the counters, and
// refreshes the burn gauges.
func (s *SLO) Observe(d time.Duration) {
	if s == nil {
		return
	}
	good := d <= s.objective
	if good {
		s.good.Inc()
	} else {
		s.bad.Inc()
	}
	now := s.clock.Now()
	s.mu.Lock()
	if len(s.samples) < sloSampleCap {
		s.samples = append(s.samples, sloSample{at: now, good: good})
	} else {
		s.samples[s.start] = sloSample{at: now, good: good}
		s.start = (s.start + 1) % sloSampleCap
	}
	s.mu.Unlock()
	s.Sample()
}

// Burn returns the burn rate over the given window: the bad fraction of
// observations newer than now-window, divided by the error budget. No
// observations in the window means zero burn.
func (s *SLO) Burn(window time.Duration) float64 {
	if s == nil {
		return 0
	}
	now := s.clock.Now()
	cutoff := now - window
	var good, bad int
	s.mu.Lock()
	for i := 0; i < len(s.samples); i++ {
		smp := s.samples[(s.start+i)%len(s.samples)]
		if smp.at < cutoff {
			continue
		}
		if smp.good {
			good++
		} else {
			bad++
		}
	}
	s.mu.Unlock()
	total := good + bad
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - s.target)
}

// Sample recomputes the burn gauges for every window. The job server
// calls this on each scrape/status render, so burn decays as bad
// observations age out even when no new jobs arrive.
func (s *SLO) Sample() {
	if s == nil {
		return
	}
	for i, w := range SLOWindows {
		s.burn[i].Set(s.Burn(w))
	}
}

// SLOStatus is one objective's state for the status surface.
type SLOStatus struct {
	Name        string             `json:"name"`
	ObjectiveMS float64            `json:"objective_ms"`
	Target      float64            `json:"target"`
	Good        uint64             `json:"good"`
	Bad         uint64             `json:"bad"`
	Burn        map[string]float64 `json:"burn"` // window → burn rate
}

// Status snapshots the objective, refreshing the burn gauges as a side
// effect.
func (s *SLO) Status() SLOStatus {
	if s == nil {
		return SLOStatus{}
	}
	s.Sample()
	st := SLOStatus{
		Name:        s.name,
		ObjectiveMS: float64(s.objective.Microseconds()) / 1e3,
		Target:      s.target,
		Good:        uint64(s.good.Value()),
		Bad:         uint64(s.bad.Value()),
		Burn:        make(map[string]float64, len(SLOWindows)),
	}
	for _, w := range SLOWindows {
		st.Burn[w.String()] = s.Burn(w)
	}
	return st
}
