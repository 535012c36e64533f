package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"dpreverser/internal/reverser"
	"dpreverser/internal/telemetry"
)

// env is what one workload run shares.
type env struct {
	o     options
	cars  []*fleetCar
	cfg   reverser.Config
	dur   time.Duration
	clock telemetry.Clock
	// tr records the run's spans; nil (every span a no-op) when untraced.
	tr  *telemetry.Tracer
	rep *report
	// measured is the wall time of the measured phase, which the tracing
	// overhead is stated against.
	measured time.Duration
}

// runWorkload generates the inputs, sets the workload up, measures it
// and, when traced, adds the per-layer pass and writes the span file.
func runWorkload(o options, name string, logw io.Writer) (*report, error) {
	clock := telemetry.NewWallClock()
	rep := newReport(name)
	cfg := budget(name != fleetBatch)
	t := clock.Now()
	cars, err := prepareInputs(o.Seed, o.Cars, cfg)
	if err != nil {
		return nil, err
	}
	rep.set("bench.inputs_s", "s", (clock.Now() - t).Seconds())
	fmt.Fprintf(logw, "bench: %s: %d cars, inputs in %.2f s\n", name, len(cars), rep.Metrics["bench.inputs_s"].Value)

	e := &env{o: o, cars: cars, cfg: cfg, dur: time.Duration(o.Seconds * float64(time.Second)), clock: clock, rep: rep}
	if o.Trace {
		e.tr = telemetry.NewTracer(clock)
	}
	if name == fleetBatch {
		err = e.runFleetBatch()
	} else {
		err = e.runServer(name)
	}
	if err != nil {
		return nil, err
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		rep.set("bench.max_rss_mb", "MB", float64(ru.Maxrss)/1024)
	}
	if o.Trace {
		workSpans := len(e.tr.Spans())
		settle()
		if err := e.layerPass(); err != nil {
			return nil, err
		}
		rep.set("trace.overhead_ratio", "ratio", float64(workSpans)*float64(spanCost(clock))/float64(e.measured))
		rep.Self = selfTimes(e.tr.Spans())
		if err := writeTrace(e.tr, filepath.Join(o.TraceDir, "trace-"+name+".json")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// setups is how many times a workload is set up; setup_s is the median.
const setups = 3

// measureSetup runs setup setups times and records the median as
// setup_s. Each set-up but the last is torn down again; the last one's
// teardown is returned. Set-up is not traced.
func (e *env) measureSetup(setup func() (teardown func(), err error)) (func(), error) {
	tr := e.tr
	e.tr = nil
	defer func() { e.tr = tr }()
	var times []float64
	teardown := func() {}
	for i := 0; i < setups; i++ {
		teardown()
		settle()
		t := e.clock.Now()
		td, err := setup()
		if err != nil {
			return nil, err
		}
		times = append(times, (e.clock.Now() - t).Seconds())
		teardown = td
	}
	e.rep.set("setup_s", "s", quantile(times, 0.5))
	return teardown, nil
}

// runFleetBatch is the paper's own job: every fleet capture reversed in
// process at Parallelism 2 and the paper GP budget, pass after pass. Set-up
// builds the Reverser and runs one warm-up pass; measurement stops at the
// first pass boundary after the run length, so every car is weighted alike.
func (e *env) runFleetBatch() error {
	var rv *reverser.Reverser
	if _, err := e.measureSetup(func() (func(), error) {
		rv = reverser.New(reverser.WithConfig(e.cfg), reverser.WithParallelism(2))
		for _, c := range e.cars {
			e.batchJob(rv, c)
		}
		return func() {}, nil
	}); err != nil {
		return err
	}
	settle()
	var lat []float64
	var done []*fleetCar
	start := e.clock.Now()
	for e.clock.Now()-start < e.dur {
		for _, c := range e.cars {
			if ms, ok := e.batchJob(rv, c); ok {
				lat = append(lat, ms)
				done = append(done, c)
			}
		}
	}
	e.measured = e.clock.Now() - start
	settle()
	e.rep.set("jobs_per_s", "jobs/s", float64(len(done))/e.measured.Seconds())
	e.setJobs(done, lat)
	e.rep.set("heap.end_mb", "MB", float64(heapBytes())/(1<<20))
	return nil
}

// batchJob reverses one capture and renders its result document, as
// `dpreverse -json` does; the latency covers both. The document must
// match the Parallelism-1 reference byte for byte.
func (e *env) batchJob(rv *reverser.Reverser, c *fleetCar) (float64, bool) {
	e.rep.Attempted++
	root := e.tr.Start("job", telemetry.String("car", c.Name))
	defer root.End()
	start := e.clock.Now()
	sp := root.Child("reverse")
	res, err := rv.Reverse(context.Background(), c.Capture)
	sp.End()
	if err != nil {
		e.rep.fail("%s: %v", c.Name, err)
		return 0, false
	}
	sp = root.Child("encode")
	doc, err := encodeResult(res)
	sp.End()
	ms := millis(e.clock.Now() - start)
	if err != nil {
		e.rep.fail("%s: %v", c.Name, err)
		return 0, false
	}
	if sha256.Sum256(doc) != c.Ref {
		e.rep.fail("%s: result differs from the reference", c.Name)
		return 0, false
	}
	return ms, true
}

// setJobs records the latency metrics of the finished jobs (done[i] took
// lat[i] ms) and their formula recovery, which marks the run wrong below
// its floor.
func (e *env) setJobs(done []*fleetCar, lat []float64) {
	e.rep.setLatency("job", lat)
	r := recovery(done)
	e.rep.set("formula_recovery", "ratio", r)
	if r < recoveryFloor {
		e.rep.Wrong = append(e.rep.Wrong, fmt.Sprintf("formula recovery %.4f below the floor %.2f", r, recoveryFloor))
	}
}

// writeTrace writes the recorded spans as Chrome-trace JSON.
func writeTrace(tr *telemetry.Tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
