package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"dpreverser/internal/benchdoc"
	"dpreverser/internal/diagtool"
	"dpreverser/internal/jobserver"
	"dpreverser/internal/rig"
	"dpreverser/internal/sim"
	"dpreverser/internal/telemetry"
	"dpreverser/internal/vehicle"
)

// loadtestOptions parameterises the built-in load generator.
type loadtestOptions struct {
	Jobs    int
	Tenants int
	Car     string
	Quick   bool
	Seed    int64
	Out     string
	Date    string
}

// latencyStats summarises one latency sample in milliseconds.
type latencyStats struct {
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// serverReport is one dated load-generator run — an entry in the
// BENCH_server.json history (same artifact format as BENCH_gp.json).
type serverReport struct {
	Date            string `json:"date"`
	Quick           bool   `json:"quick,omitempty"`
	Car             string `json:"car"`
	Jobs            int    `json:"jobs"`
	Tenants         int    `json:"tenants"`
	Shards          int    `json:"shards"`
	WorkersPerShard int    `json:"workers_per_shard"`
	TenantMaxActive int    `json:"tenant_max_active"`
	CaptureFrames   int    `json:"capture_frames"`
	// Rejections counts 429/503 answers the generator absorbed (each is
	// retried after pacing on an in-flight job).
	Rejections int     `json:"rejections"`
	WallMS     float64 `json:"wall_ms"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	// AllocBytesPerJob is the process-wide heap-allocation delta
	// (runtime.MemStats.TotalAlloc) across the run divided by Jobs. The
	// generator shares the process, so this is an upper bound on the
	// server's own per-job footprint — but the generator's share is small
	// and constant-shaped, so the trend tracks the inference pipeline.
	AllocBytesPerJob uint64 `json:"alloc_bytes_per_job"`
	// AllocsPerJob is the matching malloc-count delta per job.
	AllocsPerJob uint64 `json:"allocs_per_job"`
	// Latency is the client-observed submit-to-done time (queueing
	// included); QueueWait and Run are the server's own clock readings
	// from the job snapshots.
	Latency   latencyStats `json:"latency"`
	QueueWait latencyStats `json:"queue_wait"`
	Run       latencyStats `json:"run"`
}

// summarise reduces a millisecond sample.
func summarise(ms []float64) latencyStats {
	if len(ms) == 0 {
		return latencyStats{}
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	pick := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	return latencyStats{
		MeanMS: sum / float64(len(sorted)),
		P50MS:  pick(0.50),
		P90MS:  pick(0.90),
		P95MS:  pick(0.95),
		P99MS:  pick(0.99),
		MaxMS:  sorted[len(sorted)-1],
	}
}

// runLoadtest drives an in-process dpreversed over real HTTP with a
// carsim-collected capture: Jobs submissions fan out across Tenants,
// every job is long-polled to completion, and the throughput/latency
// summary is merged into the BENCH_server.json history.
func runLoadtest(cfg jobserver.Config, opt loadtestOptions) error {
	status := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if opt.Jobs < 1 || opt.Tenants < 1 {
		return fmt.Errorf("loadtest needs at least one job and one tenant")
	}
	if opt.Date == "" {
		opt.Date = time.Now().Format("2006-01-02") //dplint:allow determinism entry dates come from the wall clock
	}

	// One simulated capture, reused for every submission: the generator
	// measures the server, not the simulator.
	p, ok := vehicle.ProfileByCar(opt.Car)
	if !ok {
		return fmt.Errorf("unknown car %q", opt.Car)
	}
	status("loadtest: collecting %s capture (seed %d) ...", p.Car, opt.Seed)
	simClock := sim.NewClock(0)
	tool, veh, err := diagtool.ForProfile(p, simClock)
	if err != nil {
		return err
	}
	defer tool.Close()
	defer veh.Close()
	rigCfg := rig.DefaultConfig()
	rigCfg.Seed = opt.Seed
	rigCfg.ReadDuration = 10 * time.Second
	rigCfg.AlignDuration = 5 * time.Second
	rigCfg.TestDuration = time.Second
	r := rig.New(tool, veh, rigCfg)
	defer r.Close()
	cap, err := r.RunFull()
	if err != nil {
		return err
	}
	var capBody bytes.Buffer
	if err := cap.Save(&capBody); err != nil {
		return err
	}
	status("loadtest: %d CAN frames per capture, %d jobs across %d tenants",
		len(cap.Frames), opt.Jobs, opt.Tenants)

	clock := telemetry.NewWallClock()
	srv := jobserver.New(cfg, telemetry.New(nil))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := telemetry.NewHTTPServer(srv.Handler())
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on hs.Close below
	}()
	defer func() { <-serveDone }() // join the serve goroutine after Close
	defer srv.Close()
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{}

	type outcome struct {
		id        string
		state     string
		latencyMS float64
		err       error
	}
	results := make([]outcome, opt.Jobs)
	var rejMu sync.Mutex
	rejections := 0

	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := clock.Now()
	var wg sync.WaitGroup
	for i := range results {
		tenant := fmt.Sprintf("tenant-%02d", i%opt.Tenants)
		wg.Add(1)
		go func(i int, tenant string) {
			defer wg.Done()
			submitted := clock.Now()
			id, rejected, err := submitWithRetry(client, base, tenant, capBody.Bytes())
			if rejected > 0 {
				rejMu.Lock()
				rejections += rejected
				rejMu.Unlock()
			}
			if err != nil {
				results[i] = outcome{err: err}
				return
			}
			state, err := pollDone(client, base, id)
			results[i] = outcome{
				id: id, state: state, err: err,
				latencyMS: float64((clock.Now() - submitted).Microseconds()) / 1e3,
			}
		}(i, tenant)
	}
	wg.Wait()
	wall := clock.Now() - start
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)

	rep := serverReport{
		Date: opt.Date, Quick: opt.Quick, Car: p.Car,
		Jobs: opt.Jobs, Tenants: opt.Tenants,
		Shards: srv.Config().Shards, WorkersPerShard: srv.Config().WorkersPerShard,
		TenantMaxActive: srv.Config().TenantMaxActive,
		CaptureFrames:   len(cap.Frames),
		Rejections:      rejections,
		WallMS:          float64(wall.Microseconds()) / 1e3,
	}
	if wall > 0 {
		rep.JobsPerSec = float64(opt.Jobs) / wall.Seconds()
	}
	rep.AllocBytesPerJob = (memAfter.TotalAlloc - memBefore.TotalAlloc) / uint64(opt.Jobs)
	rep.AllocsPerJob = (memAfter.Mallocs - memBefore.Mallocs) / uint64(opt.Jobs)

	var latencies, queueWaits, runs []float64
	for i, res := range results {
		if res.err != nil {
			return fmt.Errorf("job %d: %w", i, res.err)
		}
		if res.state != "done" {
			return fmt.Errorf("job %s finished %s", res.id, res.state)
		}
		latencies = append(latencies, res.latencyMS)
		var snap struct {
			QueueWaitMS float64 `json:"queue_wait_ms"`
			RunMS       float64 `json:"run_ms"`
		}
		if err := getJSON(client, base+"/api/v1/jobs/"+res.id, &snap); err != nil {
			return err
		}
		queueWaits = append(queueWaits, snap.QueueWaitMS)
		runs = append(runs, snap.RunMS)
	}
	rep.Latency = summarise(latencies)
	rep.QueueWait = summarise(queueWaits)
	rep.Run = summarise(runs)

	hist, _, err := benchdoc.Load[serverReport](opt.Out)
	if err != nil {
		return err
	}
	hist.Merge(rep, func(old serverReport) bool {
		return old.Date == rep.Date && old.Quick == rep.Quick
	})
	if err := hist.Write(opt.Out); err != nil {
		return err
	}
	status("loadtest: %d jobs in %.0f ms (%.2f jobs/s, %d rejections paced)",
		opt.Jobs, rep.WallMS, rep.JobsPerSec, rejections)
	status("loadtest: latency p50/p90/p99/max = %.0f/%.0f/%.0f/%.0f ms (queue %.0f ms, run %.0f ms at p50)",
		rep.Latency.P50MS, rep.Latency.P90MS, rep.Latency.P99MS, rep.Latency.MaxMS,
		rep.QueueWait.P50MS, rep.Run.P50MS)
	status("loadtest: %.1f MB allocated per job (%d mallocs)",
		float64(rep.AllocBytesPerJob)/(1<<20), rep.AllocsPerJob)
	status("wrote %s (%d entries)", opt.Out, len(hist.Entries))
	return nil
}

// getJSON fetches one document.
func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, out)
}

// submitWithRetry uploads one capture, absorbing quota/backpressure
// rejections by pacing on an in-flight job of the same tenant (a
// long-poll on its events) before retrying — the generator never spins
// and never sleeps.
func submitWithRetry(client *http.Client, base, tenant string, capture []byte) (id string, rejected int, err error) {
	for attempt := 0; attempt < 1000; attempt++ {
		resp, err := client.Post(base+"/api/v1/jobs?tenant="+tenant,
			"application/json", bytes.NewReader(capture))
		if err != nil {
			return "", rejected, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return "", rejected, err
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var snap struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(raw, &snap); err != nil {
				return "", rejected, err
			}
			return snap.ID, rejected, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			rejected++
			paceOnTenant(client, base, tenant)
		default:
			return "", rejected, fmt.Errorf("submit for %s: %d: %s", tenant, resp.StatusCode, raw)
		}
	}
	return "", rejected, fmt.Errorf("submit for %s: gave up after repeated rejections", tenant)
}

// paceOnTenant blocks briefly by long-polling a live job of the tenant;
// with none live it returns immediately (the quota has already cleared).
func paceOnTenant(client *http.Client, base, tenant string) {
	var list struct {
		Jobs []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"jobs"`
	}
	if err := getJSON(client, base+"/api/v1/jobs?tenant="+tenant, &list); err != nil {
		return
	}
	for _, j := range list.Jobs {
		if j.State == "queued" || j.State == "running" || j.State == "streaming" {
			var ev struct{}
			// A far-future cursor makes the long-poll wait for the next
			// update (or the 2s budget) instead of returning history.
			getJSON(client, fmt.Sprintf("%s/api/v1/jobs/%s/events?after=%d&wait=2s",
				base, j.ID, 1<<30), &ev) //nolint:errcheck // pacing only
			return
		}
	}
}

// pollDone long-polls one job to a terminal state.
func pollDone(client *http.Client, base, id string) (string, error) {
	after := 0
	for attempt := 0; attempt < 10000; attempt++ {
		var ev struct {
			State  string `json:"state"`
			Events []struct {
				Seq int `json:"seq"`
			} `json:"events"`
		}
		if err := getJSON(client, fmt.Sprintf("%s/api/v1/jobs/%s/events?after=%d&wait=5s",
			base, id, after), &ev); err != nil {
			return "", err
		}
		after += len(ev.Events)
		switch ev.State {
		case "done", "failed", "cancelled":
			return ev.State, nil
		}
	}
	return "", fmt.Errorf("job %s never finished", id)
}
