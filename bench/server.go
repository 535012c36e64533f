package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dpreverser/internal/jobserver"
	"dpreverser/internal/reverser"
	"dpreverser/internal/telemetry"
)

const (
	// clients is the load generator's goroutine and connection budget:
	// one per CPU of the 2-CPU machine the benchmark is sized for.
	clients = 2
	// openRate is server-open's mean arrival rate, about 30% of what the
	// two closed-loop clients sustain. At 20 jobs/s a slow spell of the
	// shared 2-CPU machine could back the two submit connections up and
	// triple a run's median latency.
	openRate = 15.0
	// drainTimeout bounds the wait for accepted jobs after the load stops.
	drainTimeout = 2 * time.Minute
	// maxPolls bounds one job's long-poll loop.
	maxPolls = 10000
)

// server is an in-process job server on a loopback listener, plus the
// load generator's HTTP client.
type server struct {
	srv    *jobserver.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan struct{}
	dials  atomic.Int64
}

func startServer(cfg jobserver.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		srv:    jobserver.New(cfg, telemetry.New(nil)),
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	var d net.Dialer
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			s.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close stops the listener, joins the serve goroutine and shuts the job
// server down.
func (s *server) close() {
	s.client.CloseIdleConnections()
	s.hs.Close()
	<-s.served
	s.srv.Close()
}

// do sends one request and reads the whole response.
func (s *server) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// serverJob is one submit and what became of it.
type serverJob struct {
	car *fleetCar
	id  string
	// due is when the submit was scheduled (open loop) or started.
	due, posted time.Duration
	status      int
	submitMS    float64
	// latencyMS is the job's client-observed latency; resultMS the GET
	// /result round trip.
	latencyMS, resultMS float64
	err                 error
}

// submit POSTs one capture.
func (e *env) submit(s *server, tenant string, c *fleetCar, due time.Duration, root *telemetry.Span) serverJob {
	j := serverJob{car: c, due: due, posted: e.clock.Now()}
	sp := root.Child("submit")
	j.status, j.id, j.err = s.post(tenant, c.Body)
	sp.End()
	j.submitMS = millis(e.clock.Now() - j.posted)
	return j
}

func (s *server) post(tenant string, body []byte) (int, string, error) {
	code, raw, err := s.do(http.MethodPost, "/api/v1/jobs?tenant="+tenant, body)
	if err != nil || code != http.StatusAccepted {
		return code, "", err
	}
	var snap struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return code, "", fmt.Errorf("submit response: %w", err)
	}
	return code, snap.ID, nil
}

// closedJob is one closed-loop client step: POST the capture, long-poll
// the job's events to a terminal state, GET the result and check it.
// Latency runs from the POST to the terminal event.
func (e *env) closedJob(s *server, tenant string, c *fleetCar) serverJob {
	root := e.tr.Start("job", telemetry.String("car", c.Name))
	defer root.End()
	j := e.submit(s, tenant, c, e.clock.Now(), root)
	if j.err != nil || j.status != http.StatusAccepted {
		return j
	}
	sp := root.Child("events")
	state, err := s.waitDone(j.id)
	sp.End()
	j.latencyMS = millis(e.clock.Now() - j.posted)
	switch {
	case err != nil:
		j.err = err
	case state != jobserver.Done.String():
		j.err = fmt.Errorf("job %s finished %s", j.id, state)
	default:
		sp = root.Child("result")
		e.fetchResult(s, &j)
		sp.End()
	}
	return j
}

// waitDone long-polls a job's events until it reaches a terminal state.
func (s *server) waitDone(id string) (string, error) {
	after := 0
	for i := 0; i < maxPolls; i++ {
		code, raw, err := s.do(http.MethodGet, fmt.Sprintf("/api/v1/jobs/%s/events?after=%d&wait=5s", id, after), nil)
		if err != nil {
			return "", err
		}
		if code != http.StatusOK {
			return "", fmt.Errorf("events: HTTP %d", code)
		}
		var ev struct {
			State  string            `json:"state"`
			Events []json.RawMessage `json:"events"`
		}
		if err := json.Unmarshal(raw, &ev); err != nil {
			return "", fmt.Errorf("events response: %w", err)
		}
		after += len(ev.Events)
		switch ev.State {
		case "done", "failed", "cancelled":
			return ev.State, nil
		}
	}
	return "", fmt.Errorf("job %s never reached a terminal state", id)
}

// fetchResult GETs a finished job's result document and checks it
// against the car's reference.
func (e *env) fetchResult(s *server, j *serverJob) {
	t := e.clock.Now()
	code, doc, err := s.do(http.MethodGet, "/api/v1/jobs/"+j.id+"/result", nil)
	j.resultMS = millis(e.clock.Now() - t)
	switch {
	case err != nil:
		j.err = err
	case code != http.StatusOK:
		j.err = fmt.Errorf("result: HTTP %d", code)
	case sha256.Sum256(doc) != j.car.Ref:
		j.err = errors.New("result differs from the reference")
	}
}

// runServer measures one traffic mix against a fresh job server with two
// shards of one worker each. Set-up starts the server and runs one
// closed-loop warm-up job per car.
func (e *env) runServer(name string) error {
	cfg := jobserver.DefaultConfig()
	cfg.Shards, cfg.WorkersPerShard = 2, 1
	cfg.Reverser = []reverser.Option{reverser.WithConfig(e.cfg)}
	if name == serverFlood {
		cfg.TenantMaxActive = 1
	}
	var s *server
	teardown, err := e.measureSetup(func() (func(), error) {
		var err error
		if s, err = startServer(cfg); err != nil {
			return nil, err
		}
		for i, c := range e.cars {
			// One tenant per warm-up job: the server announces a job's end
			// before it releases the tenant's quota slot, so a next job
			// under the same tenant could be refused on server-flood.
			e.rep.Attempted++
			if j := e.closedJob(s, fmt.Sprintf("warmup-%d", i), c); j.err != nil || j.status != http.StatusAccepted {
				e.rep.fail("warm-up %s: HTTP %d: %v", c.Name, j.status, j.err)
			}
		}
		return s.close, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	settle()
	heapStart := heapBytes()
	start := e.clock.Now()
	var jobs []serverJob
	switch name {
	case serverClosed:
		jobs = e.closedLoop(s, start)
	case serverOpen:
		jobs = e.openLoop(s, start)
	case serverFlood:
		jobs = e.flood(s, start)
	}
	e.measured = e.clock.Now() - start
	accepted := e.settleJobs(s, name, jobs, start)
	settle()
	heapEnd := heapBytes()
	e.rep.set("heap.end_mb", "MB", float64(heapEnd)/(1<<20))
	if accepted > 0 {
		e.rep.set("jobserver.retained_kb_per_job", "KB", (float64(heapEnd)-float64(heapStart))/1024/float64(accepted))
	}
	e.rep.set("gen.conns", "count", float64(s.dials.Load()))
	return nil
}

// closedLoop runs the two closed-loop clients, one tenant each, taking
// cars round-robin from a shared cursor. Once the run length is up the
// clients finish the current pass over the fleet, so every car is
// weighted alike.
func (e *env) closedLoop(s *server, start time.Duration) []serverJob {
	n := int64(len(e.cars))
	var next, stopAt atomic.Int64
	stopAt.Store(math.MaxInt64)
	per := make([][]serverJob, clients)
	var wg sync.WaitGroup
	for k := range per {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", k)
			for {
				i := next.Add(1) - 1
				if e.clock.Now()-start >= e.dur {
					stopAt.CompareAndSwap(math.MaxInt64, (i+n-1)/n*n)
				}
				if i >= stopAt.Load() {
					return
				}
				per[k] = append(per[k], e.closedJob(s, tenant, e.cars[i%n]))
			}
		}(k)
	}
	wg.Wait()
	return slices.Concat(per...)
}

// openLoop sends whole fleet passes on a Poisson schedule at openRate,
// each arrival from one of two tenants drawn at random, from two submit
// goroutines. The schedule is a Poisson process conditioned on its
// arrival count filling the run length, so the offered rate is the same
// for every seed. Jobs are not watched while the schedule runs;
// settleJobs collects them afterwards.
func (e *env) openLoop(s *server, start time.Duration) []serverJob {
	n := len(e.cars)
	count := n * max(1, int(math.Round(openRate*e.dur.Seconds()/float64(n))))
	rng := rand.New(rand.NewSource(e.o.Seed))
	gaps := make([]float64, count+1)
	var total float64
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	due := make([]time.Duration, count)
	tenant := make([]string, count)
	var at float64
	for i := range due {
		at += gaps[i]
		due[i] = start + time.Duration(at/total*float64(e.dur))
		tenant[i] = fmt.Sprintf("tenant-%d", rng.Intn(clients))
	}
	jobs := make([]serverJob, count)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= count {
					return
				}
				if wait := due[i] - e.clock.Now(); wait > 0 {
					time.Sleep(wait) //dplint:allow determinism open-loop arrivals wait for their scheduled instant
				}
				root := e.tr.Start("job", telemetry.String("car", e.cars[i%n].Name))
				jobs[i] = e.submit(s, tenant[i], e.cars[i%n], due[i], root)
				root.End()
			}
		}()
	}
	wg.Wait()
	return jobs
}

// flood has two submitters, one tenant each, POST back to back for the
// run length without waiting for results. With one live job allowed per
// tenant, a submit that arrives while its tenant's last job is live is
// refused with 429, the expected answer.
func (e *env) flood(s *server, start time.Duration) []serverJob {
	n := int64(len(e.cars))
	var next atomic.Int64
	per := make([][]serverJob, clients)
	var wg sync.WaitGroup
	for k := range per {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", k)
			for e.clock.Now()-start < e.dur {
				c := e.cars[(next.Add(1)-1)%n]
				root := e.tr.Start("job", telemetry.String("car", c.Name))
				per[k] = append(per[k], e.submit(s, tenant, c, e.clock.Now(), root))
				root.End()
			}
		}(k)
	}
	wg.Wait()
	return slices.Concat(per...)
}

// settleJobs waits for every accepted job, reads its snapshot in process,
// checks its result (fetched now for open-loop and flood jobs), and
// records the workload's metrics. It returns the accepted job count.
//
// Open-loop latency runs from the due time: lateness + POST round trip +
// the snapshot's queue wait and run time. Flood latency is the same from
// the POST. Closed-loop latency was measured by the client. jobs_per_s
// counts finished jobs over the load phase or, when later, up to the last
// job's completion.
func (e *env) settleJobs(s *server, name string, jobs []serverJob, start time.Duration) int {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	var lat, submit, reject, queue, run, residual, result, late []float64
	shards := make([]int, len(s.srv.QueueDepths()))
	var done []*fleetCar
	var last time.Duration
	accepted := 0
	for i := range jobs {
		j := &jobs[i]
		e.rep.Attempted++
		if name == serverFlood && j.err == nil && j.status == http.StatusTooManyRequests {
			reject = append(reject, j.submitMS)
			continue
		}
		if j.err == nil && j.status != http.StatusAccepted {
			j.err = fmt.Errorf("submit: HTTP %d", j.status)
		}
		if j.err != nil {
			e.rep.fail("%s %s: %v", j.car.Name, j.id, j.err)
			continue
		}
		accepted++
		submit = append(submit, j.submitMS)
		job, err := s.srv.Job(j.id)
		if err != nil {
			e.rep.fail("%s: %v", j.id, err)
			continue
		}
		if st := waitTerminal(ctx, job); st != jobserver.Done {
			e.rep.fail("%s %s finished %s", j.car.Name, j.id, st)
			continue
		}
		snap := job.Snapshot()
		if name != serverClosed {
			e.fetchResult(s, j)
			if j.err != nil {
				e.rep.fail("%s %s: %v", j.car.Name, j.id, j.err)
				continue
			}
			j.latencyMS = millis(j.posted-j.due) + j.submitMS + snap.QueueWaitMS + snap.RunMS
			late = append(late, millis(j.posted-j.due))
		} else {
			residual = append(residual, j.latencyMS-j.submitMS-snap.QueueWaitMS-snap.RunMS)
		}
		result = append(result, j.resultMS)
		queue = append(queue, snap.QueueWaitMS)
		run = append(run, snap.RunMS)
		shards[snap.Shard]++
		lat = append(lat, j.latencyMS)
		done = append(done, j.car)
		last = max(last, j.due+time.Duration(j.latencyMS*float64(time.Millisecond)))
	}

	r := e.rep
	r.set("jobs_per_s", "jobs/s", float64(len(done))/max(last-start, e.measured).Seconds())
	e.setJobs(done, lat)
	r.setLatency("jobserver.submit", submit)
	r.setLatency("jobserver.queue_wait", queue)
	r.setLatency("jobserver.run", run)
	r.setLatency("jobserver.result", result)
	if name == serverClosed {
		r.setLatency("jobserver.residual", residual)
	}
	if name == serverOpen {
		r.setLatency("gen.late", late)
	}
	if name == serverFlood {
		r.setLatency("jobserver.reject", reject)
	}
	r.set("jobserver.admit_ratio", "ratio", float64(accepted)/float64(len(jobs)))
	mostJobs := 0
	for _, c := range shards {
		mostJobs = max(mostJobs, c)
	}
	if accepted > 0 {
		r.set("jobserver.shard_skew", "ratio", float64(mostJobs)*float64(len(shards))/float64(accepted))
	}
	return accepted
}

// waitTerminal blocks until the job reaches a terminal state, using the
// job's own update notification.
func waitTerminal(ctx context.Context, j *jobserver.Job) jobserver.JobState {
	for {
		_, updated := j.EventsSince(math.MaxInt)
		if st := j.State(); st.Terminal() {
			return st
		}
		select {
		case <-updated:
		case <-ctx.Done():
			return j.State()
		}
	}
}
