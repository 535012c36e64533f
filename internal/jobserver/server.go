package jobserver

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"dpreverser/internal/reverser"
	"dpreverser/internal/rig"
	"dpreverser/internal/telemetry"
)

// Config tunes the job server.
type Config struct {
	// Shards is the queue partition count. Work is assigned to a shard by
	// hashing (tenant, car, stream key), so submissions sharing that key
	// always land on the same shard — and with one worker per shard they
	// execute in submission order.
	Shards int
	// WorkersPerShard bounds the worker fleet: Shards × WorkersPerShard
	// pipeline runs happen concurrently at most.
	WorkersPerShard int
	// QueueDepth caps each shard's backlog; submissions beyond it are
	// rejected with a Retry-After hint (HTTP 429).
	QueueDepth int
	// TenantMaxActive caps one tenant's live jobs (streaming + queued +
	// running) across all shards.
	TenantMaxActive int
	// Reverser is the base option set every job's pipeline run starts
	// from; the server appends its own telemetry and progress wiring.
	Reverser []reverser.Option
}

// DefaultConfig sizes the server for a small deployment.
func DefaultConfig() Config {
	return Config{
		Shards:          4,
		WorkersPerShard: 1,
		QueueDepth:      64,
		TenantMaxActive: 8,
	}
}

// The server's fixed policy. Every server runs under these, whatever
// Config it was built from.
const (
	// retryAfter is the back-off hint returned with rejections.
	retryAfter = time.Second
	// queueWaitSLO and runSLO are the latency objectives: a job whose
	// queue wait (or run time) exceeds the bound counts against the error
	// budget, which sloTarget, the promised good fraction of both, sizes.
	// See telemetry.SLO for the burn-rate semantics.
	queueWaitSLO = 5 * time.Second
	runSLO       = 2 * time.Minute
	sloTarget    = 0.99
	// flightEvents sizes each job's flight-recorder ring (recent log
	// records retained per job).
	flightEvents = telemetry.DefaultRingCapacity
)

// RejectionError reports a refused submission: quota, backpressure or a
// draining server. RetryAfter is the client's back-off hint.
type RejectionError struct {
	// Reason is the stable label: "tenant-quota", "queue-full" or
	// "draining".
	Reason     string
	RetryAfter time.Duration
	// Correlation is the server-issued identifier for this refusal
	// ("r1", "r2", ...), returned in the response body and carried by the
	// rejection log record, so clients can quote it in support requests.
	Correlation string
}

// Error implements the error interface.
func (e *RejectionError) Error() string {
	return fmt.Sprintf("jobserver: submission rejected (%s), retry after %v", e.Reason, e.RetryAfter)
}

// ErrUnknownJob reports a job ID the server has never issued.
var ErrUnknownJob = errors.New("jobserver: unknown job")

// shard is one queue partition.
type shard struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []*Job
	// draining makes pop return nil once the queue is empty instead of
	// waiting.
	draining bool
}

func newShard() *shard {
	sh := &shard{}
	sh.cond = sync.NewCond(&sh.mu)
	return sh
}

// push appends a job and wakes one worker.
func (sh *shard) push(j *Job) {
	sh.mu.Lock()
	sh.queue = append(sh.queue, j)
	sh.mu.Unlock()
	sh.cond.Signal()
}

// depth reads the backlog length.
func (sh *shard) depth() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.queue)
}

// pop removes the oldest queued job, blocking until one arrives. It
// returns nil when the shard is draining and empty — the worker's exit
// signal.
func (sh *shard) pop() *Job {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for len(sh.queue) == 0 {
		if sh.draining {
			return nil
		}
		sh.cond.Wait()
	}
	j := sh.queue[0]
	sh.queue = sh.queue[1:]
	return j
}

// drain flips the shard into drain mode and wakes all workers.
func (sh *shard) drain() {
	sh.mu.Lock()
	sh.draining = true
	sh.mu.Unlock()
	sh.cond.Broadcast()
}

// Server is the multi-tenant reverse-engineering job server core:
// admission, the sharded queue, the worker fleet and the job/result
// store. The HTTP layer (http.go) and the canbridge ingest listener
// (ingest.go) sit on top.
type Server struct {
	cfg   Config
	tel   *telemetry.Provider
	clock telemetry.Clock
	met   *telemetry.JobServerMetrics

	// baseLog is the logger every job logger derives from. It always
	// exists (falling back to a sinkless logger on the server clock) so
	// per-job flight-recorder rings record even when no stderr sink is
	// configured.
	baseLog  *telemetry.Logger
	sloQueue *telemetry.SLO
	sloRun   *telemetry.SLO
	runtime  *telemetry.RuntimeMetrics
	started  time.Duration // server clock at construction, for uptime

	shards []*shard
	wg     sync.WaitGroup

	// mu guards the fields below. It may be taken while holding a Job's
	// mu (finalize), never the other way round.
	mu       sync.Mutex
	seq      int
	rejSeq   int // rejection correlation counter
	jobs     map[string]*Job
	order    []string       // job IDs in submission order
	tenants  map[string]int // live (streaming+queued+running) jobs per tenant
	tstats   map[string]*tenantStat
	streams  map[string]*streamSession  // registered live streams, by token
	conns    map[net.Conn]time.Duration // ingest connections awaiting HELLO, by accept time
	ingest   net.Listener               // nil until ServeIngest
	draining bool

	// quit closes when draining begins and stops the idle sweeper;
	// ingestWG joins the sweeper and every ingest goroutine (ingest.go).
	quit     chan struct{}
	ingestWG sync.WaitGroup
}

// tenantStat is the per-tenant admission ledger behind the status
// surface's tenant table. Guarded by Server.mu.
type tenantStat struct {
	admitted int
	rejected map[string]int // reason → count
}

// TenantStatus is one tenant's row in the status surface.
type TenantStatus struct {
	Tenant   string         `json:"tenant"`
	Active   int            `json:"active"`
	Admitted int            `json:"admitted"`
	Rejected map[string]int `json:"rejected,omitempty"`
}

// TenantStats lists every tenant the server has seen, sorted by name.
func (s *Server) TenantStats() []TenantStatus {
	s.mu.Lock()
	out := make([]TenantStatus, 0, len(s.tstats))
	for name, st := range s.tstats {
		ts := TenantStatus{Tenant: name, Active: s.tenants[name], Admitted: st.admitted}
		if len(st.rejected) > 0 {
			ts.Rejected = make(map[string]int, len(st.rejected))
			for r, n := range st.rejected {
				ts.Rejected[r] = n
			}
		}
		out = append(out, ts)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// SLOs returns the two latency objectives' current status, refreshing
// the burn gauges as a side effect.
func (s *Server) SLOs() []telemetry.SLOStatus {
	return []telemetry.SLOStatus{s.sloQueue.Status(), s.sloRun.Status()}
}

// SampleHealth refreshes the runtime gauges and SLO burn gauges — called
// on every scrape and status render so the exported values are current
// without a background sampler goroutine.
func (s *Server) SampleHealth() telemetry.RuntimeSample {
	s.sloQueue.Sample()
	s.sloRun.Sample()
	return s.runtime.Sample()
}

// New builds and starts a job server: the worker fleet is running on
// return. A nil provider disables telemetry (spans and metrics become
// no-ops); the server then times jobs with a private wall clock.
func New(cfg Config, tel *telemetry.Provider) *Server {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.WorkersPerShard < 1 {
		cfg.WorkersPerShard = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 1
	}
	if cfg.TenantMaxActive < 1 {
		cfg.TenantMaxActive = 1
	}
	s := &Server{
		cfg:     cfg,
		tel:     tel,
		met:     telemetry.NewJobServerMetrics(tel.RegistryOrNil()),
		jobs:    map[string]*Job{},
		tenants: map[string]int{},
		tstats:  map[string]*tenantStat{},
		streams: map[string]*streamSession{},
		conns:   map[net.Conn]time.Duration{},
		quit:    make(chan struct{}),
	}
	if tel != nil && tel.Clock != nil {
		s.clock = tel.Clock
	} else {
		s.clock = telemetry.NewWallClock()
	}
	s.started = s.clock.Now()
	// The base logger always exists so each job's flight-recorder ring
	// records even when the daemon runs without a stderr sink.
	s.baseLog = tel.LoggerOrNil()
	if s.baseLog == nil {
		s.baseLog = telemetry.NewLogger(s.clock)
	}
	reg := tel.RegistryOrNil()
	s.sloQueue = telemetry.NewSLO(reg, s.clock, "queue-wait", queueWaitSLO, sloTarget)
	s.sloRun = telemetry.NewSLO(reg, s.clock, "run", runSLO, sloTarget)
	s.runtime = telemetry.NewRuntimeMetrics(reg)
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, newShard())
	}
	for i := range s.shards {
		for w := 0; w < cfg.WorkersPerShard; w++ {
			s.wg.Add(1)
			go s.worker(i)
		}
	}
	// Tests on a manual clock drive expireIdleStreams themselves.
	if _, manual := s.clock.(*telemetry.ManualClock); !manual {
		s.ingestWG.Add(1)
		go s.sweepIdle()
	}
	return s
}

// Config returns the configuration in effect (after defaulting).
func (s *Server) Config() Config { return s.cfg }

// shardFor hashes the partition key. Everything that shares (tenant, car,
// stream) shares a shard, so one worker per shard serialises a tenant's
// related submissions in order.
func (s *Server) shardFor(tenant, car, stream string) int {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%s", tenant, car, stream)
	return int(fmix64(h.Sum64()) % uint64(len(s.shards)))
}

// fmix64 is murmur3's 64-bit finaliser, which makes every output bit
// depend on every input bit. FNV-1a alone does not mix downwards: its
// multiplier is odd, so its lowest bit is just the parity of the key's
// odd bytes, and modulo a power of two keys that differ in step (tenant-0
// with car A, tenant-1 with car B) land on one shard.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Submit admits one complete capture as a queued job. The returned error
// is a *RejectionError for quota/backpressure/draining refusals.
func (s *Server) Submit(tenant string, cap rig.Capture, streamName string) (*Job, error) {
	if tenant == "" {
		return nil, fmt.Errorf("jobserver: empty tenant")
	}
	s.mu.Lock()
	j, err := s.admitLocked(tenant, cap.Car, streamName, Queued)
	if err != nil {
		s.mu.Unlock()
		s.logRejection(tenant, err)
		return nil, err
	}
	j.capture = cap
	j.frames = len(cap.Frames)
	s.mu.Unlock()
	j.log.Info("job-admitted", telemetry.Int("frames", len(cap.Frames)))
	s.enqueue(j)
	return j, nil
}

// logRejection records a refused submission, quoting its correlation ID.
// Called after s.mu is released — sinks take their own locks.
func (s *Server) logRejection(tenant string, err error) {
	var rej *RejectionError
	if !errors.As(err, &rej) {
		return
	}
	s.baseLog.Warn("job-rejected",
		telemetry.String("tenant", tenant),
		telemetry.String("reason", rej.Reason),
		telemetry.String("correlation", rej.Correlation))
}

// refuse runs the admission checks that need no capture, so an upload
// can be turned away before its body is read. It returns nil or the
// recorded *RejectionError.
func (s *Server) refuse(tenant string) *RejectionError {
	s.mu.Lock()
	rej := s.refuseLocked(tenant, -1)
	s.mu.Unlock()
	if rej != nil {
		s.logRejection(tenant, rej)
	}
	return rej
}

// refuseLocked is admission's one rule: a draining server, a tenant at
// its quota, or (for shardIdx >= 0) a full shard refuses. The refusal is
// booked in the rejection metric and the tenant ledger under a fresh
// correlation ID. It returns nil when the submission may proceed.
// Callers hold s.mu.
func (s *Server) refuseLocked(tenant string, shardIdx int) *RejectionError {
	var reason string
	switch {
	case s.draining:
		reason = "draining"
	case s.tenants[tenant] >= s.cfg.TenantMaxActive:
		reason = "tenant-quota"
	case shardIdx >= 0 && s.shards[shardIdx].depth() >= s.cfg.QueueDepth:
		reason = "queue-full"
	default:
		return nil
	}
	s.met.TenantRejections.With(tenant, reason).Inc()
	s.rejSeq++
	s.tstat(tenant).rejected[reason]++
	return &RejectionError{
		Reason:      reason,
		RetryAfter:  retryAfter,
		Correlation: fmt.Sprintf("r%d", s.rejSeq),
	}
}

// tstat returns the tenant's ledger, creating it. Callers hold s.mu.
func (s *Server) tstat(tenant string) *tenantStat {
	st := s.tstats[tenant]
	if st == nil {
		st = &tenantStat{rejected: map[string]int{}}
		s.tstats[tenant] = st
	}
	return st
}

// admitLocked runs admission control and creates the job in its initial
// state. The queue-depth check applies only to a job queued now, which
// needs its car for the shard. Callers hold s.mu.
func (s *Server) admitLocked(tenant, car, streamName string, initial JobState) (*Job, error) {
	shardIdx := s.shardFor(tenant, car, streamName)
	queued := -1
	if initial == Queued {
		queued = shardIdx
	}
	if rej := s.refuseLocked(tenant, queued); rej != nil {
		return nil, rej
	}
	s.seq++
	j := newJob(fmt.Sprintf("j%d", s.seq), tenant, car, streamName, initial, s.clock.Now())
	j.shard = shardIdx
	// The job's correlation context binds here and follows every record
	// the job emits, from ingest through reverser stages; the teed ring is
	// the job's flight recorder.
	j.ring = telemetry.NewRingSink(flightEvents)
	attrs := []telemetry.Attr{
		telemetry.String("tenant", tenant),
		telemetry.String("job", j.ID),
		telemetry.Int("shard", shardIdx),
	}
	if car != "" {
		attrs = append(attrs, telemetry.String("car", car))
	}
	if streamName != "" {
		attrs = append(attrs, telemetry.String("stream", streamName))
	}
	j.log = s.baseLog.With(attrs...).Tee(j.ring)
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.tenants[tenant]++
	s.tstat(tenant).admitted++
	s.met.TenantAdmissions.With(tenant).Inc()
	s.met.JobsByState.With(initial.String()).Add(1)
	return j, nil
}

// enqueue hands a job to its shard and publishes the new depth.
func (s *Server) enqueue(j *Job) {
	sh := s.shards[j.shard]
	sh.push(j)
	s.met.QueueDepth.With(strconv.Itoa(j.shard)).Set(float64(sh.depth()))
}

// worker is one member of the bounded fleet, pinned to a shard.
func (s *Server) worker(shardIdx int) {
	defer s.wg.Done()
	sh := s.shards[shardIdx]
	for {
		j := sh.pop()
		if j == nil {
			return
		}
		s.met.QueueDepth.With(strconv.Itoa(shardIdx)).Set(float64(sh.depth()))
		s.runJob(j)
	}
}

// runJob executes one job through the pipeline and finalises it.
func (s *Server) runJob(j *Job) {
	// Claim the job: a cancelled-in-queue job is already terminal and is
	// simply skipped.
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	if j.cancelled {
		cancel()
	}
	j.cancelRun = cancel
	prev := j.state
	j.state = Running
	j.started = s.clock.Now()
	queueWait := j.started - j.submitted
	j.notifyLocked()
	capture := j.capture
	j.mu.Unlock()
	defer cancel()

	s.met.JobsByState.With(prev.String()).Add(-1)
	s.met.JobsByState.With(Running.String()).Add(1)
	s.met.QueueWait.ObserveDuration(queueWait)
	s.met.TenantQueueWait.With(j.Tenant).ObserveDuration(queueWait)
	s.sloQueue.Observe(queueWait)

	span := s.tel.TracerOrNil().Start("job",
		telemetry.String("job", j.ID),
		telemetry.String("tenant", j.Tenant),
		telemetry.String("car", j.Car),
		telemetry.Int("shard", j.shard))
	defer span.End()

	// The root span's ID joins the correlation context for every record
	// the run emits, tying the log stream to the trace dump.
	runLog := j.log.With(telemetry.Int64("span", span.ID()))
	j.setRunLogger(runLog)
	runLog.Info("job-start", telemetry.Millis("queue_wait_ms", queueWait))

	opts := make([]reverser.Option, 0, len(s.cfg.Reverser)+2)
	opts = append(opts, s.cfg.Reverser...)
	opts = append(opts, reverser.WithTelemetry(s.tel.WithLogger(runLog)), reverser.WithProgress(j.record))
	res, err := reverser.New(opts...).Reverse(ctx, capture)

	final := Done
	errMsg := ""
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		final = Cancelled
	default:
		final = Failed
		errMsg = err.Error()
		// Under the strict fault policy the error still carries the
		// partial result; keep it so the flight record can name the
		// degraded streams in the postmortem.
		var deg *reverser.DegradedError
		if errors.As(err, &deg) && deg.Result != nil {
			res = deg.Result
		}
	}
	s.finalize(j, final, res, errMsg)
}

// finalize moves a job into a terminal state and settles the accounting.
// Only the first call for a job has any effect.
func (s *Server) finalize(j *Job, final JobState, res *reverser.Result, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	// Everything is settled — the tenant's quota slot, the metrics, the
	// job-finished record — before the terminal state becomes visible, so
	// a client acting the moment it sees the job end finds the slot free
	// and the flight record complete. Lock order: j.mu, then s.mu.
	s.mu.Lock()
	s.tenants[j.Tenant]--
	if s.tenants[j.Tenant] <= 0 {
		delete(s.tenants, j.Tenant)
	}
	s.mu.Unlock()
	prev := j.state
	finished := s.clock.Now()
	var runTime time.Duration
	if j.started > 0 {
		runTime = finished - j.started
	}

	s.met.JobsByState.With(prev.String()).Add(-1)
	s.met.JobsByState.With(final.String()).Add(1)
	s.met.JobsFinished.With(final.String()).Inc()
	if prev == Running {
		s.met.RunDuration.ObserveDuration(runTime)
		s.met.TenantRunDuration.With(j.Tenant).ObserveDuration(runTime)
		s.sloRun.Observe(runTime)
	}

	attrs := []telemetry.Attr{
		telemetry.String("state", final.String()),
		telemetry.Millis("run_ms", runTime),
	}
	if errMsg != "" {
		attrs = append(attrs, telemetry.String("error", errMsg))
	}
	log := j.runLog
	if log == nil {
		log = j.log // the job never reached a worker
	}
	if final == Failed {
		log.Error("job-finished", attrs...)
	} else {
		log.Info("job-finished", attrs...)
	}

	// The run is over (or never happens): drop the capture, which is most
	// of a job's memory, and the result's per-stream datasets, which no
	// endpoint serves. Snapshot keeps the frame count.
	if res != nil {
		res.Streams = nil
	}
	j.state = final
	j.result = res
	j.errMsg = errMsg
	j.capture = rig.Capture{}
	j.finished = finished
	j.notifyLocked()
}

// Job looks a job up by ID.
func (s *Server) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	return j, nil
}

// Jobs lists jobs in submission order, optionally filtered by tenant.
func (s *Server) Jobs(tenant string) []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		if tenant != "" && j.Tenant != tenant {
			continue
		}
		out = append(out, j)
	}
	return out
}

// Cancel aborts a job: queued and streaming jobs become Cancelled
// immediately, running jobs have their context cancelled and finalise
// through the worker. Cancelling a terminal job is a no-op.
func (s *Server) Cancel(id string) error {
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		j.mu.Unlock()
		return nil
	case j.state == Running:
		j.cancelled = true
		cancel := j.cancelRun
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	default:
		// Streaming or queued: mark it so the worker (or the ingest
		// finaliser) skips it, and settle the books now. A live stream's
		// connection is closed with it.
		j.cancelled = true
		streaming := j.state == Streaming
		j.mu.Unlock()
		s.finalize(j, Cancelled, nil, "")
		if streaming {
			s.stopStreamOf(j)
		}
		return nil
	}
}

// FormulaRecord is one recovered formula in the queryable store.
type FormulaRecord struct {
	Job     string  `json:"job"`
	Tenant  string  `json:"tenant"`
	Car     string  `json:"car,omitempty"`
	ID      string  `json:"id"`
	Label   string  `json:"label,omitempty"`
	Unit    string  `json:"unit,omitempty"`
	Formula string  `json:"formula"`
	Fitness float64 `json:"fitness"`
	Pairs   int     `json:"pairs"`
}

// Formulas lists every recovered formula across completed jobs, filtered
// by tenant and/or car when non-empty, in (job, stream) order.
func (s *Server) Formulas(tenant, car string) []FormulaRecord {
	var out []FormulaRecord
	for _, j := range s.Jobs(tenant) {
		if car != "" && j.Car != car {
			continue
		}
		res := j.Result()
		if res == nil {
			continue
		}
		for _, e := range res.ESVs {
			if e.Formula == nil {
				continue
			}
			out = append(out, FormulaRecord{
				Job: j.ID, Tenant: j.Tenant, Car: j.Car,
				ID: e.Key.String(), Label: e.Label, Unit: e.Unit,
				Formula: e.FormulaString(), Fitness: e.Fitness, Pairs: e.Pairs,
			})
		}
	}
	return out
}

// QueueDepths reports each shard's backlog, for status endpoints.
func (s *Server) QueueDepths() []int {
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.depth()
	}
	return out
}

// Draining reports whether the server has stopped admitting work.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admission and waits for every queued and running job to
// finish — the graceful shutdown the daemon runs on SIGTERM. If ctx
// expires first, the remaining jobs are cancelled and Drain keeps waiting
// for the workers to observe the cancellation (which the GP engine does
// between generations). Live ingest sessions are cut.
func (s *Server) Drain(ctx context.Context) error {
	s.baseLog.Info("drain-begin")
	s.beginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.baseLog.Info("drain-complete")
		return nil
	case <-ctx.Done():
		s.baseLog.Warn("drain-deadline-exceeded", telemetry.String("action", "cancelling remaining jobs"))
		s.cancelAll()
		<-done
		return ctx.Err()
	}
}

// Close shuts down immediately: admission stops, all live jobs are
// cancelled, and Close returns once the workers exit.
func (s *Server) Close() error {
	s.beginDrain()
	s.cancelAll()
	s.wg.Wait()
	return nil
}

// beginDrain flips admission off, cuts ingest sessions and puts every
// shard into drain mode. Idempotent.
func (s *Server) beginDrain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		return
	}
	s.stopIngest()
	for _, sh := range s.shards {
		sh.drain()
	}
}

// cancelAll cancels every non-terminal job.
func (s *Server) cancelAll() {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	sort.Strings(ids)
	for _, id := range ids {
		s.Cancel(id) //nolint:errcheck // unknown IDs cannot occur here
	}
}
