package reverser

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpreverser/internal/colstore"
	"dpreverser/internal/gp"
	"dpreverser/internal/rig"
	"dpreverser/internal/telemetry"
)

// ProgressKind labels a progress event.
type ProgressKind int

// Progress event kinds, in the order a run emits them.
const (
	// ProgressStageStart / ProgressStageDone bracket one pipeline stage
	// ("assemble", "extract", "align", "streams", "infer", "controls").
	// Stages never overlap and always come in this order. At Parallelism
	// 2 and above the camera half of stream preparation and alignment run
	// on a helper goroutine during assembly and extraction, and the
	// "align" stage brackets the wait for them; at 1 they run inside it.
	ProgressStageStart ProgressKind = iota
	ProgressStageDone
	// ProgressStreamStart / ProgressStreamDone bracket one stream's
	// formula inference inside the "infer" stage.
	ProgressStreamStart
	ProgressStreamDone
)

// progressKindNames are the kinds' wire names, in ProgressKind order.
var progressKindNames = [...]string{"stage-start", "stage-done", "stream-start", "stream-done"}

// String returns the kind's wire name, which the done records, the job
// server's progress history and its flight record all use.
func (k ProgressKind) String() string {
	if k < 0 || int(k) >= len(progressKindNames) {
		return "unknown"
	}
	return progressKindNames[k]
}

// ProgressEvent is one observation of the pipeline's advance. Stage events
// carry Stage and (on done) Elapsed; stream events additionally carry the
// stream identity, the Done/Total counters and (on done) the generation
// count the GP actually ran.
type ProgressEvent struct {
	Kind  ProgressKind
	Stage string
	// Stream and Label identify the stream for stream events.
	Stream StreamKey
	Label  string
	// Generations is the GP generation count (ProgressStreamDone only).
	Generations int
	// Evaluations and CacheHits report the GP engine's scoring counters
	// for the stream (ProgressStreamDone only): of Evaluations requested
	// scores, CacheHits came from the cross-generation fitness cache
	// instead of the compiled VM. The metrics registry (see
	// WithTelemetry) aggregates the same counters across streams and
	// runs; these per-event fields remain for rendering convenience.
	Evaluations int
	CacheHits   int
	// Elapsed is the stage or stream wall time (done events only), read
	// from the injected telemetry clock.
	Elapsed time.Duration
	// Done and Total count finished vs. scheduled streams (stream events).
	Done, Total int
}

// ProgressFunc receives progress events. The Reverser serialises calls, so
// implementations need no locking of their own, but they run on the
// pipeline's goroutines and should return quickly. A panic in the callback
// does not kill the pipeline: the run is cancelled and the panic is
// returned as an error from Reverse.
type ProgressFunc func(ProgressEvent)

// Reverser runs the DP-Reverser analysis pipeline. Construct one with New
// and run captures through (*Reverser).Reverse; a Reverser is immutable
// after construction and safe for concurrent use.
type Reverser struct {
	cfg         Config
	parallelism int
	policy      FaultPolicy
	progress    ProgressFunc
	tel         *telemetry.Provider
	clock       telemetry.Clock
	met         *telemetry.PipelineMetrics
	// log is the provider's structured logger (usually carrying the job
	// server's correlation context); nil disables logging. Stream-scoped
	// records bind only deterministic attributes (stream key, label, GP
	// counters) — never scheduling-dependent values like completion
	// counts or per-stream span IDs — so the emitted record multiset is
	// identical at any parallelism.
	log *telemetry.Logger

	// mu serialises progress callbacks from the inference workers.
	mu sync.Mutex
}

// Option configures a Reverser. All options follow the WithX naming
// convention and compose left to right: later options override earlier
// ones. The full set is WithConfig, WithParallelism, WithProgress,
// WithTelemetry and WithFaultPolicy.
type Option func(*Reverser)

// WithConfig replaces the whole pipeline configuration at once: the GP
// engine's budget and seed. The GP Seed acts as
// the capture seed: every stream derives its own RNG from it
// and the stream key, so results are byte-identical at any parallelism.
func WithConfig(cfg Config) Option {
	return func(rv *Reverser) { rv.cfg = cfg }
}

// WithParallelism caps the concurrent workers of the streams stage, which
// prepares the capture's UI sessions, and of the infer stage, which runs
// per-stream inference; from 2 on, the camera half of stream preparation
// also runs beside assembly. Values < 1 mean runtime.GOMAXPROCS(0), the
// default. Results are identical at every setting.
func WithParallelism(n int) Option {
	return func(rv *Reverser) { rv.parallelism = n }
}

// WithProgress installs a progress callback. The Reverser serialises
// calls (see ProgressFunc); a nil fn (the default) disables progress
// reporting. Stage events bracket each pipeline stage, stream events each
// stream's formula inference.
func WithProgress(fn ProgressFunc) Option {
	return func(rv *Reverser) { rv.progress = fn }
}

// WithTelemetry attaches a telemetry provider: the pipeline then records
// hierarchical spans (run → stage → stream → GP generation), increments
// the PipelineMetrics set on the provider's registry, and reads all
// elapsed times from the provider's clock. A nil provider (the default)
// disables instrumentation; timing then comes from a private wall clock.
func WithTelemetry(p *telemetry.Provider) Option {
	return func(rv *Reverser) { rv.tel = p }
}

// New builds a Reverser from DefaultConfig plus the given options.
func New(opts ...Option) *Reverser {
	rv := &Reverser{cfg: DefaultConfig()}
	for _, o := range opts {
		o(rv)
	}
	if rv.tel != nil && rv.tel.Clock != nil {
		rv.clock = rv.tel.Clock
	}
	if rv.clock == nil {
		rv.clock = telemetry.NewWallClock()
	}
	rv.met = telemetry.NewPipelineMetrics(rv.tel.RegistryOrNil())
	rv.log = rv.tel.LoggerOrNil()
	return rv
}

// Parallelism reports the effective worker count of the streams and infer
// stages.
func (rv *Reverser) Parallelism() int {
	if rv.parallelism < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return rv.parallelism
}

// Config returns a copy of the pipeline configuration in effect.
func (rv *Reverser) Config() Config { return rv.cfg }

// run is the per-Reverse state: the cancel handle the panic guard pulls,
// the root span, the stream completion counter, and the first recovered
// callback panic.
type run struct {
	rv     *Reverser
	cancel context.CancelFunc
	span   *telemetry.Span
	// streamsDone counts finished streams (ProgressEvent.Done).
	streamsDone atomic.Int64

	// cbErr holds the first progress-callback panic, converted to an
	// error. It is written and read under rv.mu (emit already holds it).
	cbErr error
}

// emit serialises one progress callback. A panicking callback is
// recovered: the first panic is recorded and cancels the run, so workers
// stop claiming streams and Reverse reports the panic instead of letting
// it kill a pipeline goroutine.
func (r *run) emit(ev ProgressEvent) {
	rv := r.rv
	if rv.progress == nil {
		return
	}
	rv.mu.Lock()
	defer rv.mu.Unlock()
	defer func() {
		if p := recover(); p != nil {
			if r.cbErr == nil {
				r.cbErr = fmt.Errorf("reverser: progress callback panicked: %v", p)
				r.cancel()
			}
		}
	}()
	// rv.mu exists to serialise exactly this call — the documented
	// ProgressFunc contract is "called from one goroutine at a time" — and
	// guards only cbErr, which nothing else touches while a callback runs.
	rv.progress(ev) //dplint:allow lockhold rv.mu's documented job is serialising the ProgressFunc; it guards no pipeline state
}

// callbackErr reads the recorded callback panic, if any.
func (r *run) callbackErr() error {
	r.rv.mu.Lock()
	defer r.rv.mu.Unlock()
	return r.cbErr
}

// scope is the pipeline's one telemetry adapter. Each stage and each
// stream opens a scope with its start event and closes it with its done
// event, and only the scope turns those events into the span, the
// duration observation, the done record and the progress callback. A
// stream's scope is also its gp.Observer, which ticks the generation
// counter and records sampled generation spans and records.
type scope struct {
	r     *run
	ev    ProgressEvent // the start event
	span  *telemetry.Span
	log   *telemetry.Logger
	start time.Duration

	// next is the user-configured GP observer, chained rather than
	// replaced; mark is the end of the previous generation, where the
	// next sampled generation span starts. The engine calls the observer
	// from its sequential loop, so mark needs no lock.
	next gp.Observer
	mark time.Duration
}

// open starts a scope for ev, a ProgressStageStart or ProgressStreamStart
// event: a stage span under parent, or a stream span in its own lane. A
// stream's records bind its key and label only. Binding the span ID would
// leak scheduling order into the log multiset and break
// parallelism-independence.
func (r *run) open(parent *telemetry.Span, ev ProgressEvent) *scope {
	s := &scope{r: r, ev: ev, log: r.rv.log}
	if ev.Kind == ProgressStageStart {
		s.span = parent.Child("stage:"+ev.Stage, telemetry.String("stage", ev.Stage))
	} else {
		id := []telemetry.Attr{
			telemetry.String("stream", ev.Stream.String()), telemetry.String("label", ev.Label)}
		s.span = parent.ChildLane("stream", id...)
		s.log = s.log.With(id...)
		s.ev.Done = int(r.streamsDone.Load())
	}
	r.emit(s.ev)
	s.start = r.rv.clock.Now()
	s.mark = s.start
	return s
}

// close ends the scope with its done event: the start event plus the
// elapsed time and, for a stream, the GP counters of esv.
func (s *scope) close(esv *ReversedESV) {
	rv := s.r.rv
	elapsed := rv.clock.Now() - s.start
	done := s.ev
	done.Kind++
	done.Elapsed = elapsed
	if esv == nil {
		s.span.End()
		rv.met.StageDuration.With(done.Stage).ObserveDuration(elapsed)
		s.log.Info(done.Kind.String(),
			telemetry.String("stage", done.Stage), telemetry.Millis("elapsed_ms", elapsed))
	} else {
		done.Generations, done.Evaluations, done.CacheHits = esv.Generations, esv.Evaluations, esv.CacheHits
		s.span.SetAttr(telemetry.Int("generations", done.Generations),
			telemetry.Int("evals", done.Evaluations))
		s.span.End()
		rv.met.StreamDuration.ObserveDuration(elapsed)
		s.log.Info(done.Kind.String(),
			telemetry.Int("generations", done.Generations),
			telemetry.Int("evaluations", done.Evaluations),
			telemetry.Millis("elapsed_ms", elapsed))
		done.Done = int(s.r.streamsDone.Add(1))
	}
	s.r.emit(done)
}

// abandon ends a cancelled stream's scope: its span ends, and no done
// event follows.
func (s *scope) abandon() { s.span.End() }

// gpGenSpanSample thins per-generation spans: every Nth generation (plus
// generation 0) gets a span so a full-budget fleet trace stays tractable,
// while the generation *counter* still advances on every generation.
const gpGenSpanSample = 4

// Generation implements gp.Observer for a stream scope.
func (s *scope) Generation(gs gp.GenerationStats) {
	if s.next != nil {
		s.next.Generation(gs)
	}
	rv := s.r.rv
	rv.met.GPGenerations.Inc()
	now := rv.clock.Now()
	if gs.Generation%gpGenSpanSample == 0 {
		attrs := []telemetry.Attr{
			telemetry.Int("gen", gs.Generation),
			telemetry.Int("evals", gs.Evaluations),
			telemetry.Int("cache_hits", gs.CacheHits)}
		s.span.ChildFrom("gp-generation", s.mark, attrs...).End()
		s.log.Debug("gp-generation", attrs...)
	}
	s.mark = now
}

// stage runs one pipeline stage inside its scope.
func (r *run) stage(name string, fn func()) {
	s := r.open(r.span, ProgressEvent{Kind: ProgressStageStart, Stage: name})
	fn()
	s.close(nil)
}

// Reverse runs the complete pipeline on a capture. Cancelling ctx aborts
// promptly — the GP engine checks it between generations and the worker
// pool stops claiming streams — and returns ctx.Err(). A panic in the
// progress callback likewise cancels the run and is returned as an error.
func (rv *Reverser) Reverse(ctx context.Context, cap rig.Capture) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &run{rv: rv, cancel: cancel}
	r.span = rv.tel.TracerOrNil().Start("reverse",
		telemetry.String("car", cap.Car), telemetry.String("model", cap.Model))
	defer r.span.End()
	runStart := rv.clock.Now()
	rv.log.Info("run-start",
		telemetry.String("car", cap.Car), telemetry.Int("frames", len(cap.Frames)))

	res := &Result{Car: cap.Car, Model: cap.Model, ToolName: cap.ToolName}

	// The capture's two inputs meet only in the streams stage. The camera
	// half of stream preparation (§3.3-§3.4) reads only the UI frames, and
	// alignment (§3.3) reads them and the frame store, so at Parallelism 2
	// and above one helper goroutine runs the two while this one assembles
	// and extracts the CAN traffic; at Parallelism 1 they run inline in
	// the align stage. Either way the stage events stay bracketed and in
	// order: the align stage ends when the offset is known.
	var cam *camera
	frames := make(chan *colstore.Frames, 1)
	cameraHalf := func() {
		cam = newCamera(cap.UIFrames)
		res.Offset = cam.clockOffset(<-frames)
	}
	var cameraDone chan struct{}
	if rv.Parallelism() > 1 {
		cameraDone = make(chan struct{})
		go func() {
			defer close(cameraDone)
			cameraHalf()
		}()
	}

	// §3.2 Steps 1-2: screening and payload assembly — one pass over the
	// raw frames, shared by field extraction, alignment and the message
	// count. The capture is transposed once into a columnar frame store
	// and assembled into a columnar message store; the later stages read
	// zero-copy slab views of both. The frame loop polls ctx, so captures
	// of any size cancel promptly.
	var fr *colstore.Frames
	var ms *colstore.Messages
	var aerr error
	r.stage("assemble", func() {
		fr = FramesColumnar(cap.Frames)
		frames <- fr
		ms, res.Stats, aerr = AssembleColumnar(ctx, fr, rv.assemblyObserver())
		if ms != nil {
			res.Messages = ms.Len()
		}
	})
	if aerr != nil {
		if cameraDone != nil {
			<-cameraDone
			cam.release()
		}
		// A panicking progress callback cancels the run; report the panic,
		// not the cancellation it caused.
		if cbErr := r.callbackErr(); cbErr != nil {
			return nil, cbErr
		}
		return nil, aerr
	}
	rv.met.FramesTotal.Add(float64(res.Stats.Total))
	rv.met.MessagesAssembled.Add(float64(res.Messages))

	// §3.2 Step 3: request/response pairing and field extraction, indexing
	// into the columnar message store.
	var ext *Extraction
	r.stage("extract", func() { ext = extractFields(ms, acquireESVs(ms.Len())) })
	rv.met.ESVObservations.Add(float64(len(ext.ESVs)))
	rv.met.ECRObservations.Add(float64(len(ext.ECRs)))

	// §3.3: camera-to-CAN clock alignment, after the camera half.
	r.stage("align", func() {
		if cameraDone == nil {
			cameraHalf()
		} else {
			<-cameraDone
		}
	})

	// §3.3-§3.5 Step 1: the CAN half of stream preparation — the streams
	// of each session, their display rows, pairing, screening,
	// aggregation.
	r.stage("streams", func() {
		res.Streams = streamsFromExtraction(ext, cam, res.Offset, rv.Parallelism())
	})
	cam.release()
	// The streams copied what they need out of the observations, and the
	// stream index has dropped them.
	releaseESVs(ext.ESVs)
	ext.ESVs = nil
	for _, sd := range res.Streams {
		rv.met.StreamsExtracted.With(streamKind(sd)).Inc()
	}

	// Damage observed so far, attributed to streams in deterministic
	// (stream, then ID) order.
	res.Degraded = append(res.Degraded, assembleDegraded(res.Stats, res.Streams)...)
	res.Degraded = append(res.Degraded, pairingDegraded(res.Streams)...)

	// Attack detection over the assembly-layer profiles: each classified
	// finding becomes a degraded-stream entry (Reason = attack class), a
	// point on the attack-signature counter, and a flight-recorder event.
	attacks := DetectAttacks(res.Stats)
	res.Degraded = append(res.Degraded, attackDegraded(attacks, res.Streams)...)
	for _, f := range attacks {
		rv.met.AttackSignatures.With(f.Class).Inc()
		rv.log.Warn("attack-detected",
			telemetry.String("id", fmt.Sprintf("%03X", f.ID)),
			telemetry.String("class", f.Class),
			telemetry.String("detail", f.Detail))
	}

	// §3.5 Steps 2-3: per-stream formula inference, fanned out across the
	// worker pool. A panicking stream is contained: its slot keeps the
	// formula-less ESV and the panic joins the degradation report.
	var esvs []ReversedESV
	var inferErrs []*StreamError
	var err error
	r.stage("infer", func() { esvs, inferErrs, err = r.inferStreams(ctx, res.Streams) })
	if cbErr := r.callbackErr(); cbErr != nil {
		return nil, cbErr
	}
	if err != nil {
		return nil, err
	}
	for _, se := range inferErrs {
		if se != nil {
			res.Degraded = append(res.Degraded, *se)
		}
	}
	res.ESVs = esvs
	keys := make([]string, len(esvs))
	for i := range esvs {
		keys[i] = esvs[i].Key.String()
	}
	sort.Sort(esvsByKey{keys, esvs})

	// §4.5: control-record extraction with active-test screen semantics.
	r.stage("controls", func() {
		res.ECRs = reverseECRs(ext.ECRs, cap.UIFrames, res.Offset)
	})
	rv.met.ECRsRecovered.Add(float64(len(res.ECRs)))

	// Aggregate the per-stream GP counters onto the result and the
	// registry; the two agree exactly by construction.
	for _, e := range res.ESVs {
		res.Evaluations += e.Evaluations
		res.CacheHits += e.CacheHits
		res.CacheMisses += e.CacheMisses
		rv.met.ESVsReversed.With(e.Kind()).Inc()
	}
	rv.met.GPEvaluations.Add(float64(res.Evaluations))
	rv.met.GPCacheHits.Add(float64(res.CacheHits))
	rv.met.GPCacheMisses.Add(float64(res.CacheMisses))
	rv.met.RunsTotal.Inc()

	for _, se := range res.Degraded {
		rv.met.DegradedStreams.With(se.Stage).Inc()
		// Degraded entries are already in deterministic (stream, ID) order,
		// so these warnings are too.
		rv.log.Warn("stream-degraded",
			telemetry.String("stream", se.Key.String()),
			telemetry.String("label", se.Label),
			telemetry.String("stage", se.Stage),
			telemetry.String("reason", se.Reason),
			telemetry.String("detail", se.Detail))
	}
	rv.log.Info("run-done",
		telemetry.Int("esvs", len(res.ESVs)),
		telemetry.Int("ecrs", len(res.ECRs)),
		telemetry.Int("evaluations", res.Evaluations),
		telemetry.Int("degraded", len(res.Degraded)),
		telemetry.Millis("elapsed_ms", rv.clock.Now()-runStart))

	if cbErr := r.callbackErr(); cbErr != nil {
		return nil, cbErr
	}
	if rv.policy == Strict && len(res.Degraded) > 0 {
		return nil, &DegradedError{Result: res}
	}
	return res, nil
}

// esvsByKey sorts ESVs by their formatted keys, each formatted once; the
// keys move with their ESVs.
type esvsByKey struct {
	keys []string
	esvs []ReversedESV
}

func (s esvsByKey) Len() int           { return len(s.keys) }
func (s esvsByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s esvsByKey) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.esvs[i], s.esvs[j] = s.esvs[j], s.esvs[i]
}

// streamKind classifies a prepared stream for the extraction metric.
func streamKind(sd StreamData) string {
	switch {
	case sd.Enum:
		return "enum"
	case sd.Dataset != nil:
		return "formula-candidate"
	default:
		return "under-sampled"
	}
}

// assemblyObserver routes per-frame reassembly failures into the labeled
// transport-error counter.
func (rv *Reverser) assemblyObserver() AssemblyObserver {
	if rv.tel == nil {
		return nil
	}
	return func(transport, reason string) {
		rv.met.TransportErrors.With(transport, reason).Inc()
	}
}

// inferStreams fans InferStream out across the worker pool. Workers claim
// streams from a shared atomic cursor and write results by index, so the
// output order — and, thanks to per-stream seeds, every formula — is
// independent of scheduling. A panic inside one stream's inference is
// recovered in place: the stream keeps a formula-less result, the panic is
// reported by index (so the degradation report is deterministic at any
// parallelism), and the other workers keep going.
func (r *run) inferStreams(ctx context.Context, streams []StreamData) ([]ReversedESV, []*StreamError, error) {
	rv := r.rv
	inferSpan := r.span.Child("infer-pool", telemetry.Int("streams", len(streams)))
	defer inferSpan.End()
	out := make([]ReversedESV, len(streams))
	degraded := make([]*StreamError, len(streams))
	workers := rv.Parallelism()
	if workers > len(streams) {
		workers = len(streams)
	}
	if workers < 1 {
		workers = 1
	}
	var (
		cursor int64 = -1
		wg     sync.WaitGroup
	)
	total := len(streams)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&cursor, 1))
				if i >= total || ctx.Err() != nil {
					return
				}
				sd := streams[i]
				cfg := rv.cfg
				cfg.GP.Seed = streamSeed(rv.cfg.GP.Seed, sd.Key)
				sc := r.open(inferSpan, ProgressEvent{
					Kind: ProgressStreamStart, Stage: "infer",
					Stream: sd.Key, Label: sd.Label, Total: total,
				})
				sc.next, cfg.GP.Observer = cfg.GP.Observer, sc
				esv, err, panicked := safeInferStream(ctx, sd, cfg)
				if panicked != nil {
					degraded[i] = &StreamError{
						Key: sd.Key, Label: sd.Label, Stage: "infer",
						Reason: "panic", Detail: fmt.Sprintf("inference panicked: %v", panicked),
					}
				} else if err != nil {
					sc.abandon()
					return // ctx cancelled; the post-wait check reports it
				}
				out[i] = esv
				sc.close(&esv)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return out, degraded, nil
}

// safeInferStream runs InferStream under a panic guard. A recovered panic
// yields the formula-less ESV the stream would report for a degenerate
// dataset, plus the panic value for the degradation report.
func safeInferStream(ctx context.Context, sd StreamData, cfg Config) (esv ReversedESV, err error, panicked any) {
	defer func() {
		if p := recover(); p != nil {
			panicked = p
			err = nil
			esv = ReversedESV{Key: sd.Key, Label: sd.Label, Unit: sd.Unit, Enum: sd.Enum, Pairs: sd.RawPairs}
		}
	}()
	esv, err = InferStream(ctx, sd, cfg)
	return esv, err, nil
}

// streamSeed derives the per-stream GP seed from the capture seed and the
// stream identity (§3.5 determinism): every stream owns an RNG that does
// not depend on which worker runs it or in what order, so a capture
// reverses byte-identically at any parallelism — and two streams never
// share one random sequence, as they did when the engine was sequential.
func streamSeed(base int64, key StreamKey) int64 {
	h := fnv.New64a()
	io.WriteString(h, key.String())
	return base ^ int64(h.Sum64()&0x7FFFFFFFFFFFFFFF)
}
