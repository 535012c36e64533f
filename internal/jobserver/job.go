// Package jobserver turns the batch reverse-engineering pipeline into a
// long-running, multi-tenant service: captures arrive over HTTP (upload)
// or the canbridge line protocol (live streams, through the server's own
// ingest listener in ingest.go), land in a sharded in-memory job queue
// partitioned by (tenant, car, stream key), and a bounded worker fleet
// runs each job through reverser.New with per-job cancellation, progress
// history, quotas, backpressure and graceful drain. cmd/dpreversed is the
// daemon wrapping this package.
package jobserver

import (
	"context"
	"sync"
	"time"

	"dpreverser/internal/reverser"
	"dpreverser/internal/rig"
	"dpreverser/internal/telemetry"
)

// JobState is a job's lifecycle position.
type JobState int

const (
	// Streaming jobs are bound to a live canbridge ingest session; the
	// capture is still arriving.
	Streaming JobState = iota
	// Queued jobs sit in their shard's queue waiting for a worker.
	Queued
	// Running jobs occupy a worker.
	Running
	// Done jobs completed with a result.
	Done
	// Failed jobs ended with an error (pipeline failure or truncated
	// stream).
	Failed
	// Cancelled jobs were cancelled by the tenant or by shutdown.
	Cancelled
)

// String implements fmt.Stringer with the wire names the API and the
// jobs-by-state metric use.
func (s JobState) String() string {
	switch s {
	case Streaming:
		return "streaming"
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	default:
		return "unknown"
	}
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s == Done || s == Failed || s == Cancelled }

// ProgressRecord is one archived pipeline progress event, numbered so
// pollers can resume from where they left off.
type ProgressRecord struct {
	// Seq is the 1-based position of this event in the job's history.
	Seq int `json:"seq"`
	// Kind is the event kind's wire name (reverser.ProgressKind.String):
	// stage-start, stage-done, stream-start, stream-done.
	Kind string `json:"kind"`
	// Stage is the pipeline stage the event belongs to.
	Stage string `json:"stage"`
	// Stream and Label identify the stream for stream events.
	Stream string `json:"stream,omitempty"`
	Label  string `json:"label,omitempty"`
	// Generations/Evaluations report the GP counters (stream-done only).
	Generations int `json:"generations,omitempty"`
	Evaluations int `json:"evaluations,omitempty"`
	// Done and Total count finished vs. scheduled streams (stream
	// events).
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// ElapsedMS is the stage or stream wall time (done events only),
	// from the injected telemetry clock.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
}

// Job is one unit of reverse-engineering work. All mutable fields are
// guarded by mu; the identity fields are immutable after creation.
type Job struct {
	// ID is the server-assigned identifier ("j1", "j2", ...).
	ID string
	// Tenant is the submitting tenant.
	Tenant string
	// Car is the capture's vehicle name (from the upload, or declared at
	// stream registration).
	Car string
	// StreamName is the optional partition key component binding related
	// submissions to one shard.
	StreamName string
	// shard is the queue partition the job hashed to.
	shard int

	// ring is the job's flight recorder: the most recent correlated log
	// records, teed off the job logger. log carries the job's bound
	// correlation context; both are set at admission and never change.
	ring *telemetry.RingSink
	log  *telemetry.Logger

	mu sync.Mutex
	// updated is closed and replaced on every state/progress change — the
	// broadcast primitive long-polling watchers wait on.
	updated chan struct{}

	// runLog is log plus the run's root span ID, bound when a worker
	// claims the job.
	runLog *telemetry.Logger

	state JobState
	// capture is the job's input until the job ends; frames is its frame
	// count, kept after the capture is dropped.
	capture rig.Capture
	frames  int
	result  *reverser.Result
	errMsg  string
	events  []ProgressRecord

	// submitted/started/finished are read from the server clock.
	submitted, started, finished time.Duration

	// cancelRun aborts the pipeline run once the job is running.
	cancelRun context.CancelFunc
	// cancelled is set by Cancel so a queued (or streaming) job is
	// skipped when it surfaces.
	cancelled bool
}

// newJob builds a job in its initial state.
func newJob(id, tenant, car, streamName string, state JobState, submitted time.Duration) *Job {
	return &Job{
		ID: id, Tenant: tenant, Car: car, StreamName: streamName,
		state: state, submitted: submitted,
		updated: make(chan struct{}),
	}
}

// notifyLocked wakes every watcher; callers hold mu.
func (j *Job) notifyLocked() {
	close(j.updated)
	j.updated = make(chan struct{})
}

// setRunLogger binds the span-correlated run logger.
func (j *Job) setRunLogger(l *telemetry.Logger) {
	j.mu.Lock()
	j.runLog = l
	j.mu.Unlock()
}

// State reads the current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Snapshot is the API-facing view of a job.
type Snapshot struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Car    string `json:"car,omitempty"`
	Stream string `json:"stream,omitempty"`
	State  string `json:"state"`
	Shard  int    `json:"shard"`
	// Error is the failure detail for failed jobs.
	Error string `json:"error,omitempty"`
	// Events is the progress history length; fetch the events endpoint
	// for the records themselves.
	Events int `json:"events"`
	// QueueWaitMS and RunMS are the job's measured latencies (server
	// clock), present once the respective phase ended.
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	RunMS       float64 `json:"run_ms,omitempty"`
	// Frames is the capture size (known once the capture is complete).
	Frames int `json:"frames,omitempty"`
	// ESVs/ECRs summarise the result for done jobs.
	ESVs int `json:"esvs,omitempty"`
	ECRs int `json:"ecrs,omitempty"`
}

// Snapshot captures the job's current API view.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID: j.ID, Tenant: j.Tenant, Car: j.Car, Stream: j.StreamName,
		State: j.state.String(), Shard: j.shard,
		Error: j.errMsg, Events: len(j.events),
		Frames: j.frames,
	}
	if j.started > 0 && j.started >= j.submitted {
		s.QueueWaitMS = float64((j.started - j.submitted).Microseconds()) / 1e3
	}
	if j.finished > 0 && j.finished >= j.started {
		s.RunMS = float64((j.finished - j.started).Microseconds()) / 1e3
	}
	if j.result != nil {
		s.ESVs = len(j.result.ESVs)
		s.ECRs = len(j.result.ECRs)
	}
	return s
}

// Result returns the completed result, or nil while the job is not Done.
// Its Streams are nil: the job drops the per-stream inference inputs when
// it ends, since neither the result document nor any endpoint reads them.
func (j *Job) Result() *reverser.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Done {
		return nil
	}
	return j.result
}

// record archives one pipeline progress event and wakes watchers. It is
// the job's reverser.ProgressFunc; the Reverser serialises calls, but
// watchers read concurrently, so it still locks.
func (j *Job) record(ev reverser.ProgressEvent) {
	rec := ProgressRecord{
		Kind:        ev.Kind.String(),
		Stage:       ev.Stage,
		Label:       ev.Label,
		Generations: ev.Generations,
		Evaluations: ev.Evaluations,
		Done:        ev.Done,
		Total:       ev.Total,
		ElapsedMS:   float64(ev.Elapsed.Microseconds()) / 1e3,
	}
	if ev.Stream != (reverser.StreamKey{}) {
		rec.Stream = ev.Stream.String()
	}
	j.mu.Lock()
	rec.Seq = len(j.events) + 1
	j.events = append(j.events, rec)
	j.notifyLocked()
	j.mu.Unlock()
}

// EventsSince returns the progress records with Seq > after, plus a
// channel that is closed on the next job update — the long-poll
// primitive. When records are already available the channel is the
// current one (possibly already closed); callers only wait on it when the
// slice comes back empty.
func (j *Job) EventsSince(after int) ([]ProgressRecord, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := j.updated
	if after < 0 {
		after = 0
	}
	if after >= len(j.events) {
		return nil, ch
	}
	out := make([]ProgressRecord, len(j.events)-after)
	copy(out, j.events[after:])
	return out, ch
}
