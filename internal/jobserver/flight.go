package jobserver

import (
	"dpreverser/internal/reverser"
	"dpreverser/internal/telemetry"
)

// The flight recorder is the per-job postmortem bundle: the job's most
// recent correlated log records (the ring teed off its logger), its
// stage/stream timings from the progress history, and the degraded-
// stream reasons from the (possibly partial) result. It is served at
// GET /api/v1/jobs/{id}/flight and embedded in a failed job's result
// payload, so diagnosing a failure needs no re-run.

// FlightStage is one stage or stream timing in the flight record.
type FlightStage struct {
	Stage string `json:"stage"`
	// Stream and Label identify per-stream entries; empty for stages.
	Stream    string  `json:"stream,omitempty"`
	Label     string  `json:"label,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// FlightRecord is the exported postmortem view of one job.
type FlightRecord struct {
	Job    string `json:"job"`
	Tenant string `json:"tenant"`
	Car    string `json:"car,omitempty"`
	Stream string `json:"stream,omitempty"`
	Shard  int    `json:"shard"`
	State  string `json:"state"`
	Error  string `json:"error,omitempty"`
	// QueueWaitMS and RunMS mirror the snapshot latencies.
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	RunMS       float64 `json:"run_ms,omitempty"`
	// Stages are the completed stage/stream timings, in progress order.
	Stages []FlightStage `json:"stages,omitempty"`
	// Degraded lists the per-stream degradation reasons — present even
	// for failed jobs when the strict fault policy preserved the partial
	// result.
	Degraded []reverser.StreamError `json:"degraded,omitempty"`
	// Events is the flight-recorder ring tail, oldest first, each record
	// carrying the job's full correlation context. DroppedEvents counts
	// older records the bounded ring evicted.
	Events        []telemetry.Record `json:"events"`
	DroppedEvents uint64             `json:"dropped_events,omitempty"`
}

// Flight assembles the job's current flight record. Unlike Result it is
// available in every state — that is the point: failed and in-flight
// jobs are the ones worth diagnosing.
func (j *Job) Flight() FlightRecord {
	snap := j.Snapshot()
	fr := FlightRecord{
		Job: snap.ID, Tenant: snap.Tenant, Car: snap.Car, Stream: snap.Stream,
		Shard: snap.Shard, State: snap.State, Error: snap.Error,
		QueueWaitMS: snap.QueueWaitMS, RunMS: snap.RunMS,
	}

	stageDone, streamDone := reverser.ProgressStageDone.String(), reverser.ProgressStreamDone.String()
	j.mu.Lock()
	for _, ev := range j.events {
		if ev.Kind != stageDone && ev.Kind != streamDone {
			continue
		}
		fr.Stages = append(fr.Stages, FlightStage{
			Stage: ev.Stage, Stream: ev.Stream, Label: ev.Label, ElapsedMS: ev.ElapsedMS,
		})
	}
	// Read the result directly rather than via Result(): a failed job's
	// partial result still names its degraded streams.
	if j.result != nil {
		fr.Degraded = append(fr.Degraded, j.result.Degraded...)
	}
	j.mu.Unlock()

	recs, dropped := j.ring.Snapshot()
	if recs == nil {
		recs = []telemetry.Record{}
	}
	fr.Events = recs
	fr.DroppedEvents = dropped
	return fr
}
