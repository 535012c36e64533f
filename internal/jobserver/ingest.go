package jobserver

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"

	"dpreverser/internal/can"
	"dpreverser/internal/canbridge"
	"dpreverser/internal/reverser"
	"dpreverser/internal/rig"
	"dpreverser/internal/telemetry"
)

// ingestListener is the Server's handle on the canbridge ingest layer,
// named so server.go stays free of the canbridge import.
type ingestListener = *canbridge.IngestServer

// StreamRegistration is what a tenant gets back from registering a live
// stream: the job (in Streaming state) and the one-shot session token to
// present in the canbridge HELLO.
type StreamRegistration struct {
	Job   *Job
	Token string
}

// RegisterStream admits a streaming job. The capture arrives afterwards
// over the canbridge ingest listener, bound by the returned token; a
// clean session end (client EOF) queues the job, a dropped or aborted
// session fails it. Registration counts against the tenant quota like any
// other live job.
func (s *Server) RegisterStream(tenant, car, streamName string) (StreamRegistration, error) {
	var buf [12]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return StreamRegistration{}, fmt.Errorf("jobserver: stream token: %w", err)
	}
	token := hex.EncodeToString(buf[:])

	s.mu.Lock()
	j, err := s.admitLocked(tenant, car, streamName, Streaming)
	if err != nil {
		s.mu.Unlock()
		s.logRejection(tenant, err)
		return StreamRegistration{}, err
	}
	ss := &streamSession{srv: s, job: j}
	s.streams[token] = ss
	s.mu.Unlock()
	j.log.Info("stream-registered")
	return StreamRegistration{Job: j, Token: token}, nil
}

// ServeIngest starts the canbridge ingest listener on addr ("127.0.0.1:0"
// for an ephemeral port) and returns the bound address. The listener is
// torn down with the server. Sessions run under the configured ingest
// guardrails: idle timeout, frame budget, byte budget.
func (s *Server) ServeIngest(addr string) (string, error) {
	lim := canbridge.IngestLimits{
		IdleTimeout: s.cfg.IngestIdleTimeout,
		MaxFrames:   s.cfg.IngestMaxFrames,
		MaxBytes:    s.cfg.IngestMaxBytes,
	}
	if mc, ok := s.clock.(*telemetry.ManualClock); ok {
		// Tests drive the server on a manual clock: idle expiry follows
		// it (via ExpireIdleStreams) instead of real read deadlines.
		lim.Clock = mc.Now
	} else if lim.IdleTimeout > 0 {
		lim.SweepInterval = lim.IdleTimeout / 4
	}
	ing := canbridge.NewIngestServerLimited(s.openStream, lim)
	bound, err := ing.Listen(addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ing.Close()
		return "", fmt.Errorf("jobserver: server is draining")
	}
	s.ingest = ing
	s.mu.Unlock()
	return bound, nil
}

// ExpireIdleStreams sweeps the ingest listener's sessions for idle peers
// and fails them, returning how many were expired. The canbridge layer
// runs this sweep itself on a wall clock; servers on a manual clock
// (tests) call it after advancing time.
func (s *Server) ExpireIdleStreams() int {
	s.mu.Lock()
	ing := s.ingest
	s.mu.Unlock()
	if ing == nil {
		return 0
	}
	return ing.ExpireIdle()
}

// openStream resolves a HELLO token to its session sink. Each token binds
// exactly once.
func (s *Server) openStream(token string) (canbridge.IngestSink, error) {
	s.mu.Lock()
	ss, ok := s.streams[token]
	if ok {
		delete(s.streams, token)
	}
	draining := s.draining
	s.mu.Unlock()
	if !ok || draining {
		s.met.StreamSessions.With("rejected").Inc()
		return nil, fmt.Errorf("jobserver: unknown or already-bound stream token")
	}
	return ss, nil
}

// streamSession adapts one registered stream onto canbridge.IngestSink,
// accumulating frames into the job's capture until the session ends.
type streamSession struct {
	srv *Server
	job *Job

	mu         sync.Mutex
	frames     []can.Frame
	aborted    bool
	closed     bool
	failReason string
}

// Fail implements canbridge.FailableSink: record the distinct guardrail
// reason (idle-timeout, frame-budget, byte-budget) the ingest layer is
// about to fail this session with, so Close(false) can attribute it.
func (ss *streamSession) Fail(reason string) {
	ss.mu.Lock()
	if ss.failReason == "" {
		ss.failReason = reason
	}
	ss.mu.Unlock()
}

// Frame implements canbridge.IngestSink: buffer one stamped frame.
func (ss *streamSession) Frame(f can.Frame) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.aborted || ss.closed {
		return fmt.Errorf("jobserver: stream session closed")
	}
	if ss.job.State().Terminal() {
		return fmt.Errorf("jobserver: job %s is %s", ss.job.ID, ss.job.State())
	}
	ss.frames = append(ss.frames, f)
	return nil
}

// Advance implements canbridge.IngestSink. Frames arrive already stamped
// with the session clock, so there is nothing to do beyond refusing dead
// sessions.
func (ss *streamSession) Advance(time.Duration) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.aborted || ss.closed {
		return fmt.Errorf("jobserver: stream session closed")
	}
	return nil
}

// Close implements canbridge.IngestSink: finalise the stream. A complete
// session queues the job with the accumulated capture; anything else
// fails it.
func (ss *streamSession) Close(complete bool) {
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return
	}
	ss.closed = true
	if ss.aborted {
		complete = false
	}
	frames := ss.frames
	ss.frames = nil
	reason := ss.failReason
	ss.mu.Unlock()

	j, s := ss.job, ss.srv
	if j.State().Terminal() {
		// Cancelled while streaming; the books are already settled.
		s.met.StreamSessions.With("truncated").Inc()
		j.log.Warn("stream-session-end", telemetry.String("outcome", "truncated"),
			telemetry.String("detail", "job already terminal"))
		return
	}
	if !complete {
		outcome := "truncated"
		errMsg := "stream truncated before completion"
		if reason != "" {
			// A guardrail kill carries its distinct reason through to the
			// session metric and the job's terminal error.
			outcome = reason
			errMsg = "stream session failed: " + reason
		}
		s.met.StreamSessions.With(outcome).Inc()
		j.log.Warn("stream-session-end", telemetry.String("outcome", outcome),
			telemetry.Int("frames", len(frames)))
		s.finalize(j, Failed, nil, errMsg)
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		// The worker fleet may already be past the point of picking the
		// job up; refuse rather than strand it in the queue.
		s.met.StreamSessions.With("truncated").Inc()
		j.log.Warn("stream-session-end", telemetry.String("outcome", "truncated"),
			telemetry.String("detail", "server draining"))
		s.finalize(j, Failed, nil, "stream completed during server drain")
		return
	}
	if s.cfg.ScreenStreams {
		if findings := reverser.ScreenFrames(frames); len(findings) > 0 {
			classes := make([]string, 0, len(findings))
			for _, f := range findings {
				classes = append(classes, fmt.Sprintf("%s on %03X", f.Class, f.ID))
			}
			s.met.StreamSessions.With("attack-rejected").Inc()
			j.log.Warn("stream-session-end", telemetry.String("outcome", "attack-rejected"),
				telemetry.Int("frames", len(frames)),
				telemetry.String("signatures", strings.Join(classes, "; ")))
			s.finalize(j, Failed, nil,
				"stream rejected at admission: attack signatures: "+strings.Join(classes, "; "))
			return
		}
	}
	s.met.StreamSessions.With("complete").Inc()
	j.log.Info("stream-session-end", telemetry.String("outcome", "complete"),
		telemetry.Int("frames", len(frames)))

	j.mu.Lock()
	j.capture = rig.Capture{Car: j.Car, Frames: frames}
	j.frames = len(frames)
	j.state = Queued
	j.notifyLocked()
	j.mu.Unlock()
	s.met.JobsByState.With(Streaming.String()).Add(-1)
	s.met.JobsByState.With(Queued.String()).Add(1)
	s.enqueue(j)
}

// abort kills a registered-but-unbound session at drain time: no
// connection exists to finalise it, so the job is settled here.
func (ss *streamSession) abort() {
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return
	}
	ss.closed = true
	ss.aborted = true
	ss.mu.Unlock()
	ss.srv.finalize(ss.job, Cancelled, nil, "")
}
