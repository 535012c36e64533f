package jobserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"dpreverser/internal/rig"
	"dpreverser/internal/telemetry"
)

// maxCaptureBytes bounds one uploaded capture body.
const maxCaptureBytes = 256 << 20

// uploadTimeout bounds how long an upload's body may take to arrive, so a
// stalled client cannot hold a handler and the bytes it has sent. It is a
// variable only so tests can shorten it.
var uploadTimeout = 2 * time.Minute

// maxEventWait caps the events endpoint's long-poll hold time.
const maxEventWait = 30 * time.Second

// Handler returns the server's HTTP API:
//
//	POST   /api/v1/jobs?tenant=T[&stream=S]   upload a capture, queue a job
//	GET    /api/v1/jobs?tenant=T              list jobs (all tenants when empty)
//	GET    /api/v1/jobs/{id}                  job snapshot
//	GET    /api/v1/jobs/{id}/events           progress history; ?after=N&wait=5s long-polls
//	GET    /api/v1/jobs/{id}/result           schema-v1 result document (done jobs)
//	DELETE /api/v1/jobs/{id}                  cancel
//	POST   /api/v1/streams?tenant=T&car=C     register a live canbridge stream
//	GET    /api/v1/formulas[?tenant=T&car=C]  recovered formulas across done jobs
//	GET    /healthz                           liveness + drain state + queue depths
//	GET    /debug/status                      live HTML operator dashboard
//	GET    /api/v1/jobs/{id}/flight           per-job flight record (any state)
//
// Telemetry (/metrics, /metrics.json, /trace, /debug/pprof/) is mounted
// from the server's provider; each scrape first refreshes the runtime
// and SLO-burn gauges. Rejected submissions return 429 (quota,
// backpressure) or 503 (draining), both with a Retry-After header and a
// correlation ID in the body. A submit is checked against the drain and
// its tenant's quota before its body is read, so those refusals cost no
// decode and take precedence over a malformed body's 400; the refused
// body is then discarded to keep the connection. The queue-depth check
// needs the capture's car and runs after the decode.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/flight", s.handleFlight)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /api/v1/streams", s.handleRegisterStream)
	mux.HandleFunc("GET /api/v1/formulas", s.handleFormulas)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /debug/status", s.handleStatus)

	tmux := telemetry.NewMux(s.tel.RegistryOrNil(), s.tel.TracerOrNil())
	sampled := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.SampleHealth()
		tmux.ServeHTTP(w, r)
	})
	for _, p := range []string{"/metrics", "/metrics.json", "/trace"} {
		mux.Handle(p, sampled)
	}
	mux.Handle("/debug/pprof/", tmux)
	return mux
}

// writeJSON emits one response document.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing to do about a dead client
}

// writeError emits the API's error shape.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeRejection maps an admission refusal onto 429/503 + Retry-After.
func writeRejection(w http.ResponseWriter, rej *RejectionError) {
	secs := int(rej.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	code := http.StatusTooManyRequests
	if rej.Reason == "draining" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{
		"error":       rej.Error(),
		"reason":      rej.Reason,
		"correlation": rej.Correlation,
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	if tenant == "" {
		writeError(w, http.StatusBadRequest, "missing tenant parameter")
		return
	}
	// Neither a reader nor a drain may wait on the body for longer than
	// uploadTimeout. A recorder has no connection to set it on, and a dead
	// connection fails the read anyway, so the error is not checked.
	//dplint:allow determinism a socket deadline is wall time
	http.NewResponseController(w).SetReadDeadline(time.Now().Add(uploadTimeout)) //nolint:errcheck
	body := http.MaxBytesReader(w, r.Body, maxCaptureBytes)
	if rej := s.refuse(tenant); rej != nil {
		writeRejection(w, rej)
		// Discarding the body keeps the keep-alive connection. A client
		// waiting on 100-continue has sent none, and the server closes
		// its connection instead.
		if r.Header.Get("Expect") == "" {
			io.Copy(io.Discard, body) //nolint:errcheck // the refusal is written
		}
		return
	}
	// The body buffer grows with the bytes that arrive, never with the
	// length the client declares.
	cap, err := rig.ReadCapture(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading capture: %v", err))
		return
	}
	j, err := s.Submit(tenant, cap, r.URL.Query().Get("stream"))
	if err != nil {
		var rej *RejectionError
		if errors.As(err, &rej) {
			writeRejection(w, rej)
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, j.Snapshot())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs(r.URL.Query().Get("tenant"))
	out := make([]Snapshot, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Snapshot())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// lookupJob resolves {id}, writing the 404 itself on a miss.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *Job {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return nil
	}
	return j
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := s.lookupJob(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Snapshot())
	}
}

// eventsResponse is the events endpoint's document.
type eventsResponse struct {
	Job    string           `json:"job"`
	State  string           `json:"state"`
	Events []ProgressRecord `json:"events"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	after := 0
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "after must be a non-negative integer")
			return
		}
		after = n
	}
	var wait time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "wait must be a duration like 5s")
			return
		}
		wait = min(d, maxEventWait)
	}
	ctx := r.Context()
	if wait > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, wait)
		defer cancel()
	}
	for {
		recs, updated := j.EventsSince(after)
		state := j.State()
		// Answer as soon as there is something to say: new events, a
		// terminal job, or no long-poll budget (left).
		if len(recs) > 0 || state.Terminal() || wait == 0 {
			if recs == nil {
				recs = []ProgressRecord{}
			}
			writeJSON(w, http.StatusOK, eventsResponse{Job: j.ID, State: state.String(), Events: recs})
			return
		}
		select {
		case <-updated:
		case <-ctx.Done():
			writeJSON(w, http.StatusOK, eventsResponse{Job: j.ID, State: j.State().String(), Events: []ProgressRecord{}})
			return
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	res := j.Result()
	if res == nil {
		snap := j.Snapshot()
		msg := fmt.Sprintf("job %s is %s", j.ID, snap.State)
		if snap.Error != "" {
			msg += ": " + snap.Error
		}
		doc := map[string]any{"error": msg, "state": snap.State}
		// A failed job's payload carries its flight record so the
		// postmortem (stage timings, degraded streams, correlated log
		// tail) needs no further round trips and no re-run.
		if snap.State == Failed.String() {
			doc["flight"] = j.Flight()
		}
		writeJSON(w, http.StatusConflict, doc)
		return
	}
	// Byte-identical with `dpreverse -json`: the schema-v1 document through
	// an indenting encoder.
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if j := s.lookupJob(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Flight())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	if err := s.Cancel(j.ID); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

// streamResponse is the stream-registration document.
type streamResponse struct {
	Job   Snapshot `json:"job"`
	Token string   `json:"token"`
}

func (s *Server) handleRegisterStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	tenant := q.Get("tenant")
	if tenant == "" {
		writeError(w, http.StatusBadRequest, "missing tenant parameter")
		return
	}
	reg, err := s.RegisterStream(tenant, q.Get("car"), q.Get("stream"))
	if err != nil {
		var rej *RejectionError
		if errors.As(err, &rej) {
			writeRejection(w, rej)
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, streamResponse{Job: reg.Job.Snapshot(), Token: reg.Token})
}

func (s *Server) handleFormulas(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	recs := s.Formulas(q.Get("tenant"), q.Get("car"))
	if recs == nil {
		recs = []FormulaRecord{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"formulas": recs})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       status,
		"queue_depths": s.QueueDepths(),
	})
}
