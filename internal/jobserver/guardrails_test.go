package jobserver

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dpreverser/internal/can"
	"dpreverser/internal/canbridge"
	"dpreverser/internal/faults"
	"dpreverser/internal/isotp"
	"dpreverser/internal/reverser"
	"dpreverser/internal/telemetry"
)

func promDump(t *testing.T, prov *telemetry.Provider) string {
	t.Helper()
	var buf bytes.Buffer
	if err := prov.Metrics.WritePrometheusFiltered(&buf, nil); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// attackedStreamFrames builds two ISO-TP transfers on 0x7E8 and runs them
// through the adversarial injector with flow-control starvation saturated
// — hostile traffic with a stable detector signature.
func attackedStreamFrames(t *testing.T) []can.Frame {
	t.Helper()
	var in []can.Frame
	at := time.Duration(0)
	for rep := 0; rep < 2; rep++ {
		payload := make([]byte, 40)
		for i := range payload {
			payload[i] = byte(i + rep)
		}
		chunks, err := isotp.Segment(payload, 0xAA)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range chunks {
			f := can.MustFrame(0x7E8, d)
			f.Timestamp = at
			at += time.Millisecond
			in = append(in, f)
		}
	}
	return faults.New(faults.Spec{FCStarve: 1}, 7).Frames(in)
}

// TestIdleStreamExpiredWithoutStarvingTenants: a hostile peer that
// registers a stream and then goes silent is failed with the distinct
// idle-timeout reason — and while it holds its connection, another
// tenant's job runs to completion, so the idle session starves nobody.
func TestIdleStreamExpiredWithoutStarvingTenants(t *testing.T) {
	cap := carMCapture(t)
	mc := telemetry.NewManualClock(0)
	prov := telemetry.New(mc)
	srv := New(Config{Reverser: quickOpts()}, prov)
	defer srv.Close()

	addr, err := srv.ServeIngest("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := srv.RegisterStream("mallory", "Car M", "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := canbridge.DialStream(addr, reg.Token)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(can.MustFrame(0x7E0, []byte{0x01})); err != nil {
		t.Fatal(err)
	}

	// The hostile session now sits idle. An honest tenant's work proceeds.
	j, err := srv.Submit("acme", cap, "")
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, j, JobState.Terminal); st != Done {
		t.Fatalf("honest job finished %s alongside an idle stream", st)
	}

	// Advance the injected clock past the timeout and sweep.
	mc.Advance(ingestIdleTimeout + time.Second)
	if n := srv.expireIdleStreams(); n != 1 {
		t.Fatalf("expireIdleStreams = %d, want 1", n)
	}
	if st := waitState(t, reg.Job, JobState.Terminal); st != Failed {
		t.Fatalf("idle stream's job finished %s, want failed", st)
	}
	if msg := reg.Job.Snapshot().Error; !strings.Contains(msg, reasonIdleTimeout) {
		t.Fatalf("job error = %q, want the idle-timeout reason", msg)
	}
	if dump := promDump(t, prov); !strings.Contains(dump,
		telemetry.MetricStreamSessions+`{outcome="idle-timeout"} 1`) {
		t.Error("idle-timeout session outcome not counted")
	}
}

// TestStreamFrameBudgetFailsJob: a session exceeding its frame budget is
// refused mid-stream and the job fails with the budget's distinct reason.
func TestStreamFrameBudgetFailsJob(t *testing.T) {
	defer func(n int) { ingestMaxFrames = n }(ingestMaxFrames)
	ingestMaxFrames = 4
	prov := telemetry.New(telemetry.NewManualClock(0))
	srv := New(Config{Reverser: quickOpts()}, prov)
	defer srv.Close()

	addr, err := srv.ServeIngest("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := srv.RegisterStream("acme", "Car M", "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := canbridge.DialStream(addr, reg.Token)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 4; i++ {
		if err := conn.Send(can.MustFrame(0x7E0, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Send(can.MustFrame(0x7E0, []byte{0xFF})); err == nil {
		t.Fatal("send past the frame budget succeeded")
	}
	if st := waitState(t, reg.Job, JobState.Terminal); st != Failed {
		t.Fatalf("over-budget stream's job finished %s, want failed", st)
	}
	if msg := reg.Job.Snapshot().Error; !strings.Contains(msg, reasonFrameBudget) {
		t.Fatalf("job error = %q, want the frame-budget reason", msg)
	}
	if dump := promDump(t, prov); !strings.Contains(dump,
		telemetry.MetricStreamSessions+`{outcome="frame-budget"} 1`) {
		t.Error("frame-budget session outcome not counted")
	}
}

// TestIngestRejectsStreamCommandsBeforeHello: a SEND before any HELLO is
// refused, and it binds nothing: the stream's token still works after.
func TestIngestRejectsStreamCommandsBeforeHello(t *testing.T) {
	srv := New(Config{Reverser: quickOpts()}, telemetry.New(telemetry.NewManualClock(0)))
	defer srv.Close()
	addr, err := srv.ServeIngest("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := srv.RegisterStream("acme", "Car M", "")
	if err != nil {
		t.Fatal(err)
	}

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	rd := bufio.NewReader(raw)
	if greeting, err := rd.ReadString('\n'); err != nil || !strings.HasPrefix(greeting, "HELLO") {
		t.Fatalf("greeting = %q, %v", greeting, err)
	}
	if _, err := raw.Write([]byte("SEND 123#00\n")); err != nil {
		t.Fatal(err)
	}
	line, err := rd.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if msg, _ := canbridge.Parse(line); msg == nil {
		t.Fatalf("unparsable reply %q", line)
	} else if _, isErr := msg.(canbridge.MsgErr); !isErr {
		t.Fatalf("reply to early SEND = %q, want ERR", line)
	}

	conn, err := canbridge.DialStream(addr, reg.Token)
	if err != nil {
		t.Fatalf("token refused after an early SEND on another connection: %v", err)
	}
	conn.Close()
}

// TestUnpresentedStreamTokenExpires: a registered stream whose token is
// never presented is idle from registration, so the sweep fails it and
// frees its tenant's quota slot. No ingest listener is needed for that.
func TestUnpresentedStreamTokenExpires(t *testing.T) {
	mc := telemetry.NewManualClock(0)
	srv := New(Config{TenantMaxActive: 1, Reverser: quickOpts()}, telemetry.New(mc))
	defer srv.Close()

	reg, err := srv.RegisterStream("acme", "Car M", "")
	if err != nil {
		t.Fatal(err)
	}
	mc.Advance(ingestIdleTimeout - time.Second)
	if n := srv.expireIdleStreams(); n != 0 {
		t.Fatalf("expireIdleStreams = %d before the timeout, want 0", n)
	}
	mc.Advance(time.Second)
	if n := srv.expireIdleStreams(); n != 1 {
		t.Fatalf("expireIdleStreams = %d, want 1", n)
	}
	if st := reg.Job.State(); st != Failed {
		t.Fatalf("never-dialled stream's job is %s, want failed", st)
	}
	if msg := reg.Job.Snapshot().Error; !strings.Contains(msg, reasonIdleTimeout) {
		t.Fatalf("job error = %q, want the idle-timeout reason", msg)
	}
	if _, err := srv.RegisterStream("acme", "Car M", ""); err != nil {
		t.Fatalf("tenant slot still held after the idle expiry: %v", err)
	}
}

// TestStreamAdvancePastLargestTimeRefused: an ADVANCE that would carry
// stream time past the largest Duration is refused, and the stream goes
// on at the time it had.
func TestStreamAdvancePastLargestTimeRefused(t *testing.T) {
	srv := New(Config{Reverser: quickOpts()}, telemetry.New(telemetry.NewManualClock(0)))
	defer srv.Close()
	addr, err := srv.ServeIngest("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := srv.RegisterStream("acme", "Car M", "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := canbridge.DialStream(addr, reg.Token)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	largest := math.MaxInt64 / time.Millisecond * time.Millisecond
	if err := conn.Advance(largest); err != nil {
		t.Fatalf("ADVANCE to the largest stream time: %v", err)
	}
	var se *canbridge.ServerError
	if err := conn.Advance(time.Millisecond); !errors.As(err, &se) {
		t.Fatalf("ADVANCE past the largest stream time: err = %v, want *canbridge.ServerError", err)
	}
	if err := conn.Send(can.MustFrame(0x7E0, []byte{0x01})); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	ss := srv.streams[reg.Token]
	srv.mu.Unlock()
	ss.mu.Lock()
	at := ss.frames[0].Timestamp
	ss.mu.Unlock()
	if at != largest {
		t.Fatalf("frame stamped at %v, want %v", at, largest)
	}
}

// TestCancelClosesBoundStream: cancelling a streaming job over HTTP
// closes its ingest connection, rather than leaving it open to answer
// every later SEND with ERR, and the session is counted once.
func TestCancelClosesBoundStream(t *testing.T) {
	prov := telemetry.New(telemetry.NewManualClock(0))
	srv := New(Config{Reverser: quickOpts()}, prov)
	defer srv.Close()
	addr, err := srv.ServeIngest("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := srv.RegisterStream("acme", "Car M", "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := canbridge.DialStream(addr, reg.Token)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(can.MustFrame(0x7E0, []byte{0x01})); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/api/v1/jobs/"+reg.Job.ID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE = %d: %s", rec.Code, rec.Body)
	}
	sent := make(chan error, 1)
	go func() { sent <- conn.Send(can.MustFrame(0x7E0, []byte{0x02})) }()
	select {
	case err := <-sent:
		var se *canbridge.ServerError
		if err == nil || errors.As(err, &se) {
			t.Fatalf("send after cancel: err = %v, want the connection closed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send after cancel still pending after 5s")
	}

	if err := srv.Close(); err != nil { // joins the session's goroutine
		t.Fatal(err)
	}
	if st := reg.Job.State(); st != Cancelled {
		t.Fatalf("cancelled streaming job is %s", st)
	}
	dump := promDump(t, prov)
	if !strings.Contains(dump, telemetry.MetricStreamSessions+`{outcome="truncated"} 1`) ||
		strings.Count(dump, telemetry.MetricStreamSessions+"{") != 1 {
		t.Errorf("stream sessions not counted exactly once:\n%s", dump)
	}
}

// TestAttackedStreamRejectedAtAdmission: a session that ends cleanly but
// carries transport-layer attack signatures is rejected at admission —
// the job fails naming the class and target ID, and no worker runs it.
func TestAttackedStreamRejectedAtAdmission(t *testing.T) {
	prov := telemetry.New(telemetry.NewManualClock(0))
	srv := New(Config{Reverser: quickOpts()}, prov)
	defer srv.Close()

	addr, err := srv.ServeIngest("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := srv.RegisterStream("acme", "Car M", "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := canbridge.DialStream(addr, reg.Token)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range attackedStreamFrames(t) {
		if err := conn.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Close(); err != nil { // clean EOF: the attacker plays nice
		t.Fatal(err)
	}
	if st := waitState(t, reg.Job, JobState.Terminal); st != Failed {
		t.Fatalf("attacked stream's job finished %s, want failed", st)
	}
	msg := reg.Job.Snapshot().Error
	if !strings.Contains(msg, "attack signatures") ||
		!strings.Contains(msg, reverser.AttackFCStarvation) ||
		!strings.Contains(msg, "7E8") {
		t.Fatalf("job error = %q, want attack attribution with class and ID", msg)
	}
	if dump := promDump(t, prov); !strings.Contains(dump,
		telemetry.MetricStreamSessions+`{outcome="attack-rejected"} 1`) {
		t.Error("attack-rejected session outcome not counted")
	}
}

// TestAttackAttributionReaches409Flight: under the strict policy an
// attacked capture fails the job, and the 409 result payload's embedded
// flight record carries the per-stream attack attribution.
func TestAttackAttributionReaches409Flight(t *testing.T) {
	cap := carMCapture(t)
	cap.Frames = faults.New(faults.Spec{FCStarve: 1}, 7).Frames(cap.Frames)
	prov := telemetry.New(telemetry.NewManualClock(0))
	opts := append(quickOpts(), reverser.WithFaultPolicy(reverser.Strict))
	srv := New(Config{Reverser: opts}, prov)
	defer srv.Close()

	j, err := srv.Submit("acme", cap, "")
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, j, JobState.Terminal); st != Failed {
		t.Fatalf("attacked strict run finished %s, want failed", st)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/api/v1/jobs/" + j.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("failed result = %d, want 409", resp.StatusCode)
	}
	var doc struct {
		State  string      `json:"state"`
		Flight *wireFlight `json:"flight"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Flight == nil {
		t.Fatalf("409 payload carries no flight record")
	}
	attacked := 0
	for _, se := range doc.Flight.Degraded {
		if se.Stage == reverser.StageAttack {
			attacked++
			if se.Reason != reverser.AttackFCStarvation {
				t.Fatalf("attack entry reason = %q, want %q", se.Reason, reverser.AttackFCStarvation)
			}
		}
	}
	if attacked == 0 {
		t.Fatalf("no attack-stage entries in the 409 flight record: %+v", doc.Flight.Degraded)
	}
}
