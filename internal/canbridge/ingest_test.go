package canbridge_test

// The listener that serves this package's stream protocol lives in the
// job server. These tests drive it over the wire through StreamConn and
// check what a streaming client sees: OK and ERR replies, the server
// error type, and how its job ends.

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
	_ "unsafe" // for go:linkname

	"dpreverser/internal/can"
	"dpreverser/internal/canbridge"
	"dpreverser/internal/jobserver"
	"dpreverser/internal/telemetry"
)

// The job server's ingest guardrails are fixed: a 2,000,000-frame budget
// and a 2-minute idle timeout swept every 30 s of wall time. The frame
// budget is lowered and the idle sweep run by hand through these links to
// the job server's own test hooks, so the tests need neither millions of
// frames nor minutes.

//go:linkname ingestMaxFrames dpreverser/internal/jobserver.ingestMaxFrames
var ingestMaxFrames int

//go:linkname expireIdleStreams dpreverser/internal/jobserver.(*Server).expireIdleStreams
func expireIdleStreams(s *jobserver.Server) int

// ingestIdleTimeout mirrors the job server's idle timeout.
const ingestIdleTimeout = 2 * time.Minute

// startIngest starts a job server on a manual clock with its ingest
// listener, and registers one stream for tenant "acme".
func startIngest(t *testing.T) (*jobserver.Server, *telemetry.Provider, *telemetry.ManualClock, string, jobserver.StreamRegistration) {
	t.Helper()
	mc := telemetry.NewManualClock(0)
	prov := telemetry.New(mc)
	srv := jobserver.New(jobserver.Config{}, prov)
	t.Cleanup(func() { srv.Close() })
	addr, err := srv.ServeIngest("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := srv.RegisterStream("acme", "Car M", "")
	if err != nil {
		t.Fatal(err)
	}
	return srv, prov, mc, addr, reg
}

// waitEnded polls until the job has left the Streaming state and reached
// a terminal one, and returns its snapshot.
func waitEnded(t *testing.T, j *jobserver.Job) jobserver.Snapshot {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !j.State().Terminal(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job still %s", j.State())
		}
	}
	return j.Snapshot()
}

// sessionCounted reports whether one stream session ended with outcome.
func sessionCounted(t *testing.T, prov *telemetry.Provider, outcome string) bool {
	t.Helper()
	var buf bytes.Buffer
	if err := prov.Metrics.WritePrometheusFiltered(&buf, nil); err != nil {
		t.Fatal(err)
	}
	return strings.Contains(buf.String(), telemetry.MetricStreamSessions+`{outcome="`+outcome+`"} 1`)
}

// TestIngestSessionStampsAndFinalises: SEND and ADVANCE are acknowledged,
// ADVANCE moves the stream time that SEND stamps frames with, and a clean
// client Close finalises the stream as complete with every frame it sent.
// The per-frame stamps themselves are read back in the job server's
// TestIngestSessionFeedsJob.
func TestIngestSessionStampsAndFinalises(t *testing.T) {
	_, prov, _, addr, reg := startIngest(t)
	c, err := canbridge.DialStream(addr, reg.Token)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(can.MustFrame(0x7E0, []byte{0x01})); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(250 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(can.MustFrame(0x7E8, []byte{0x02})); err != nil {
		t.Fatal(err)
	}
	// Stream time is now exactly 250 ms: the server takes it up to the
	// largest stream time and no further.
	largest := math.MaxInt64 / time.Millisecond * time.Millisecond
	if err := c.Advance(largest - 250*time.Millisecond); err != nil {
		t.Fatalf("ADVANCE to the largest stream time: %v", err)
	}
	var se *canbridge.ServerError
	if err := c.Advance(time.Millisecond); !errors.As(err, &se) {
		t.Fatalf("ADVANCE past the largest stream time: err = %v, want *canbridge.ServerError", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	snap := waitEnded(t, reg.Job)
	if snap.Frames != 2 {
		t.Fatalf("job got %d frames, want 2", snap.Frames)
	}
	if strings.Contains(snap.Error, "stream") {
		t.Fatalf("clean EOF ended the stream with %q", snap.Error)
	}
	if !sessionCounted(t, prov, "complete") {
		t.Fatal("clean EOF not counted as a complete session")
	}
}

func TestIngestRejectsUnknownToken(t *testing.T) {
	_, prov, _, addr, _ := startIngest(t)
	_, err := canbridge.DialStream(addr, "bogus")
	var se *canbridge.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *canbridge.ServerError", err)
	}
	if !sessionCounted(t, prov, "rejected") {
		t.Fatal("refused HELLO not counted")
	}
}

func TestIngestServerCloseTruncatesSessions(t *testing.T) {
	srv, prov, _, addr, reg := startIngest(t)
	c, err := canbridge.DialStream(addr, reg.Token)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(can.MustFrame(0x100, []byte{0xAA})); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if snap := waitEnded(t, reg.Job); snap.State != jobserver.Failed.String() || !strings.Contains(snap.Error, "truncated") {
		t.Fatalf("server shutdown ended the stream %s (%q), want failed as truncated", snap.State, snap.Error)
	}
	if !sessionCounted(t, prov, "truncated") {
		t.Fatal("server shutdown not counted as a truncated session")
	}
	if err := c.Send(can.MustFrame(0x100, []byte{0xBB})); err == nil {
		t.Fatal("send accepted after server shutdown")
	}
}

// TestIngestIdleTimeoutManualClock: on a manual clock, the idle sweep
// fails exactly the sessions that have been silent past the timeout,
// with the distinct idle-timeout reason — no wall time involved.
func TestIngestIdleTimeoutManualClock(t *testing.T) {
	srv, prov, mc, addr, reg := startIngest(t)
	c, err := canbridge.DialStream(addr, reg.Token)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(can.MustFrame(0x7E0, []byte{0x01})); err != nil {
		t.Fatal(err)
	}
	// Still fresh: a sweep before the deadline expires nothing.
	mc.Advance(ingestIdleTimeout / 2)
	if n := expireIdleStreams(srv); n != 0 {
		t.Fatalf("sweep expired %d fresh sessions", n)
	}
	mc.Advance(ingestIdleTimeout)
	if n := expireIdleStreams(srv); n != 1 {
		t.Fatalf("sweep expired %d sessions, want 1", n)
	}
	if snap := waitEnded(t, reg.Job); snap.State != jobserver.Failed.String() || !strings.Contains(snap.Error, "idle-timeout") {
		t.Fatalf("idle stream ended %s (%q), want failed with idle-timeout", snap.State, snap.Error)
	}
	if !sessionCounted(t, prov, "idle-timeout") {
		t.Fatal("idle-timeout session outcome not counted")
	}
	if err := c.Send(can.MustFrame(0x7E0, []byte{0x02})); err == nil {
		t.Fatal("send accepted on an idle-expired stream")
	}
}

// TestIngestFrameBudget: the session dies with a distinct reason on the
// frame past the budget, and the overflowing frame is refused with ERR.
func TestIngestFrameBudget(t *testing.T) {
	defer func(n int) { ingestMaxFrames = n }(ingestMaxFrames)
	ingestMaxFrames = 3
	_, prov, _, addr, reg := startIngest(t)
	c, err := canbridge.DialStream(addr, reg.Token)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := c.Send(can.MustFrame(0x7E0, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	var se *canbridge.ServerError
	if err := c.Send(can.MustFrame(0x7E0, []byte{0xFF})); !errors.As(err, &se) {
		t.Fatalf("over-budget send err = %v, want *canbridge.ServerError", err)
	}
	if !strings.Contains(se.Msg, "frame-budget") {
		t.Fatalf("over-budget refusal %q does not name the frame budget", se.Msg)
	}
	if snap := waitEnded(t, reg.Job); snap.State != jobserver.Failed.String() || !strings.Contains(snap.Error, "frame-budget") {
		t.Fatalf("over-budget stream ended %s (%q), want failed with frame-budget", snap.State, snap.Error)
	}
	if !sessionCounted(t, prov, "frame-budget") {
		t.Fatal("frame-budget session outcome not counted")
	}
}
