package jobserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dpreverser/internal/canbridge"
	"dpreverser/internal/diagtool"
	"dpreverser/internal/reverser"
	"dpreverser/internal/rig"
	"dpreverser/internal/sim"
	"dpreverser/internal/telemetry"
	"dpreverser/internal/vehicle"
)

// carMCapture collects one Car M rig session, cached across the package's
// tests (collection costs seconds; the capture is immutable data).
var (
	capOnce sync.Once
	capM    rig.Capture
	capErr  error
)

func carMCapture(t *testing.T) rig.Capture {
	t.Helper()
	capOnce.Do(func() {
		p, ok := vehicle.ProfileByCar("Car M")
		if !ok {
			capErr = fmt.Errorf("unknown car %q", "Car M")
			return
		}
		clock := sim.NewClock(0)
		tool, veh, err := diagtool.ForProfile(p, clock)
		if err != nil {
			capErr = err
			return
		}
		defer tool.Close()
		defer veh.Close()
		cfg := rig.DefaultConfig()
		cfg.ReadDuration = 20 * time.Second
		cfg.AlignDuration = 6 * time.Second
		cfg.TestDuration = time.Second
		r := rig.New(tool, veh, cfg)
		defer r.Close()
		capM, capErr = r.RunFull()
	})
	if capErr != nil {
		t.Fatalf("collecting Car M capture: %v", capErr)
	}
	return capM
}

// quickOpts is a GP budget small enough for unit tests.
func quickOpts() []reverser.Option {
	cfg := reverser.DefaultConfig()
	cfg.GP.PopulationSize = 150
	cfg.GP.Generations = 10
	cfg.GP.Seed = 7
	return []reverser.Option{reverser.WithConfig(cfg)}
}

// waitState blocks on the job's update channel until want accepts the
// state, failing the test after a generous deadline.
func waitState(t *testing.T, j *Job, want func(JobState) bool) JobState {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for {
		j.mu.Lock()
		st := j.state
		ch := j.updated
		j.mu.Unlock()
		if want(st) {
			return st
		}
		select {
		case <-ch:
		case <-ctx.Done():
			t.Fatalf("timed out waiting for job %s (state %s)", j.ID, st)
		}
	}
}

func TestJobLifecycle(t *testing.T) {
	cap := carMCapture(t)
	prov := telemetry.New(telemetry.NewManualClock(0))
	srv := New(Config{Shards: 2, QueueDepth: 8, TenantMaxActive: 4, Reverser: quickOpts()}, prov)
	defer srv.Close()

	j, err := srv.Submit("acme", cap, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, JobState.Terminal)
	if st := j.State(); st != Done {
		t.Fatalf("job finished %s, want done", st)
	}
	res := j.Result()
	if res == nil || len(res.ESVs) == 0 {
		t.Fatalf("done job has no result ESVs: %+v", res)
	}

	snap := j.Snapshot()
	if snap.State != "done" || snap.Frames != len(cap.Frames) || snap.ESVs != len(res.ESVs) {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}

	// Progress events arrive in seq order, opening with a stage start.
	events, _ := j.EventsSince(0)
	if len(events) == 0 {
		t.Fatal("no progress events recorded")
	}
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if events[0].Kind != "stage-start" {
		t.Fatalf("first event kind = %s", events[0].Kind)
	}

	// The formula store serves the completed job's recoveries.
	formulas := srv.Formulas("acme", "")
	if len(formulas) == 0 {
		t.Fatal("no formulas listed for the done job")
	}
	if srv.Formulas("other-tenant", "") != nil {
		t.Fatal("formula store leaked across tenants")
	}

	// Metric families reflect the finished job.
	var buf bytes.Buffer
	if err := prov.Metrics.WritePrometheusFiltered(&buf, nil); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()
	for _, want := range []string{
		telemetry.MetricJobsFinished + `{state="done"} 1`,
		telemetry.MetricJobsByState + `{state="done"} 1`,
		telemetry.MetricTenantAdmissions + `{tenant="acme"} 1`,
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestTenantQuota(t *testing.T) {
	srv := New(Config{TenantMaxActive: 1, Reverser: quickOpts()}, nil)
	defer srv.Close()

	// A streaming registration occupies the tenant's only slot without
	// needing a worker — deterministic quota pressure.
	reg, err := srv.RegisterStream("acme", "Car M", "")
	if err != nil {
		t.Fatal(err)
	}
	_, err = srv.RegisterStream("acme", "Car M", "")
	rej, ok := err.(*RejectionError)
	if !ok || rej.Reason != "tenant-quota" {
		t.Fatalf("second registration error = %v, want tenant-quota rejection", err)
	}
	if rej.RetryAfter <= 0 {
		t.Fatalf("rejection carries no Retry-After hint: %+v", rej)
	}

	// Other tenants are unaffected.
	if _, err := srv.RegisterStream("rival", "Car M", ""); err != nil {
		t.Fatalf("independent tenant rejected: %v", err)
	}

	// Cancelling the streaming job frees the slot.
	if err := srv.Cancel(reg.Job.ID); err != nil {
		t.Fatal(err)
	}
	if st := reg.Job.State(); st != Cancelled {
		t.Fatalf("cancelled streaming job is %s", st)
	}
	if _, err := srv.RegisterStream("acme", "Car M", ""); err != nil {
		t.Fatalf("slot not released after cancel: %v", err)
	}
}

// TestQuotaSlotFreeOnceTerminal pins the order in finalize: a tenant at
// its quota that resubmits the moment it sees its job end is admitted.
func TestQuotaSlotFreeOnceTerminal(t *testing.T) {
	srv := New(Config{TenantMaxActive: 1, Reverser: quickOpts()}, nil)
	defer srv.Close()
	// An empty capture fails fast in the pipeline: the rounds exercise
	// admission and finalize, not GP.
	for round := 0; round < 50; round++ {
		j, err := srv.Submit("acme", rig.Capture{Car: "Car M"}, "")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		waitState(t, j, JobState.Terminal)
	}
}

// A done job drops its capture and its result's per-stream datasets. Its
// snapshot keeps the frame count, and its /result document is still
// byte-identical with a direct Reverser run's.
func TestDoneJobDropsCapture(t *testing.T) {
	cap := carMCapture(t)
	srv := New(Config{Reverser: quickOpts()}, nil)
	defer srv.Close()
	j, err := srv.Submit("acme", cap, "")
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, j, JobState.Terminal); st != Done {
		t.Fatalf("job finished %s", st)
	}
	j.mu.Lock()
	kept := j.capture
	j.mu.Unlock()
	if kept.Frames != nil || kept.UIFrames != nil || kept.Clicks != nil {
		t.Fatalf("done job still holds %d frames, %d UI frames, %d clicks",
			len(kept.Frames), len(kept.UIFrames), len(kept.Clicks))
	}
	if snap := j.Snapshot(); snap.Frames != len(cap.Frames) {
		t.Fatalf("snapshot frames = %d, want %d", snap.Frames, len(cap.Frames))
	}
	if s := j.Result().Streams; s != nil {
		t.Fatalf("done job still holds %d stream datasets", len(s))
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/jobs/"+j.ID+"/result", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("result fetch: %d %s", rec.Code, rec.Body)
	}
	direct, err := reverser.New(quickOpts()...).Reverse(context.Background(), cap)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Streams) == 0 {
		t.Fatal("direct run has no stream datasets; the test exercises nothing")
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("served result differs from direct run (%d vs %d bytes)", rec.Body.Len(), want.Len())
	}
}

// TestSubmitIgnoresDeclaredLength pins that an upload's buffer grows with
// the bytes that arrive: a request declaring the largest allowed body but
// carrying a few bytes must not make the server reserve that much memory.
func TestSubmitIgnoresDeclaredLength(t *testing.T) {
	srv := New(Config{Reverser: quickOpts()}, nil)
	defer srv.Close()
	h := srv.Handler()
	req := httptest.NewRequest("POST", "/api/v1/jobs?tenant=acme", strings.NewReader(`{"version":1,"capture":`))
	req.ContentLength = maxCaptureBytes
	rec := httptest.NewRecorder()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("truncated upload = %d, want 400: %s", rec.Code, rec.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Fatalf("a truncated body declared as %d bytes allocated %d bytes", maxCaptureBytes, alloc)
	}
}

func TestQueueBackpressure(t *testing.T) {
	// The shard's only worker is held on a job that runs until it is
	// cancelled (a GP that never stops early), so nothing drains the
	// queue while the test fills it.
	cfg := reverser.DefaultConfig()
	cfg.GP.PopulationSize = 150
	cfg.GP.Generations = 1 << 30
	cfg.GP.StopFitness = -1
	srv := New(Config{Shards: 1, QueueDepth: 2, TenantMaxActive: 8,
		Reverser: []reverser.Option{reverser.WithConfig(cfg)}}, nil)
	defer srv.Close()
	gate, err := srv.Submit("acme", carMCapture(t), "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, gate, func(s JobState) bool { return s == Running })
	defer srv.Cancel(gate.ID) // runs before Close, which waits for the worker

	// Fill the shard directly. The stuffed jobs are already terminal, so
	// the worker skips them once the gate job is cancelled.
	sh := srv.shards[0]
	sh.mu.Lock()
	for i := 0; i < 2; i++ {
		sh.queue = append(sh.queue, newJob("stuffed", "t", "", "", Cancelled, 0))
	}
	sh.mu.Unlock()

	_, err = srv.Submit("acme", rig.Capture{Car: "Car M"}, "")
	rej, ok := err.(*RejectionError)
	if !ok || rej.Reason != "queue-full" {
		t.Fatalf("submit into a full shard = %v, want queue-full rejection", err)
	}
}

func TestCancelRunningJob(t *testing.T) {
	cap := carMCapture(t)
	// A GP budget far beyond test patience: the job must be cancelled to
	// finish, proving the per-job context reaches the engine.
	cfg := reverser.DefaultConfig()
	cfg.GP.PopulationSize = 1000
	cfg.GP.Generations = 100000
	cfg.GP.StopFitness = -1 // never stop early: the run must outlive test patience
	srv := New(Config{Reverser: []reverser.Option{reverser.WithConfig(cfg)}}, nil)
	defer srv.Close()

	j, err := srv.Submit("acme", cap, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, func(s JobState) bool { return s == Running })
	if err := srv.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, j, JobState.Terminal); st != Cancelled {
		t.Fatalf("cancelled running job finished %s", st)
	}
	if j.Result() != nil {
		t.Fatal("cancelled job still exposes a result")
	}
	// Cancelling a terminal job is a no-op.
	if err := srv.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	srv := New(Config{Reverser: quickOpts()}, nil)
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !srv.Draining() {
		t.Fatal("server not draining after Drain")
	}
	_, err := srv.Submit("acme", rig.Capture{}, "")
	rej, ok := err.(*RejectionError)
	if !ok || rej.Reason != "draining" {
		t.Fatalf("submit after drain = %v, want draining rejection", err)
	}
	if _, err := srv.RegisterStream("acme", "", ""); err == nil {
		t.Fatal("stream registration accepted after drain")
	}
	// Close after Drain is a safe no-op.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestIngestSessionFeedsJob(t *testing.T) {
	cap := carMCapture(t)
	prov := telemetry.New(telemetry.NewManualClock(0))
	srv := New(Config{Reverser: quickOpts()}, prov)
	defer srv.Close()

	addr, err := srv.ServeIngest("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := srv.RegisterStream("acme", cap.Car, "live")
	if err != nil {
		t.Fatal(err)
	}
	if reg.Job.State() != Streaming {
		t.Fatalf("registered job is %s, want streaming", reg.Job.State())
	}

	// Stream a slice of the real capture, reproducing its timeline with
	// ADVANCE deltas so the server-side stamps match the original.
	conn, err := canbridge.DialStream(addr, reg.Token)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	var sent time.Duration
	for _, f := range cap.Frames[:n] {
		if d := f.Timestamp - sent; d > 0 {
			if err := conn.Advance(d); err != nil {
				t.Fatal(err)
			}
			sent += d
		}
		if err := conn.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	// Hold the job's shard so the queued job cannot start (and drop its
	// capture) before the ingested frames are checked.
	sh := srv.shards[reg.Job.Snapshot().Shard]
	sh.mu.Lock()
	held := true
	release := func() {
		if held {
			held = false
			sh.mu.Unlock()
		}
	}
	defer release()
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	waitState(t, reg.Job, func(s JobState) bool { return s != Streaming })
	reg.Job.mu.Lock()
	got := reg.Job.capture
	reg.Job.mu.Unlock()
	release()
	if len(got.Frames) != n || got.Car != cap.Car {
		t.Fatalf("ingested capture: %d frames, car %q", len(got.Frames), got.Car)
	}
	for i, f := range got.Frames {
		want := cap.Frames[i]
		if f.ID != want.ID || f.Timestamp != want.Timestamp || f.Data != want.Data {
			t.Fatalf("frame %d: got %+v, want %+v", i, f, want)
		}
	}

	waitState(t, reg.Job, JobState.Terminal)
	if st := reg.Job.State(); st != Done {
		t.Fatalf("streamed job finished %s: %s", st, reg.Job.Snapshot().Error)
	}
	// The finished job no longer holds the capture; its snapshot keeps the
	// ingested frame count.
	if snap := reg.Job.Snapshot(); snap.Frames != n {
		t.Fatalf("done streamed job reports %d frames, want %d", snap.Frames, n)
	}
	reg.Job.mu.Lock()
	kept := len(reg.Job.capture.Frames)
	reg.Job.mu.Unlock()
	if kept != 0 {
		t.Fatalf("done streamed job still holds %d frames", kept)
	}

	// A second HELLO with the same token must be refused: tokens bind once.
	if _, err := canbridge.DialStream(addr, reg.Token); err == nil {
		t.Fatal("stream token bound twice")
	}

	var buf bytes.Buffer
	if err := prov.Metrics.WritePrometheusFiltered(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), telemetry.MetricStreamSessions+`{outcome="complete"} 1`) {
		t.Error("complete stream session not counted")
	}
}

func TestCloseTruncatesLiveStream(t *testing.T) {
	srv := New(Config{Reverser: quickOpts()}, nil)
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

	// Close tears the session down server-side; the half-streamed job must
	// fail rather than run on a truncated capture.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st := reg.Job.State(); st != Failed {
		t.Fatalf("truncated stream's job is %s, want failed", st)
	}
	if msg := reg.Job.Snapshot().Error; !strings.Contains(msg, "truncated") {
		t.Fatalf("job error = %q, want a truncation notice", msg)
	}
}

func TestUnknownStreamToken(t *testing.T) {
	srv := New(Config{Reverser: quickOpts()}, nil)
	defer srv.Close()
	addr, err := srv.ServeIngest("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := canbridge.DialStream(addr, "no-such-token"); err == nil {
		t.Fatal("unknown token accepted")
	}
}

// Every wall-clock ServeIngest starts the idle sweeper; Close must stop
// it along with the listener.
func TestCloseStopsIdleSweeper(t *testing.T) {
	sweepers := func() int {
		buf := make([]byte, 1<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "canbridge.(*IngestServer).sweepLoop")
	}
	// A goroutine shows in the dump only once it has run, and for a moment
	// after it has signalled its exit.
	await := func(step string, want int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); sweepers() != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d idle sweepers after %s, want %d", sweepers(), step, want)
			}
		}
	}
	before := sweepers()
	srv := New(Config{Reverser: quickOpts()}, nil)
	defer srv.Close()
	if _, err := srv.ServeIngest("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	await("ServeIngest", before+1)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	await("Close", before)
}

// Two tenants taking consecutive fleet cars from a shared cursor, as
// closed-loop clients do, must spread over the shards: no shard may hold
// most of the keys, and the two jobs in flight at once (one tenant on car
// i, the other on car i+1) must not keep landing on one shard. Unmixed
// FNV-1a put every such pair on one shard of two.
func TestShardPlacementSpreadsFleet(t *testing.T) {
	fleet := vehicle.Fleet()
	tenants := []string{"tenant-0", "tenant-1"}
	for _, shards := range []int{2, 4} {
		srv := New(Config{Shards: shards}, nil)
		counts := make([]int, shards)
		collide, pairs := 0, 0
		for ti, tenant := range tenants {
			other := tenants[1-ti]
			for i, p := range fleet {
				shard := srv.shardFor(tenant, p.Car, "")
				counts[shard]++
				if srv.shardFor(other, fleet[(i+1)%len(fleet)].Car, "") == shard {
					collide++
				}
				pairs++
			}
		}
		srv.Close()
		for i, n := range counts {
			if float64(n) > 0.65*float64(pairs) {
				t.Errorf("%d shards: shard %d holds %d of %d keys (%v)", shards, i, n, pairs, counts)
			}
		}
		if float64(collide) > 0.65*float64(pairs) {
			t.Errorf("%d shards: %d of %d concurrent pairs share a shard", shards, collide, pairs)
		}
		t.Logf("%d shards: keys per shard %v, %d of %d concurrent pairs share a shard", shards, counts, collide, pairs)
	}
}

func TestShardAssignmentIsStable(t *testing.T) {
	srv := New(Config{Shards: 4}, nil)
	defer srv.Close()
	a := srv.shardFor("acme", "Car M", "s1")
	if b := srv.shardFor("acme", "Car M", "s1"); b != a {
		t.Fatalf("same key hashed to shards %d and %d", a, b)
	}
	// The tenant is part of the key: no cross-tenant ordering coupling by
	// construction (different keys may still collide on a shard).
	if srv.shardFor("acme", "Car M", "s1") != a {
		t.Fatal("shard assignment unstable")
	}
}
