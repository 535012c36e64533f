package jobserver

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpreverser/internal/reverser"
	"dpreverser/internal/telemetry"
)

// carMBody is the Car M capture as an upload carries it.
func carMBody(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := carMCapture(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fullTenant returns a server whose tenant "acme" holds its only slot with
// a stream registration, so every acme submit is over quota.
func fullTenant(t *testing.T, prov *telemetry.Provider) *Server {
	t.Helper()
	srv := New(Config{TenantMaxActive: 1, Reverser: quickOpts()}, prov)
	t.Cleanup(func() { srv.Close() })
	if _, err := srv.RegisterStream("acme", "Car M", ""); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestRefusedSubmitSkipsDecode pins that an over-quota upload is refused
// before its body is read: the refusal allocates a few kilobytes, not the
// body buffer and decoded capture (about 1.6 MB for Car M).
func TestRefusedSubmitSkipsDecode(t *testing.T) {
	body := carMBody(t)
	h := fullTenant(t, nil).Handler()
	post := func() (*httptest.ResponseRecorder, *bytes.Reader) {
		r := bytes.NewReader(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/jobs?tenant=acme", r))
		return rec, r
	}
	post() // the first refusal creates the tenant's metric series

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec, r := post()
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d, want 429: %s", rec.Code, rec.Body)
	}
	if r.Len() != 0 {
		t.Fatalf("refused body left %d of %d bytes unread", r.Len(), len(body))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
		t.Fatalf("refusing a %d-byte upload allocated %d bytes", len(body), alloc)
	}
}

// TestRefusalPrecedesMalformedBody pins the status precedence: a refused
// tenant gets its 429 even when the body would not have decoded.
func TestRefusalPrecedesMalformedBody(t *testing.T) {
	h := fullTenant(t, nil).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/jobs?tenant=acme", strings.NewReader("not json")))
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("over-quota malformed submit = %d (Retry-After %q), want 429", rec.Code, rec.Header().Get("Retry-After"))
	}
}

// TestRefusalKeepsConnection checks that a refused upload larger than the
// net/http server's own post-handler drain (256 KB) leaves its keep-alive
// connection usable: the refusal and the next, accepted submit share one
// dial.
func TestRefusalKeepsConnection(t *testing.T) {
	// Leading whitespace, which the decoder skips, takes Car M's body
	// (about 210 KB) well past the drain.
	body := carMBody(t)
	body = append(bytes.Repeat([]byte(" "), max(0, 320<<10-len(body))), body...)
	if len(body) <= 256<<10 {
		t.Fatalf("Car M body is %d bytes; the test needs more than 256 KB", len(body))
	}
	srv := New(Config{TenantMaxActive: 1, Reverser: quickOpts()}, nil)
	defer srv.Close()
	reg, err := srv.RegisterStream("acme", "Car M", "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var dials atomic.Int32
	var d net.Dialer
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}}
	defer client.CloseIdleConnections()
	submit := func(want int) {
		t.Helper()
		resp, err := client.Post(ts.URL+"/api/v1/jobs?tenant=acme", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("submit = %d, want %d", resp.StatusCode, want)
		}
	}
	submit(http.StatusTooManyRequests)
	if err := srv.Cancel(reg.Job.ID); err != nil {
		t.Fatal(err)
	}
	submit(http.StatusAccepted)
	if n := dials.Load(); n != 1 {
		t.Fatalf("a refusal and a submit took %d dials, want 1", n)
	}
}

// countingReader counts the Read calls a client makes on a request body.
type countingReader struct {
	r     io.Reader
	reads atomic.Int32
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.r.Read(p)
}

// TestExpectContinueRefusedWithoutBody checks that a client that asks
// before sending its body is refused without being asked for it.
func TestExpectContinueRefusedWithoutBody(t *testing.T) {
	ts := httptest.NewServer(fullTenant(t, nil).Handler())
	defer ts.Close()
	body := &countingReader{r: strings.NewReader(`{"version":1,"capture":{}}`)}
	req, err := http.NewRequest("POST", ts.URL+"/api/v1/jobs?tenant=acme", body)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(`{"version":1,"capture":{}}`))
	req.Header.Set("Expect", "100-continue")
	// The client would send the body unasked after this long.
	client := &http.Client{Transport: &http.Transport{ExpectContinueTimeout: time.Minute}}
	defer client.CloseIdleConnections()
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("100-continue submit = %d, want 429", resp.StatusCode)
	}
	if n := body.reads.Load(); n != 0 {
		t.Fatalf("the client read its body %d times; the server asked for it", n)
	}
}

// TestEachRefusalCountedOnce refuses one acme submit for each reason, by
// the early check (tenant-quota, draining) and by the full admission after
// the decode (queue-full), and expects each in the metric and the tenant
// ledger exactly once.
func TestEachRefusalCountedOnce(t *testing.T) {
	body := carMBody(t)
	// The only shard's worker is held on a job that runs until it is
	// cancelled, so the stuffed queue stays full.
	cfg := reverser.DefaultConfig()
	cfg.GP.PopulationSize = 150
	cfg.GP.Generations = 1 << 30
	cfg.GP.StopFitness = -1
	prov := telemetry.New(telemetry.NewManualClock(0))
	srv := New(Config{Shards: 1, QueueDepth: 1, TenantMaxActive: 1,
		Reverser: []reverser.Option{reverser.WithConfig(cfg)}}, prov)
	defer srv.Close()
	gate, err := srv.Submit("gate", carMCapture(t), "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, gate, func(s JobState) bool { return s == Running })
	defer srv.Cancel(gate.ID) // runs before Close, which waits for the worker
	sh := srv.shards[0]
	sh.mu.Lock()
	sh.queue = append(sh.queue, newJob("stuffed", "t", "", "", Cancelled, 0))
	sh.mu.Unlock()

	h := srv.Handler()
	submit := func(want int) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/jobs?tenant=acme", bytes.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("submit = %d, want %d: %s", rec.Code, want, rec.Body)
		}
	}
	submit(http.StatusTooManyRequests) // queue-full, after the decode
	if _, err := srv.RegisterStream("acme", "Car M", ""); err != nil {
		t.Fatal(err)
	}
	submit(http.StatusTooManyRequests) // tenant-quota, before the read
	srv.beginDrain()
	submit(http.StatusServiceUnavailable) // draining, before the read

	var buf bytes.Buffer
	if err := prov.Metrics.WritePrometheusFiltered(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var acme TenantStatus
	for _, st := range srv.TenantStats() {
		if st.Tenant == "acme" {
			acme = st
		}
	}
	for _, reason := range []string{"queue-full", "tenant-quota", "draining"} {
		series := fmt.Sprintf(`%s{tenant="acme",reason=%q} 1`, telemetry.MetricTenantRejections, reason)
		if !strings.Contains(buf.String(), series) {
			t.Errorf("metrics lack %s", series)
		}
		if n := acme.Rejected[reason]; n != 1 {
			t.Errorf("tenant ledger counts %s %d times, want 1", reason, n)
		}
	}
	if len(acme.Rejected) != 3 {
		t.Errorf("tenant ledger = %+v", acme)
	}
}

// TestStalledUploadTimesOut sends half a capture under a declared length
// of the largest allowed body, then stalls. The read deadline ends the
// upload with an error response, and the server buffered only what
// arrived.
func TestStalledUploadTimesOut(t *testing.T) {
	defer func(d time.Duration) { uploadTimeout = d }(uploadTimeout)
	uploadTimeout = 200 * time.Millisecond
	half := carMBody(t)
	half = half[:len(half)/2]
	srv := New(Config{Reverser: quickOpts()}, nil)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fmt.Fprintf(conn, "POST /api/v1/jobs?tenant=acme HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\n\r\n", maxCaptureBytes)
	if _, err := conn.Write(half); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("no response to a stalled upload: %v", err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stalled upload = %d, want 400: %s", resp.StatusCode, msg)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Fatalf("a stalled %d-byte upload declared as %d bytes allocated %d bytes", len(half), maxCaptureBytes, alloc)
	}
	if len(srv.Jobs("")) != 0 {
		t.Fatal("a stalled upload created a job")
	}
}
