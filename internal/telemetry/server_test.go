package telemetry

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dpreverser_runs_total", "runs").Inc()
	tr := NewTracer(NewManualClock(0))
	tr.Start("run").End()

	srv := httptest.NewServer(NewMux(reg, tr))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("/metrics content type %q", ctype)
	}
	if !strings.Contains(body, "# TYPE dpreverser_runs_total counter") ||
		!strings.Contains(body, "dpreverser_runs_total 1") {
		t.Fatalf("/metrics body:\n%s", body)
	}

	code, body, _ = get("/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/metrics.json status %d", code)
	}
	var doc struct {
		Metrics []JSONMetric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/metrics.json does not parse: %v", err)
	}
	if len(doc.Metrics) != 1 || doc.Metrics[0].Name != "dpreverser_runs_total" {
		t.Fatalf("/metrics.json = %+v", doc.Metrics)
	}

	code, body, _ = get("/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace status %d", code)
	}
	var trace struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("/trace does not parse: %v", err)
	}
	if len(trace.TraceEvents) != 1 {
		t.Fatalf("/trace events = %d", len(trace.TraceEvents))
	}

	if code, _, _ = get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	if code, _, _ = get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
	if code, _, _ = get("/nope"); code != http.StatusNotFound {
		t.Fatalf("/nope status %d, want 404", code)
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The serve goroutine must be joinable: Wait has to return once the
	// server is closed instead of leaking the accept loop.
	waited := make(chan struct{})
	go func() {
		srv.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("srv.Wait did not return after Close; serve goroutine leaked")
	}
}

// A client that sends part of a request line and stalls is disconnected
// once the header read timeout passes, instead of holding the connection.
func TestHTTPServerDropsPartialRequestLine(t *testing.T) {
	hs := NewHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != ReadHeaderTimeout {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, ReadHeaderTimeout)
	}
	// The same limit, scaled down so the test does not wait 10 s.
	hs.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // http.ErrServerClosed after Close below
	}()
	defer func() { <-done }()
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /metr")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("connection still open 5 s after a partial request line")
	}
}
