package jobserver

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dpreverser/internal/gp"
	"dpreverser/internal/reverser"
	"dpreverser/internal/telemetry"
)

// crashObserver makes every GP generation panic, degrading every stream.
// The reverser chains (rather than replaces) user observers with its
// telemetry observer, so the injection survives a live provider.
type crashObserver struct{}

func (crashObserver) Generation(gp.GenerationStats) { panic("injected inference crash") }

// strictCrashOpts is a reverser setup whose every run fails under the
// strict fault policy while still producing a partial result.
func strictCrashOpts() []reverser.Option {
	cfg := reverser.DefaultConfig()
	cfg.GP.PopulationSize = 150
	cfg.GP.Generations = 10
	cfg.GP.Seed = 7
	cfg.GP.Observer = crashObserver{}
	return []reverser.Option{
		reverser.WithConfig(cfg),
		reverser.WithFaultPolicy(reverser.Strict),
	}
}

// eventMsgs extracts the msg set from flight events for containment checks.
func eventMsgs(recs []telemetry.Record) map[string]int {
	out := map[string]int{}
	for _, r := range recs {
		out[r.Msg]++
	}
	return out
}

// wireFlight is a flight record as an API client decodes it: the events
// stay plain JSON objects.
type wireFlight struct {
	FlightRecord
	Events []map[string]any `json:"events"`
}

// checkCorrelated fails unless every event carries the job's tenant and ID.
func checkCorrelated(t *testing.T, events []map[string]any, tenant, job string) {
	t.Helper()
	for _, ev := range events {
		if ev["tenant"] != tenant || ev["job"] != job {
			t.Fatalf("record lost correlation context: %v", ev)
		}
	}
}

// TestFailedJobFlightRecord drives a job through a strict-policy failure
// and asserts the flight recorder's full postmortem contract: correlated
// stage timings, degraded-stream reasons, and the ring tail — via the
// Flight API, the flight endpoint, and the failed result payload.
func TestFailedJobFlightRecord(t *testing.T) {
	cap := carMCapture(t)
	prov := telemetry.New(telemetry.NewManualClock(0))
	srv := New(Config{Reverser: strictCrashOpts()}, prov)
	defer srv.Close()

	j, err := srv.Submit("acme", cap, "")
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, j, JobState.Terminal); st != Failed {
		t.Fatalf("strict crash run finished %s, want failed", st)
	}

	fr := j.Flight()
	if fr.Job != j.ID || fr.Tenant != "acme" || fr.State != Failed.String() {
		t.Fatalf("flight identity = %+v", fr)
	}
	if fr.Error == "" {
		t.Fatal("failed flight lost its error")
	}
	if len(fr.Stages) == 0 {
		t.Fatal("failed flight has no stage timings")
	}
	var sawInfer bool
	for _, st := range fr.Stages {
		if st.Stage == "infer" && st.Stream == "" {
			sawInfer = true
		}
	}
	if !sawInfer {
		t.Fatalf("no infer stage timing in %+v", fr.Stages)
	}
	if len(fr.Degraded) == 0 {
		t.Fatal("failed flight carries no degraded-stream reasons")
	}
	for _, se := range fr.Degraded {
		if se.Reason != "panic" || !strings.Contains(se.Detail, "injected inference crash") {
			t.Fatalf("degraded entry lost its reason: %+v", se)
		}
	}
	msgs := eventMsgs(fr.Events)
	for _, want := range []string{"job-admitted", "job-start", "stream-degraded", "job-finished"} {
		if msgs[want] == 0 {
			t.Fatalf("flight events missing %q; have %v", want, msgs)
		}
	}
	// Every ring record carries the job's correlation context.
	for _, rec := range fr.Events {
		var doc map[string]any
		raw, _ := json.Marshal(rec)
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		checkCorrelated(t, []map[string]any{doc}, "acme", j.ID)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The flight endpoint serves the same record.
	resp, err := ts.Client().Get(ts.URL + "/api/v1/jobs/" + j.ID + "/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight endpoint = %d, want 200", resp.StatusCode)
	}
	var got wireFlight
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Job != j.ID || got.State != Failed.String() || len(got.Events) == 0 || len(got.Degraded) == 0 {
		t.Fatalf("flight endpoint returned %+v", got)
	}
	checkCorrelated(t, got.Events, "acme", j.ID)

	// A failed job's 409 result payload embeds the flight record.
	resp, err = ts.Client().Get(ts.URL + "/api/v1/jobs/" + j.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("failed result = %d, want 409", resp.StatusCode)
	}
	var doc struct {
		Error  string      `json:"error"`
		State  string      `json:"state"`
		Flight *wireFlight `json:"flight"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.State != Failed.String() || doc.Flight == nil {
		t.Fatalf("409 payload carries no flight record: %+v", doc)
	}
	if len(doc.Flight.Degraded) == 0 || len(doc.Flight.Stages) == 0 || len(doc.Flight.Events) == 0 {
		t.Fatalf("embedded flight record is hollow: %+v", doc.Flight)
	}
}

// TestStatusPage asserts the operator dashboard renders with every stable
// section marker the CI smoke test greps for.
func TestStatusPage(t *testing.T) {
	cap := carMCapture(t)
	prov := telemetry.New(telemetry.NewManualClock(0))
	srv := New(Config{Shards: 2, Reverser: quickOpts()}, prov)
	defer srv.Close()

	j, err := srv.Submit("acme", cap, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, JobState.Terminal)

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/debug/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("Content-Type = %q, want text/html", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(body)
	for _, marker := range []string{
		`id="jobs-by-state"`, `id="queue-depths"`, `id="tenants"`,
		`id="slo"`, `id="runtime"`, `id="flights"`, `id="jobs"`,
	} {
		if !strings.Contains(page, marker) {
			t.Fatalf("status page missing %s", marker)
		}
	}
	if !strings.Contains(page, j.ID) {
		t.Fatal("status page does not list the finished job")
	}
	if !strings.Contains(page, "acme") {
		t.Fatal("status page does not list the tenant")
	}
}

// TestRejectionCorrelation checks every admission refusal mints a
// correlation ID, books it in the tenant ledger, and surfaces it in the
// HTTP rejection body.
func TestRejectionCorrelation(t *testing.T) {
	cap := carMCapture(t)
	prov := telemetry.New(telemetry.NewManualClock(0))
	srv := New(Config{TenantMaxActive: 1, Reverser: quickOpts()}, prov)
	defer srv.Close()

	// A streaming registration pins the tenant's single slot without
	// engaging the worker fleet.
	if _, err := srv.RegisterStream("acme", "Car M", ""); err != nil {
		t.Fatal(err)
	}
	_, err := srv.Submit("acme", cap, "")
	var rej *RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("over-quota submit = %v, want rejection", err)
	}
	if rej.Reason != "tenant-quota" || rej.Correlation == "" {
		t.Fatalf("rejection = %+v, want tenant-quota with correlation", rej)
	}

	stats := srv.TenantStats()
	if len(stats) != 1 || stats[0].Tenant != "acme" {
		t.Fatalf("tenant stats = %+v", stats)
	}
	if stats[0].Admitted != 1 || stats[0].Rejected["tenant-quota"] != 1 {
		t.Fatalf("tenant ledger = %+v", stats[0])
	}

	// The HTTP body carries reason and correlation.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/api/v1/streams?tenant=acme", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota registration = %d, want 429", resp.StatusCode)
	}
	var body struct {
		Error       string `json:"error"`
		Reason      string `json:"reason"`
		Correlation string `json:"correlation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Reason != "tenant-quota" || body.Correlation == "" {
		t.Fatalf("rejection body = %+v", body)
	}
	if body.Correlation == rej.Correlation {
		t.Fatal("two rejections shared a correlation ID")
	}
}

// TestMetricsEndpointFilters exercises the ?family= and ?prefix= scrape
// filters and the explicit content types through the server mux.
func TestMetricsEndpointFilters(t *testing.T) {
	prov := telemetry.New(telemetry.NewManualClock(0))
	srv := New(Config{Reverser: quickOpts()}, prov)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	// Unfiltered scrape has both job-server and SLO families.
	full, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	for _, fam := range []string{
		telemetry.MetricSLOBurn, telemetry.MetricRuntimeGoroutines, telemetry.MetricJobsByState,
	} {
		if !strings.Contains(full, fam) {
			t.Fatalf("unfiltered scrape missing %s", fam)
		}
	}

	// ?family= narrows to exactly the named families.
	one, _ := get("/metrics?family=" + telemetry.MetricSLOBurn)
	if !strings.Contains(one, telemetry.MetricSLOBurn) {
		t.Fatal("family filter dropped the requested family")
	}
	if strings.Contains(one, telemetry.MetricJobsByState) {
		t.Fatal("family filter leaked an unrequested family")
	}

	// ?prefix= keeps a whole namespace.
	rt, ct := get("/metrics.json?prefix=dpreverser_runtime_")
	if !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/metrics.json Content-Type = %q", ct)
	}
	var doc struct {
		Metrics []telemetry.JSONMetric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(rt), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Metrics) == 0 {
		t.Fatal("prefix filter returned nothing")
	}
	for _, m := range doc.Metrics {
		if !strings.HasPrefix(m.Name, "dpreverser_runtime_") {
			t.Fatalf("prefix filter leaked %s", m.Name)
		}
	}

	_, ct = get("/trace")
	if !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/trace Content-Type = %q", ct)
	}
}
