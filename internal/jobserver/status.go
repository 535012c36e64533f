package jobserver

import (
	"fmt"
	"html/template"
	"net/http"
	"time"

	"dpreverser/internal/telemetry"
)

// The /debug/status page is the zero-dependency operator dashboard:
// one server-side-rendered HTML document summarising jobs by state,
// per-shard queue depth, the tenant ledger, SLO burn, runtime health and
// the most recent flight-recorder tails. The CI smoke test asserts on
// the stable id= markers, so treat them as API.

// statusFlightTail bounds how many recent jobs show a flight tail, and
// statusTailRecords how many ring records each shows.
const (
	statusFlightTail  = 5
	statusTailRecords = 6
	statusJobRows     = 25
)

var statusTmpl = template.Must(template.New("status").Parse(`<!DOCTYPE html>
<html><head><title>dpreversed status</title>
<style>
body { font-family: ui-monospace, monospace; margin: 1.5em; background: #fafafa; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.4em; }
table { border-collapse: collapse; margin: 0.4em 0; }
th, td { border: 1px solid #ccc; padding: 0.25em 0.7em; text-align: left; }
th { background: #eee; }
.num { text-align: right; }
.bad { color: #b00020; font-weight: bold; }
pre { background: #f0f0f0; padding: 0.6em; overflow-x: auto; }
.muted { color: #777; }
</style></head>
<body>
<h1>dpreversed status</h1>
<p class="muted">uptime {{.Uptime}}{{if .Draining}} · <span class="bad">DRAINING</span>{{end}} · {{.Shards}} shard(s)</p>

<h2>Jobs by state</h2>
<table id="jobs-by-state"><tr><th>state</th><th class="num">count</th></tr>
{{range .States}}<tr><td>{{.Name}}</td><td class="num">{{.Count}}</td></tr>
{{end}}</table>

<h2>Queue depth per shard</h2>
<table id="queue-depths"><tr><th>shard</th><th class="num">depth</th></tr>
{{range .Queues}}<tr><td>{{.Shard}}</td><td class="num">{{.Depth}}</td></tr>
{{end}}</table>

<h2>Tenants</h2>
<table id="tenants"><tr><th>tenant</th><th class="num">active</th><th class="num">admitted</th><th>rejected</th></tr>
{{range .Tenants}}<tr><td>{{.Tenant}}</td><td class="num">{{.Active}}</td><td class="num">{{.Admitted}}</td><td>{{range $r, $n := .Rejected}}{{$r}}={{$n}} {{end}}</td></tr>
{{end}}</table>

<h2>SLO burn</h2>
<table id="slo"><tr><th>objective</th><th class="num">bound (ms)</th><th class="num">target</th><th class="num">good</th><th class="num">bad</th>{{range $.Windows}}<th class="num">burn {{.}}</th>{{end}}</tr>
{{range .SLOs}}<tr><td>{{.Name}}</td><td class="num">{{printf "%.0f" .ObjectiveMS}}</td><td class="num">{{printf "%.2f" .Target}}</td><td class="num">{{.Good}}</td><td class="num">{{.Bad}}</td>{{range .BurnCols}}<td class="num{{if .Hot}} bad{{end}}">{{printf "%.3f" .Rate}}</td>{{end}}</tr>
{{end}}</table>

<h2>Runtime</h2>
<table id="runtime">
<tr><th>goroutines</th><td class="num">{{.Runtime.Goroutines}}</td></tr>
<tr><th>heap alloc (bytes)</th><td class="num">{{.Runtime.HeapAlloc}}</td></tr>
<tr><th>heap objects</th><td class="num">{{.Runtime.HeapObjects}}</td></tr>
<tr><th>GC pause total (s)</th><td class="num">{{printf "%.6f" .Runtime.GCPauseSec}}</td></tr>
<tr><th>GC cycles</th><td class="num">{{.Runtime.GCCycles}}</td></tr>
</table>

<h2>Recent flight tails</h2>
<div id="flights">
{{range .Flights}}<h3>{{.Job}} <span class="muted">({{.State}}{{if .Error}}: {{.Error}}{{end}})</span></h3>
<pre>{{range .Lines}}{{.}}
{{end}}{{if .More}}<span class="muted">… {{.More}} earlier record(s)</span>{{end}}</pre>
{{else}}<p class="muted">no jobs yet</p>{{end}}
</div>

<h2>Recent jobs</h2>
<table id="jobs"><tr><th>job</th><th>tenant</th><th>car</th><th>state</th><th class="num">shard</th><th class="num">queue wait (ms)</th><th class="num">run (ms)</th><th class="num">esvs</th><th>error</th></tr>
{{range .Jobs}}<tr><td><a href="/api/v1/jobs/{{.ID}}/flight">{{.ID}}</a></td><td>{{.Tenant}}</td><td>{{.Car}}</td><td{{if eq .State "failed"}} class="bad"{{end}}>{{.State}}</td><td class="num">{{.Shard}}</td><td class="num">{{printf "%.1f" .QueueWaitMS}}</td><td class="num">{{printf "%.1f" .RunMS}}</td><td class="num">{{.ESVs}}</td><td>{{.Error}}</td></tr>
{{end}}</table>
</body></html>
`))

// statusView is the template's data model.
type statusView struct {
	Uptime   string
	Draining bool
	Shards   int
	States   []statusCount
	Queues   []statusQueue
	Tenants  []TenantStatus
	SLOs     []statusSLO
	Windows  []string
	Runtime  telemetry.RuntimeSample
	Flights  []statusFlight
	Jobs     []Snapshot
}

type statusCount struct {
	Name  string
	Count int
}

type statusQueue struct {
	Shard, Depth int
}

// statusSLO is one SLO row: the status plus burn columns aligned with
// the view's Windows header order.
type statusSLO struct {
	telemetry.SLOStatus
	BurnCols []statusBurn
}

type statusBurn struct {
	Rate float64
	Hot  bool // burning faster than the budget sustains
}

type statusFlight struct {
	Job, State, Error string
	Lines             []string
	More              uint64
}

// handleStatus renders the dashboard.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	view := s.statusView()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := statusTmpl.Execute(w, view); err != nil {
		// Header already sent; nothing more useful than noting it.
		fmt.Fprintf(w, "\n<!-- render error: %v -->", err)
	}
}

// statusView assembles the dashboard's data from live server state.
func (s *Server) statusView() statusView {
	rt := s.SampleHealth()
	jobs := s.Jobs("")

	counts := map[string]int{}
	for _, j := range jobs {
		counts[j.State().String()]++
	}
	var states []statusCount
	for _, st := range []JobState{Streaming, Queued, Running, Done, Failed, Cancelled} {
		states = append(states, statusCount{Name: st.String(), Count: counts[st.String()]})
	}

	var queues []statusQueue
	for i, d := range s.QueueDepths() {
		queues = append(queues, statusQueue{Shard: i, Depth: d})
	}

	var windows []string
	for _, w := range telemetry.SLOWindows {
		windows = append(windows, w.String())
	}
	var slos []statusSLO
	for _, st := range s.SLOs() {
		row := statusSLO{SLOStatus: st}
		for _, w := range windows {
			row.BurnCols = append(row.BurnCols, statusBurn{Rate: st.Burn[w], Hot: st.Burn[w] > 1})
		}
		slos = append(slos, row)
	}

	// Flight tails: the most recent jobs, newest first.
	var flights []statusFlight
	for i := len(jobs) - 1; i >= 0 && len(flights) < statusFlightTail; i-- {
		j := jobs[i]
		recs, dropped := j.ring.Snapshot()
		more := dropped
		if len(recs) > statusTailRecords {
			more += uint64(len(recs) - statusTailRecords)
			recs = recs[len(recs)-statusTailRecords:]
		}
		lines := make([]string, 0, len(recs))
		for _, rec := range recs {
			lines = append(lines, rec.Text())
		}
		snap := j.Snapshot()
		flights = append(flights, statusFlight{
			Job: snap.ID, State: snap.State, Error: snap.Error, Lines: lines, More: more,
		})
	}

	// Recent jobs table, newest first.
	var rows []Snapshot
	for i := len(jobs) - 1; i >= 0 && len(rows) < statusJobRows; i-- {
		rows = append(rows, jobs[i].Snapshot())
	}

	uptime := s.clock.Now() - s.started
	return statusView{
		Uptime:   uptime.Round(time.Millisecond).String(),
		Draining: s.Draining(),
		Shards:   len(s.shards),
		States:   states,
		Queues:   queues,
		Tenants:  s.TenantStats(),
		SLOs:     slos,
		Windows:  windows,
		Runtime:  rt,
		Flights:  flights,
		Jobs:     rows,
	}
}
