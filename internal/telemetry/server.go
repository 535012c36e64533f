package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strings"
	"time"
)

// NameFilter builds a keep predicate from ?family= (exact match,
// repeatable) and ?prefix= query parameters. With neither present it
// returns nil, meaning "keep everything". Exported so the job-server
// status surface applies the same filter semantics.
func NameFilter(q url.Values) func(name string) bool {
	families := q["family"]
	prefixes := q["prefix"]
	if len(families) == 0 && len(prefixes) == 0 {
		return nil
	}
	exact := make(map[string]bool, len(families))
	for _, f := range families {
		exact[f] = true
	}
	return func(name string) bool {
		if exact[name] {
			return true
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
}

// NewMux builds the telemetry HTTP handler tree:
//
//	/metrics        Prometheus text exposition (scrape target)
//	/metrics.json   the same registry as a JSON document
//	/trace          chrome://tracing-compatible span dump
//	/debug/pprof/   the standard Go profiling endpoints
//
// Either argument may be nil; the corresponding endpoints then serve an
// empty document.
func NewMux(reg *Registry, tr *Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "dpreverser telemetry\n\n"+
			"/metrics        Prometheus text format\n"+
			"/metrics.json   metrics as JSON\n"+
			"/trace          chrome://tracing span dump\n"+
			"/debug/pprof/   Go profiling\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg != nil {
			reg.WritePrometheusFiltered(w, NameFilter(r.URL.Query()))
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if reg == nil {
			fmt.Fprintln(w, `{"metrics":[]}`)
			return
		}
		reg.WriteJSONFiltered(w, NameFilter(r.URL.Query()))
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		tr.WriteChromeTraceFiltered(w, NameFilter(r.URL.Query()))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running telemetry listener: the embedded http.Server plus
// a join handle on its serve goroutine, so shutdown can wait for the
// accept loop to actually exit instead of leaking it.
type Server struct {
	*http.Server
	done chan struct{}
}

// Wait blocks until the serve loop has exited; it returns promptly after
// Close or Shutdown.
func (s *Server) Wait() { <-s.done }

// ReadHeaderTimeout bounds how long a connection may take to deliver a
// request line and its headers. Without it a client that opens a
// connection and trickles bytes holds it, and its goroutine, forever.
// Bodies are not covered: capture uploads are large and may be slow.
const ReadHeaderTimeout = 10 * time.Second

// NewHTTPServer returns an http.Server for h with the repository's read
// limits. The job server, its load test and the telemetry listener all
// serve through it.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout}
}

// Serve starts the telemetry listener on addr (e.g. "localhost:9090";
// ":0" picks a free port) and returns the running server plus the bound
// address. The caller owns shutdown: Close (or Shutdown), then Wait to
// join the serve goroutine.
func Serve(addr string, reg *Registry, tr *Tracer) (*Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &Server{
		Server: NewHTTPServer(NewMux(reg, tr)),
		done:   make(chan struct{}),
	}
	go func() {
		defer close(srv.done)
		// Serve always returns a non-nil error once the server closes;
		// http.ErrServerClosed is the clean-shutdown case.
		_ = srv.Server.Serve(ln)
	}()
	return srv, ln.Addr().String(), nil
}
