// Command dpreversed is the multi-tenant reverse-engineering job server:
// the batch pipeline behind cmd/dpreverse, re-hosted as a long-running
// HTTP service. Tenants upload rig captures (or stream live traffic over
// the canbridge line protocol), poll job progress, and fetch results that
// are byte-identical with what `dpreverse -load-capture F -json` prints for
// the same capture, at the same -quick setting and the default -seed. Jobs
// land in a sharded in-memory queue partitioned by (tenant, car, stream
// key) and a bounded worker fleet runs them with per-tenant quotas,
// queue-depth backpressure (429 + Retry-After) and graceful drain on
// SIGTERM. The retry hint, the latency SLOs, the flight-recorder size and
// the ingest guardrails are fixed (see internal/jobserver).
//
// Usage:
//
//	dpreversed                                # HTTP API on 127.0.0.1:8780
//	dpreversed -addr :8780 -ingest :8781      # plus live canbridge ingest
//	dpreversed -quick                         # the GP budget of dpreverse -quick per job
//
// API sketch (see internal/jobserver for the full surface):
//
//	POST   /api/v1/jobs?tenant=T       upload a capture, returns the job
//	GET    /api/v1/jobs/{id}/events    progress; ?after=N&wait=5s long-polls
//	GET    /api/v1/jobs/{id}/result    schema-v1 result document
//	POST   /api/v1/streams?tenant=T    register a live stream, returns token
//	GET    /api/v1/jobs/{id}/flight    per-job flight record (postmortem)
//	GET    /api/v1/formulas?tenant=T   recovered formulas across jobs
//	GET    /debug/status               live HTML operator dashboard
//	GET    /metrics                    Prometheus exposition (?family=/?prefix=)
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dpreverser/internal/experiments"
	"dpreverser/internal/jobserver"
	"dpreverser/internal/reverser"
	"dpreverser/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dpreversed:", err)
		os.Exit(1)
	}
}

func run() error {
	def := jobserver.DefaultConfig()
	addr := flag.String("addr", "127.0.0.1:8780", "HTTP listen address")
	ingest := flag.String("ingest", "", "canbridge ingest listen address (empty disables live streams)")
	shards := flag.Int("shards", def.Shards, "job queue shards; (tenant, car, stream) keys pin to one shard")
	workers := flag.Int("workers", def.WorkersPerShard, "workers per shard (total fleet = shards x workers)")
	queueDepth := flag.Int("queue-depth", def.QueueDepth, "per-shard backlog limit before 429 backpressure")
	tenantMax := flag.Int("tenant-max", def.TenantMaxActive, "per-tenant live job quota")
	quick := flag.Bool("quick", false, "reduced GP budget per job, the same as dpreverse -quick")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "graceful-drain budget on shutdown before jobs are cancelled")
	logFormat := flag.String("log-format", "text", "structured-log format on stderr (text or json; empty disables)")
	logLevel := flag.String("log-level", "info", "minimum structured-log level (debug, info, warn or error)")
	flag.Parse()

	cfg := jobserver.Config{
		Shards:          *shards,
		WorkersPerShard: *workers,
		QueueDepth:      *queueDepth,
		TenantMaxActive: *tenantMax,
		Reverser:        []reverser.Option{reverser.WithConfig(experiments.ReverserConfig(*quick))},
	}
	return serve(cfg, *addr, *ingest, *drainTimeout, *logFormat, *logLevel)
}

// serve runs the daemon until SIGINT/SIGTERM, then drains gracefully:
// admission stops, queued and running jobs finish (until -drain-timeout,
// after which they are cancelled), and the HTTP listener shuts down.
func serve(cfg jobserver.Config, addr, ingest string, drainTimeout time.Duration, logFormat, logLevel string) error {
	prov := telemetry.New(nil)
	lc := &telemetry.CLIConfig{LogFormat: logFormat, LogLevel: logLevel}
	log, err := lc.BuildLogger(prov.Clock)
	if err != nil {
		return err
	}
	prov = prov.WithLogger(log)
	srv := jobserver.New(cfg, prov)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dpreversed: HTTP API on http://%s (shards=%d workers/shard=%d quota=%d)\n",
		ln.Addr(), srv.Config().Shards, srv.Config().WorkersPerShard, srv.Config().TenantMaxActive)
	fmt.Fprintf(os.Stderr, "dpreversed: operator dashboard at http://%s/debug/status (metrics at /metrics, /metrics.json)\n", ln.Addr())
	if ingest != "" {
		bound, err := srv.ServeIngest(ingest)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "dpreversed: canbridge ingest on %s\n", bound)
	}

	hs := telemetry.NewHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		srv.Close() //nolint:errcheck // already failing
		return err
	case <-ctx.Done():
		stop() // a second signal kills the process the default way
	}

	fmt.Fprintln(os.Stderr, "dpreversed: draining (new submissions refused)")
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := srv.Drain(dctx)

	sctx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := hs.Shutdown(sctx); err != nil {
		hs.Close() //nolint:errcheck // force-close after a stuck shutdown
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w (remaining jobs were cancelled)", drainErr)
	}
	fmt.Fprintln(os.Stderr, "dpreversed: drained cleanly")
	return nil
}
