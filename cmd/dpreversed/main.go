// Command dpreversed is the multi-tenant reverse-engineering job server:
// the batch pipeline behind cmd/dpreverse, re-hosted as a long-running
// HTTP service. Tenants upload rig captures (or stream live traffic over
// the canbridge line protocol), poll job progress, and fetch results that
// are byte-identical with a local `dpreverse -json` run. Jobs land in a
// sharded in-memory queue partitioned by (tenant, car, stream key) and a
// bounded worker fleet runs them with per-tenant quotas, queue-depth
// backpressure (429 + Retry-After) and graceful drain on SIGTERM.
//
// Usage:
//
//	dpreversed                                # HTTP API on 127.0.0.1:8780
//	dpreversed -addr :8780 -ingest :8781      # plus live canbridge ingest
//	dpreversed -quick                         # GP at 150 programs x 10 generations per job
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

// jobOptions is the base reverser configuration every job runs under.
func jobOptions(quick bool) []reverser.Option {
	cfg := reverser.DefaultConfig()
	if quick {
		cfg.GP.PopulationSize = 150
		cfg.GP.Generations = 10
	}
	return []reverser.Option{reverser.WithConfig(cfg)}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8780", "HTTP listen address")
	ingest := flag.String("ingest", "", "canbridge ingest listen address (empty disables live streams)")
	shards := flag.Int("shards", 4, "job queue shards; (tenant, car, stream) keys pin to one shard")
	workers := flag.Int("workers", 1, "workers per shard (total fleet = shards x workers)")
	queueDepth := flag.Int("queue-depth", 64, "per-shard backlog limit before 429 backpressure")
	tenantMax := flag.Int("tenant-max", 8, "per-tenant live job quota")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on rejected submissions")
	quick := flag.Bool("quick", false, "reduced GP budget per job: 150 programs x 10 generations")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "graceful-drain budget on shutdown before jobs are cancelled")
	logFormat := flag.String("log-format", "text", "structured-log format on stderr (text or json; empty disables)")
	logLevel := flag.String("log-level", "info", "minimum structured-log level (debug, info, warn or error)")
	sloQueue := flag.Duration("slo-queue-wait", 5*time.Second, "queue-wait SLO objective per job")
	sloRun := flag.Duration("slo-run", 2*time.Minute, "run-latency SLO objective per job")
	sloTarget := flag.Float64("slo-target", 0.99, "SLO good-fraction target (burn rate 1.0 = burning exactly the budget)")
	flightEvents := flag.Int("flight-events", telemetry.DefaultRingCapacity, "per-job flight-recorder ring capacity (log records kept per job)")
	ingestIdle := flag.Duration("ingest-idle-timeout", 2*time.Minute, "fail an ingest session whose peer sends nothing for this long (0 disables)")
	ingestFrames := flag.Int("ingest-max-frames", 2_000_000, "per-session ingest frame budget (0 = unlimited)")
	ingestBytes := flag.Int64("ingest-max-bytes", 64<<20, "per-session ingest payload-byte budget (0 = unlimited)")
	ingestScreen := flag.Bool("ingest-screen", true, "reject streamed captures carrying transport-layer attack signatures at admission")
	flag.Parse()

	cfg := jobserver.Config{
		Shards:          *shards,
		WorkersPerShard: *workers,
		QueueDepth:      *queueDepth,
		TenantMaxActive: *tenantMax,
		RetryAfter:      *retryAfter,
		QueueWaitSLO:    *sloQueue,
		RunSLO:          *sloRun,
		SLOTarget:       *sloTarget,
		FlightEvents:    *flightEvents,
		Reverser:        jobOptions(*quick),

		IngestIdleTimeout: *ingestIdle,
		IngestMaxFrames:   *ingestFrames,
		IngestMaxBytes:    *ingestBytes,
		ScreenStreams:     *ingestScreen,
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
