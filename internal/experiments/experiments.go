// Package experiments regenerates every measured artifact of the paper's
// evaluation — Tables 4 through 13 plus the §3.1 planner claim — on the
// simulated fleet. Each table has a typed runner returning structured rows
// and a markdown renderer; cmd/experiments assembles them into
// EXPERIMENTS.md and bench_test.go wraps them as benchmarks.
package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpreverser/internal/diagtool"
	"dpreverser/internal/faults"
	"dpreverser/internal/gp"
	"dpreverser/internal/kwp"
	"dpreverser/internal/obd"
	"dpreverser/internal/oracle"
	"dpreverser/internal/reverser"
	"dpreverser/internal/rig"
	"dpreverser/internal/sim"
	"dpreverser/internal/telemetry"
	"dpreverser/internal/vehicle"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks recording durations and the GP budget so the whole
	// suite runs in seconds (tests/CI); the default reproduces the paper's
	// settings (30-second reads, 1000×30 GP).
	Quick bool
	// Seed perturbs the OCR error streams and GP seeds.
	Seed int64
	// Parallelism caps concurrent car pipelines in RunFleet and the
	// per-stream inference workers inside each pipeline. Values < 1 mean
	// runtime.GOMAXPROCS(0). Results are identical at every setting: each
	// car runs on its own virtual clock and every stream derives its own
	// GP seed.
	Parallelism int
	// Progress, when non-nil, receives fleet-level status lines (car
	// started/finished with wall times). It may be called from several
	// goroutines; RunFleet serialises the calls.
	Progress func(format string, args ...any)
	// Telemetry, when non-nil, instruments every pipeline run: per-car
	// spans from RunFleet, plus the reverser's stage/stream spans and
	// pipeline metrics. Counters aggregate across the whole fleet.
	Telemetry *telemetry.Provider
	// Faults, when non-empty, perturbs every capture before analysis:
	// a preset name or key=value spec (see faults.ParseSpec). The
	// pipeline then runs best-effort and reports damage on
	// Result.Degraded — the soak experiment's input.
	Faults string
	// FaultSeed seeds the per-car fault injectors. Each car derives its
	// own injector so fleet results stay order-independent.
	FaultSeed int64
}

// workers resolves the effective parallelism.
func (o Options) workers() int {
	if o.Parallelism < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

// rigConfig builds the collection parameters for an options set.
func (o Options) rigConfig() rig.Config {
	cfg := rig.DefaultConfig()
	cfg.Seed = o.Seed + 1
	if o.Quick {
		cfg.ReadDuration = 10 * time.Second
		cfg.AlignDuration = 5 * time.Second
		cfg.TestDuration = time.Second
	}
	return cfg
}

// reverserConfig builds the pipeline parameters for an options set.
func (o Options) reverserConfig() reverser.Config {
	cfg := reverser.DefaultConfig()
	cfg.GP.Seed = o.Seed + 2
	if o.Quick {
		cfg.GP.PopulationSize = 300
		cfg.GP.Generations = 20
	}
	return cfg
}

// CarRun is one car's full collection + reverse-engineering pass, plus the
// ground-truth oracle the scorers use.
type CarRun struct {
	Profile vehicle.Profile
	Capture rig.Capture
	Streams []reverser.StreamData
	Result  *reverser.Result
	// Faults summarises the damage injected into this car's capture
	// (zero-valued when Options.Faults was empty).
	Faults faults.Stats
	// AttackedIDs is the injector's ground truth for adversarial specs:
	// each CAN ID it attacked, mapped to the attack classes used. Nil when
	// no adversarial fault fired. Kept off faults.Stats so that struct
	// stays ==-comparable.
	AttackedIDs map[uint32][]string
	// Vehicle is retained as the ground-truth oracle (and for the replay
	// experiment); it is never an input to the pipeline.
	Vehicle *vehicle.Vehicle
	// CameraFrames/CameraCorrupted are camera b's OCR statistics.
	CameraFrames, CameraCorrupted int
}

// RunCar collects and reverse engineers one car.
func RunCar(p vehicle.Profile, opt Options) (*CarRun, error) {
	return RunCarContext(context.Background(), p, opt)
}

// RunCarContext is RunCar with cancellation: ctx aborts the car's
// inference between GP generations.
func RunCarContext(ctx context.Context, p vehicle.Profile, opt Options) (*CarRun, error) {
	clock := sim.NewClock(0)
	tool, veh, err := diagtool.ForProfile(p, clock)
	if err != nil {
		return nil, fmt.Errorf("run %s: %w", p.Car, err)
	}
	defer tool.Close()
	r := rig.New(tool, veh, opt.rigConfig())
	defer r.Close()
	cap, err := r.RunFull()
	if err != nil {
		return nil, fmt.Errorf("run %s: %w", p.Car, err)
	}
	var faultStats faults.Stats
	var attacked map[uint32][]string
	if opt.Faults != "" {
		spec, err := faults.ParseSpec(opt.Faults)
		if err != nil {
			return nil, fmt.Errorf("run %s: %w", p.Car, err)
		}
		if spec.Enabled() {
			// Each car gets its own injector seeded from the shared
			// fault seed, so fleet parallelism cannot reorder draws.
			inj := faults.New(spec, opt.FaultSeed)
			cap.Frames = inj.Frames(cap.Frames)
			cap.UIFrames = inj.UIFrames(cap.UIFrames)
			faultStats = inj.Stats()
			attacked = inj.AttackedIDs()
			inj.Publish(opt.Telemetry.RegistryOrNil())
		}
	}
	rv := reverser.New(
		reverser.WithConfig(opt.reverserConfig()),
		reverser.WithParallelism(opt.workers()),
		reverser.WithTelemetry(opt.Telemetry),
	)
	res, err := rv.Reverse(ctx, cap)
	if err != nil {
		return nil, fmt.Errorf("reverse %s: %w", p.Car, err)
	}
	frames, corrupted := r.CameraB().Stats()
	return &CarRun{
		Profile: p, Capture: cap, Streams: res.Streams, Result: res, Vehicle: veh,
		Faults: faultStats, AttackedIDs: attacked,
		CameraFrames: frames, CameraCorrupted: corrupted,
	}, nil
}

// RunFleet runs every car of the fleet, fanning the per-car pipelines out
// across Options.Parallelism workers. The returned slice is in fleet
// order regardless of completion order, and — because every car owns its
// virtual clock, tool and seeds — identical to a sequential run.
func RunFleet(opt Options) ([]*CarRun, error) {
	return RunFleetContext(context.Background(), opt)
}

// RunFleetContext is RunFleet with cancellation. On error or cancellation
// the already-completed cars are closed before returning.
func RunFleetContext(ctx context.Context, opt Options) ([]*CarRun, error) {
	fleet := vehicle.Fleet()
	runs := make([]*CarRun, len(fleet))
	workers := opt.workers()
	if workers > len(fleet) {
		workers = len(fleet)
	}
	var (
		cursor   int64 = -1
		finished int64
		wg       sync.WaitGroup
		progMu   sync.Mutex // serialises opt.Progress only — never guards state
		errMu    sync.Mutex
		firstErr error
	)
	progress := func(format string, args ...any) {
		if opt.Progress == nil {
			return
		}
		progMu.Lock()
		// progMu's one job is keeping concurrent workers' progress lines
		// from interleaving; it protects no data, so a slow or re-entrant
		// Progress callback can delay other progress lines but nothing else.
		opt.Progress(format, args...) //dplint:allow lockhold progMu exists solely to serialise this callback and guards no state
		progMu.Unlock()
	}
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&cursor, 1))
				if i >= len(fleet) || ctx.Err() != nil {
					return
				}
				errMu.Lock()
				broken := firstErr != nil
				errMu.Unlock()
				if broken {
					return
				}
				p := fleet[i]
				start := time.Now() //dplint:allow determinism progress reporting only
				sp := opt.Telemetry.TracerOrNil().Start("car",
					telemetry.String("car", p.Car), telemetry.String("model", p.Model))
				run, err := RunCarContext(ctx, p, opt)
				sp.End()
				if err != nil {
					fail(err)
					return
				}
				runs[i] = run
				progress("%s done in %v (%d/%d)", p.Car,
					time.Since(start).Round(time.Millisecond), //dplint:allow determinism progress reporting
					atomic.AddInt64(&finished, 1), len(fleet))
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		firstErr = err
	}
	if firstErr != nil {
		CloseRuns(runs)
		return nil, firstErr
	}
	return runs, nil
}

// CloseRuns releases the vehicles held by a fleet run. Nil entries (cars
// a cancelled or failed RunFleetContext never reached) are skipped.
func CloseRuns(runs []*CarRun) {
	for _, r := range runs {
		if r != nil && r.Vehicle != nil {
			r.Vehicle.Close()
		}
	}
}

// Truth is the resolved ground truth for one stream: the proprietary
// decode over the pipeline's variable convention.
type Truth struct {
	Decode func(vars []float64) float64
	Expr   string
	Enum   bool
}

// TruthFor resolves a stream key against the vehicle's proprietary tables.
func TruthFor(veh *vehicle.Vehicle, key reverser.StreamKey) (Truth, bool) {
	switch key.Proto {
	case "UDS":
		for _, b := range veh.Bindings() {
			if b.RespID != key.RespID {
				continue
			}
			spec, ok := b.ECU.DIDSpecFor(key.DID)
			if !ok {
				continue
			}
			codec := spec.Codec
			return Truth{
				Decode: func(vars []float64) float64 {
					if len(vars) != 1 {
						return math.NaN()
					}
					return codec.Decode(uint64(math.Round(vars[0])))
				},
				Expr: codec.Expr,
				Enum: spec.Enum,
			}, true
		}
	case "KWP":
		for _, b := range veh.Bindings() {
			if key.RespID != 0x300+uint32(b.Addr) {
				continue
			}
			ls, ok := b.ECU.LocalSpecFor(key.LocalID)
			if !ok || key.Index >= len(ls.ESVs) {
				continue
			}
			es := ls.ESVs[key.Index]
			ft, ok := kwp.LookupFormula(es.FType)
			if !ok {
				return Truth{}, false
			}
			return Truth{
				Decode: func(vars []float64) float64 {
					if len(vars) != 2 {
						return math.NaN()
					}
					return ft.Eval(vars[0], vars[1])
				},
				Expr: ft.Expr,
				Enum: es.Enum,
			}, true
		}
	case "OBD":
		spec, ok := obd.Lookup(byte(key.DID))
		if !ok {
			return Truth{}, false
		}
		return Truth{
			Decode: func(vars []float64) float64 {
				data := make([]byte, len(vars))
				for i, v := range vars {
					data[i] = byte(math.Round(v))
				}
				if len(data) != spec.Width {
					return math.NaN()
				}
				return spec.Decode(data)
			},
			Expr: spec.Formula,
		}, true
	}
	return Truth{}, false
}

// FormulaCorrect scores an inferred formula against ground truth over the
// stream's observed (aggregated) domain — the paper's acceptance criterion,
// outputs "almost the same" over the values seen in traffic, as the
// oracle package states it.
func FormulaCorrect(f *gp.Node, truth Truth, domain [][]float64) bool {
	return oracle.Correct(f, truth.Decode, domain)
}

// markdownTable renders a pipe table.
func markdownTable(headers []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString("| " + strings.Join(headers, " | ") + " |\n")
	seps := make([]string, len(headers))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, r := range rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	return b.String()
}

func pct(num, den int) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(num)/float64(den))
}
