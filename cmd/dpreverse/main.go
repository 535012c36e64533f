// Command dpreverse runs the full DP-Reverser pipeline against one
// simulated vehicle: it drives the car's diagnostic tool with the robotic
// rig, captures the CAN traffic and the OCR'd screen video, and prints
// everything the pipeline reverse engineers — request semantics, response
// formulas, and actuator control records.
//
// Usage:
//
//	dpreverse -car "Car A"          # reverse engineer the Skoda Octavia
//	dpreverse -list                 # list the fleet
//	dpreverse -car "Car K" -quick   # shorter recording, GP at 300 programs x 20 generations
//	dpreverse -car "Car A" -json    # machine-readable result on stdout
//	dpreverse -car "Car A" -parallel 4
//	dpreverse -car "Car A" -faults default -fault-seed 1
//
// Stream preparation and inference fan out across -parallel workers
// (default: all CPUs) and can be interrupted with Ctrl-C; results are
// identical at every worker count.
//
// -faults corrupts the capture before analysis (dropped, duplicated,
// reordered and bit-flipped frames, truncated transfers, OCR misreads);
// the pipeline then degrades gracefully, listing every damaged stream in
// the "Degraded streams" report (JSON: "degraded"). -fault-policy strict
// turns any degradation into a non-zero exit instead. The "adversarial"
// preset switches from random damage to deliberate transport-layer
// attacks (hostile flow control, first-frame floods, interleaved
// transfers, session replays, slow drips); attacked streams are
// attributed by class in the degraded report, e.g.
// fc-starve=1 saturates one class (also: ff-flood, interleave,
// session-replay, slow-drip).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"text/tabwriter"

	"time"

	"dpreverser/internal/diagtool"
	"dpreverser/internal/faults"
	"dpreverser/internal/reverser"
	"dpreverser/internal/rig"
	"dpreverser/internal/sim"
	"dpreverser/internal/telemetry"
	"dpreverser/internal/vehicle"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dpreverse:", err)
		os.Exit(1)
	}
}

func run() error {
	car := flag.String("car", "Car A", "fleet car to reverse engineer (see -list)")
	list := flag.Bool("list", false, "list the simulated fleet and exit")
	quick := flag.Bool("quick", false, "short recordings and reduced GP budget: 300 programs x 20 generations")
	seed := flag.Int64("seed", 1, "seed for OCR noise and GP")
	parallel := flag.Int("parallel", 0, "stream-preparation and inference workers (0 = all CPUs)")
	jsonOut := flag.Bool("json", false, "emit the result as JSON on stdout")
	progress := flag.Bool("progress", false, "report per-stream inference progress on stderr")
	showTraffic := flag.Bool("traffic", false, "print the Table 9 frame-mix statistics")
	saveCapture := flag.String("save-capture", "", "write the collected capture (JSON) to this file")
	loadCapture := flag.String("load-capture", "", "skip collection and analyse this capture file instead")
	faultSpec := flag.String("faults", "", "inject capture faults: none, default, heavy, adversarial, or key=value,... (e.g. drop=0.05,bitflip=0.02 or fc-starve=1)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the fault injector")
	faultPolicy := flag.String("fault-policy", "best-effort", "degradation policy: best-effort (report damage, keep going) or strict (fail on any damage)")
	telFlags := telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintln(w, "CAR\tMODEL\tPROTOCOL\tTRANSPORT\tTOOL\tESVs\tECRs")
		for _, p := range vehicle.Fleet() {
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%d+%d\t%d\n",
				p.Car, p.Model, p.Protocol, p.Transport, p.Tool,
				p.NumFormulaESVs, p.NumEnumESVs, p.NumECRs)
		}
		return w.Flush()
	}

	// Ctrl-C cancels the pipeline between GP generations.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// status goes to stderr so -json keeps stdout machine-readable.
	status := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}

	tel, telFlush, err := telFlags.Activate(status)
	if err != nil {
		return err
	}
	defer func() {
		if err := telFlush(); err != nil {
			status("telemetry: %v", err)
		}
	}()

	var cap rig.Capture
	if *loadCapture != "" {
		var err error
		cap, err = rig.LoadCaptureFile(*loadCapture)
		if err != nil {
			return err
		}
		status("Loaded capture of %s (%s): %d CAN frames, %d video frames, %d clicks.",
			cap.Car, cap.Model, len(cap.Frames), len(cap.UIFrames), len(cap.Clicks))
	} else {
		p, ok := vehicle.ProfileByCar(*car)
		if !ok {
			return fmt.Errorf("unknown car %q (try -list)", *car)
		}

		status("Collecting %s (%s) with %s over %s ...", p.Car, p.Model, p.Tool, p.Transport)
		clock := sim.NewClock(0)
		tool, veh, err := diagtool.ForProfile(p, clock)
		if err != nil {
			return err
		}
		defer tool.Close()
		defer veh.Close()

		cfgRig := rig.DefaultConfig()
		cfgRig.Seed = *seed
		if *quick {
			cfgRig = quickRigConfig(*seed)
		}
		r := rig.New(tool, veh, cfgRig)
		defer r.Close()
		cap, err = r.RunFull()
		if err != nil {
			return err
		}
		status("Captured %d CAN frames, %d video frames, %d clicks over %v simulated time.",
			len(cap.Frames), len(cap.UIFrames), len(cap.Clicks), clock.Now())
		if *saveCapture != "" {
			if err := rig.SaveCaptureFile(cap, *saveCapture); err != nil {
				return err
			}
			status("Capture written to %s.", *saveCapture)
		}
	}

	if *faultSpec != "" {
		spec, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			return err
		}
		if spec.Enabled() {
			inj := faults.New(spec, *faultSeed)
			cap.Frames = inj.Frames(cap.Frames)
			cap.UIFrames = inj.UIFrames(cap.UIFrames)
			inj.Publish(tel.RegistryOrNil())
			status("Injected %d faults (%s, seed %d).", inj.Stats().Total(), spec, *faultSeed)
		}
	}

	policy, err := reverser.ParseFaultPolicy(*faultPolicy)
	if err != nil {
		return err
	}

	cfg := reverser.DefaultConfig()
	cfg.GP.Seed = *seed
	if *quick {
		cfg.GP.PopulationSize = 300
		cfg.GP.Generations = 20
	}
	opts := []reverser.Option{
		reverser.WithConfig(cfg),
		reverser.WithParallelism(*parallel),
		reverser.WithTelemetry(tel),
		reverser.WithFaultPolicy(policy),
	}
	if *progress {
		opts = append(opts, reverser.WithProgress(renderProgress(status)))
	}
	res, err := reverser.New(opts...).Reverse(ctx, cap)
	if err != nil {
		return err
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}

	fmt.Println()
	fmt.Print(res.Summary())

	if *showTraffic {
		s := res.Stats
		fmt.Printf("\nTraffic mix: %d SF, %d FF, %d CF, %d FC | VW TP: %d waiting, %d last, %d control\n",
			s.ISOTPSingle, s.ISOTPFirst, s.ISOTPConsecutive, s.ISOTPFlowControl,
			s.VWTPWaiting, s.VWTPLast, s.VWTPControl)
	}

	fmt.Println("\nReversed ECU signal values:")
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "IDENTIFIER\tSEMANTICS\tUNIT\tKIND\tFORMULA\tPAIRS")
	for _, e := range res.ESVs {
		formula := e.FormulaString()
		if formula == "" {
			formula = "-"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%d\n", e.Key, e.Label, e.Unit, e.Kind(), formula, e.Pairs)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	if len(res.ECRs) > 0 {
		fmt.Println("\nReversed ECU control records:")
		w = tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintln(w, "SERVICE\tID\tCOMPONENT\tSTATE\tPATTERN")
		for _, e := range res.ECRs {
			pattern := "incomplete"
			if e.PatternComplete() {
				pattern = "freeze/adjust/return"
				if e.Service == 0x30 {
					pattern = "adjust/return"
				}
			}
			fmt.Fprintf(w, "%02X\t%04X\t%s\t% X\t%s\n", e.Service, e.ID, e.Label, e.State, pattern)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}

	if len(res.Degraded) > 0 {
		fmt.Printf("\nDegraded streams (%d):\n", len(res.Degraded))
		w = tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintln(w, "STAGE\tSTREAM\tREASON\tDETAIL")
		for _, se := range res.Degraded {
			id := "-"
			if se.Key != (reverser.StreamKey{}) {
				id = se.Key.String()
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", se.Stage, id, se.Reason, se.Detail)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// renderProgress turns pipeline progress events into stderr status lines:
// one line per stage with its wall time, one line per inferred stream with
// its generation count.
func renderProgress(status func(format string, args ...any)) reverser.ProgressFunc {
	return func(ev reverser.ProgressEvent) {
		switch ev.Kind {
		case reverser.ProgressStageDone:
			if ev.Stage != "infer" { // stream lines already cover inference
				status("  [%s] %v", ev.Stage, ev.Elapsed.Round(time.Microsecond))
			}
		case reverser.ProgressStreamDone:
			label := ev.Label
			if label == "" {
				label = ev.Stream.String()
			}
			if ev.Evaluations > 0 {
				status("  [infer %d/%d] %s (%d gens, %d evals, %.0f%% cached, %v)",
					ev.Done, ev.Total, label, ev.Generations, ev.Evaluations,
					100*float64(ev.CacheHits)/float64(ev.Evaluations),
					ev.Elapsed.Round(time.Millisecond))
			} else {
				status("  [infer %d/%d] %s (%d gens, %v)",
					ev.Done, ev.Total, label, ev.Generations, ev.Elapsed.Round(time.Millisecond))
			}
		}
	}
}

func quickRigConfig(seed int64) rig.Config {
	cfg := rig.DefaultConfig()
	cfg.Seed = seed
	cfg.ReadDuration = 10 * time.Second
	cfg.AlignDuration = 5 * time.Second
	cfg.TestDuration = time.Second
	return cfg
}
