package dpreverser_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"dpreverser/internal/appanalysis"
	"dpreverser/internal/can"
	"dpreverser/internal/diagtool"
	"dpreverser/internal/experiments"
	"dpreverser/internal/gp"
	"dpreverser/internal/isotp"
	"dpreverser/internal/ocr"
	"dpreverser/internal/regress"
	"dpreverser/internal/reverser"
	"dpreverser/internal/rig"
	"dpreverser/internal/scaling"
	"dpreverser/internal/sim"
	"dpreverser/internal/vehicle"
	"dpreverser/internal/vwtp"
)

// --- E5 / Table 8: formula-inference cost per algorithm ---

// udsDataset is a representative one-variable (UDS) inference input.
func udsDataset() *gp.Dataset {
	d := &gp.Dataset{}
	for x := 0.0; x <= 255; x += 4 {
		d.X = append(d.X, []float64{x})
		d.Y = append(d.Y, 0.75*x-48)
	}
	return d
}

// kwpDataset is a representative two-variable (KWP 2000) inference input
// with the paper's engine-speed product formula.
func kwpDataset() *gp.Dataset {
	d := &gp.Dataset{}
	for x0 := 200.0; x0 <= 250; x0 += 10 {
		for x1 := 0.0; x1 <= 255; x1 += 16 {
			d.X = append(d.X, []float64{x0, x1})
			d.Y = append(d.Y, x0*x1/5)
		}
	}
	return d
}

// obdDataset is the Table 5 inference input: the two-byte engine-speed
// PID with per-byte variables.
func obdDataset() *gp.Dataset {
	d := &gp.Dataset{}
	for hi := 0.0; hi <= 64; hi += 4 {
		for lo := 0.0; lo <= 255; lo += 32 {
			d.X = append(d.X, []float64{hi, lo})
			d.Y = append(d.Y, (256*hi+lo)/4)
		}
	}
	return d
}

func benchGP(b *testing.B, d *gp.Dataset) {
	cfg := gp.DefaultConfig()
	cfg.StopFitness = -1 // full 30×1000 budget, as Table 8 accounts it
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := gp.Run(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGPInferUDS regenerates Table 8's UDS row (GP column).
func BenchmarkGPInferUDS(b *testing.B) { benchGP(b, udsDataset()) }

// BenchmarkGPInferKWP regenerates Table 8's KWP row (GP column).
func BenchmarkGPInferKWP(b *testing.B) { benchGP(b, kwpDataset()) }

// BenchmarkGPInferOBD regenerates the Table 5 workload: the two-byte
// engine-speed PID with per-byte variables.
func BenchmarkGPInferOBD(b *testing.B) { benchGP(b, obdDataset()) }

// gpInferOBDAllocBaseline is the allocation count of one quick-budget
// GPInferOBD run (TestGPInferOBDAllocRatchet's workload): 232 on
// linux/amd64, with and without -race. Lower it when a change saves
// allocations.
const gpInferOBDAllocBaseline = 232

// allocRatchetSlack is the tolerated growth over a baseline: allocation
// counts are deterministic enough that anything past 10% means a hot path
// started allocating. (Under -race, sync.Pool drops entries at random, so
// a pooled path allocates a little more.)
const allocRatchetSlack = 1.10

// TestGPInferOBDAllocRatchet fails when GP inference on the Table 5
// workload, at a quick budget with fixed seeds, allocates more than 10%
// over gpInferOBDAllocBaseline per run.
func TestGPInferOBDAllocRatchet(t *testing.T) {
	d := obdDataset()
	cfg := gp.DefaultConfig()
	cfg.PopulationSize = 100
	cfg.Generations = 5
	cfg.StopFitness = -1 // full budget, as Table 8 accounts it
	cfg.Seed = 0
	allocs := testing.AllocsPerRun(20, func() {
		cfg.Seed++
		if _, err := gp.Run(d, cfg); err != nil {
			t.Fatal(err)
		}
	})
	limit := gpInferOBDAllocBaseline * allocRatchetSlack
	t.Logf("GPInferOBD: %.0f allocs/run (baseline %d, limit %.0f)", allocs, gpInferOBDAllocBaseline, limit)
	if allocs > limit {
		t.Fatalf("GPInferOBD allocs/run regressed: %.0f > %.0f (baseline %d, +10%% slack)",
			allocs, limit, gpInferOBDAllocBaseline)
	}
}

// readCaptureAllocBaseline is the allocation count of decoding a full
// Car M capture at rig seed 1 (TestReadCaptureAllocRatchet's workload,
// BenchmarkReadCapture's in internal/rig): 453 on linux/amd64. Lower it
// when a change saves allocations.
const readCaptureAllocBaseline = 453

// TestReadCaptureAllocRatchet fails when decoding a full Car M capture
// allocates more than 10% over readCaptureAllocBaseline per decode. The
// capture holds tens of thousands of frames and texts, so a decoder path
// that allocates per object fails it by far.
func TestReadCaptureAllocRatchet(t *testing.T) {
	var body bytes.Buffer
	if err := collectCapture(t, "Car M", rig.DefaultConfig()).Save(&body); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := rig.ReadCapture(bytes.NewReader(body.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	limit := readCaptureAllocBaseline * allocRatchetSlack
	t.Logf("ReadCapture: %.0f allocs/decode (baseline %d, limit %.0f)", allocs, readCaptureAllocBaseline, limit)
	if allocs > limit {
		t.Fatalf("ReadCapture allocs/decode regressed: %.0f > %.0f (baseline %d, +10%% slack)",
			allocs, limit, readCaptureAllocBaseline)
	}
}

// readCaptureFallbackByteLimit bounds the bytes ReadCapture's
// encoding/json fallback allocates per decode, as a multiple of the body's
// size. Decoding the 1.3 MB four-space-indented Car M capture in place
// allocates about 0.5× its size, most of it the decoded capture; copying
// the body into a json.Decoder first took about 3.8× (linux/amd64).
const readCaptureFallbackByteLimit = 1.5

// TestReadCaptureFallbackByteRatchet fails when decoding a re-indented
// full Car M capture, which is not laid out as Save writes it and so
// decodes through encoding/json, allocates more than
// readCaptureFallbackByteLimit times the body's size per decode.
func TestReadCaptureFallbackByteRatchet(t *testing.T) {
	var saved, body bytes.Buffer
	if err := collectCapture(t, "Car M", rig.DefaultConfig()).Save(&saved); err != nil {
		t.Fatal(err)
	}
	if err := json.Indent(&body, saved.Bytes(), "", "    "); err != nil {
		t.Fatal(err)
	}
	decode := func() {
		if _, err := rig.ReadCapture(bytes.NewReader(body.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	decode() // leaves a grown scratch in ReadCapture's free list
	const decodes = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range decodes {
		decode()
	}
	runtime.ReadMemStats(&after)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / decodes / float64(body.Len())
	t.Logf("ReadCapture fallback: %.2f bytes allocated per body byte (%d-byte body, limit %.1f)",
		ratio, body.Len(), readCaptureFallbackByteLimit)
	if ratio > readCaptureFallbackByteLimit {
		t.Fatalf("ReadCapture fallback allocates %.2f× its body per decode, over %.1f×", ratio, readCaptureFallbackByteLimit)
	}
}

// BenchmarkLinearRegression regenerates Table 8's linear-regression column.
func BenchmarkLinearRegression(b *testing.B) {
	d := udsDataset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := regress.LinearFit(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolyFit regenerates Table 8's polynomial column.
func BenchmarkPolyFit(b *testing.B) {
	d := udsDataset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := regress.PolyFit(d, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6 / Table 9: transport assembly throughput ---

// BenchmarkISOTPAssemble measures reassembling a realistic multi-frame UDS
// capture (the Table 9 screening+assembly path).
func BenchmarkISOTPAssemble(b *testing.B) {
	var frames []can.Frame
	payload := make([]byte, 60)
	for i := range payload {
		payload[i] = byte(i)
	}
	fields, err := isotp.Segment(payload, 0xAA)
	if err != nil {
		b.Fatal(err)
	}
	for r := 0; r < 50; r++ {
		frames = append(frames, can.MustFrame(0x700, []byte{0x02, 0x3E, 0x00, 0, 0, 0, 0, 0}))
		for _, f := range fields {
			frames = append(frames, can.MustFrame(0x701, f))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msgs, _, err := reverser.AssembleColumnar(context.Background(), reverser.FramesColumnar(frames), nil)
		if err != nil {
			b.Fatal(err)
		}
		if msgs.Len() != 100 {
			b.Fatalf("messages = %d", msgs.Len())
		}
	}
}

// BenchmarkVWTPAssemble measures reassembling VW TP 2.0 traffic.
func BenchmarkVWTPAssemble(b *testing.B) {
	var frames []can.Frame
	frames = append(frames, can.MustFrame(0x201, []byte{0x00, 0xD0, 0x41, 0x07, 0x01, 0x03, 0x01}))
	payload := make([]byte, 34)
	seq := byte(0)
	for r := 0; r < 100; r++ {
		fields, err := vwtp.Segment(payload, 15, seq)
		if err != nil {
			b.Fatal(err)
		}
		seq = (seq + byte(len(fields))) & 0x0F
		for _, f := range fields {
			frames = append(frames, can.MustFrame(0x301, f))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msgs, _, err := reverser.AssembleColumnar(context.Background(), reverser.FramesColumnar(frames), nil)
		if err != nil {
			b.Fatal(err)
		}
		if msgs.Len() != 100 {
			b.Fatalf("messages = %d", msgs.Len())
		}
	}
}

// --- E1 / Table 4: OCR throughput ---

// BenchmarkOCRRecognize measures recognising one live-data screen and
// laying its texts out as rows.
func BenchmarkOCRRecognize(b *testing.B) {
	p, _ := vehicle.ProfileByCar("Car L")
	clock := sim.NewClock(0)
	tool, veh, err := diagtool.ForProfile(p, clock)
	if err != nil {
		b.Fatal(err)
	}
	defer tool.Close()
	defer veh.Close()
	tool.ClickWidget("home.diag")
	tool.ClickWidget("ecu.0")
	tool.ClickWidget("func.stream")
	tool.SelectAllOnECU()
	tool.ClickWidget("sel.ok")
	tool.Poll()
	screen := tool.Screen()
	engine := ocr.NewEngine(ocr.HighQualityValueErr, 1)
	var rows []ocr.Row
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := engine.Recognize(screen, time.Duration(i))
		if rows = ocr.Layout(f.Texts, rows[:0]); len(rows) == 0 {
			b.Fatal("no rows recognised")
		}
	}
}

// --- E3: full pipeline on one car ---

// BenchmarkPipelineOneCar measures collection + reverse engineering of one
// small car end to end (reduced GP budget; the full budget is the
// experiment harness's job).
func BenchmarkPipelineOneCar(b *testing.B) {
	p, _ := vehicle.ProfileByCar("Car M")
	for i := 0; i < b.N; i++ {
		clock := sim.NewClock(0)
		tool, veh, err := diagtool.ForProfile(p, clock)
		if err != nil {
			b.Fatal(err)
		}
		cfg := rig.DefaultConfig()
		cfg.ReadDuration = 10 * time.Second
		cfg.AlignDuration = 5 * time.Second
		r := rig.New(tool, veh, cfg)
		cap, err := r.RunFull()
		if err != nil {
			b.Fatal(err)
		}
		rcfg := reverser.DefaultConfig()
		rcfg.GP.PopulationSize = 300
		rcfg.GP.Generations = 20
		rv := reverser.New(reverser.WithConfig(rcfg), reverser.WithParallelism(1))
		if _, err := rv.Reverse(context.Background(), cap); err != nil {
			b.Fatal(err)
		}
		r.Close()
		tool.Close()
		veh.Close()
	}
}

// --- Parallel inference engine ---

// benchCapture collects one car once, with shortened reads, so the
// reversal benchmarks measure analysis alone, not the rig session.
func benchCapture(b *testing.B, car string) rig.Capture {
	cfg := rig.DefaultConfig()
	cfg.ReadDuration = 10 * time.Second
	cfg.AlignDuration = 5 * time.Second
	return collectCapture(b, car, cfg)
}

// collectCapture runs car's rig session at cfg.
func collectCapture(tb testing.TB, car string, cfg rig.Config) rig.Capture {
	tb.Helper()
	p, _ := vehicle.ProfileByCar(car)
	clock := sim.NewClock(0)
	tool, veh, err := diagtool.ForProfile(p, clock)
	if err != nil {
		tb.Fatal(err)
	}
	r := rig.New(tool, veh, cfg)
	cap, err := r.RunFull()
	if err != nil {
		tb.Fatal(err)
	}
	r.Close()
	tool.Close()
	veh.Close()
	return cap
}

// BenchmarkReverseOneCar measures the reversal of one pre-collected
// capture at several worker-pool sizes. Per-stream seeding makes every
// variant produce identical formulas; only the wall clock moves.
func BenchmarkReverseOneCar(b *testing.B) {
	cap := benchCapture(b, "Car M")
	rcfg := reverser.DefaultConfig()
	rcfg.GP.PopulationSize = 300
	rcfg.GP.Generations = 20
	rcfg.GP.StopFitness = -1 // fixed budget so worker counts are comparable
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			rv := reverser.New(reverser.WithConfig(rcfg), reverser.WithParallelism(workers))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rv.Reverse(context.Background(), cap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E8 / Table 11: control-record extraction ---

// BenchmarkECRExtraction measures the active-test capture + three-message
// pattern recovery on a 10-ECR car.
func BenchmarkECRExtraction(b *testing.B) {
	p, _ := vehicle.ProfileByCar("Car I")
	for i := 0; i < b.N; i++ {
		clock := sim.NewClock(0)
		tool, veh, err := diagtool.ForProfile(p, clock)
		if err != nil {
			b.Fatal(err)
		}
		cfg := rig.DefaultConfig()
		cfg.TestDuration = time.Second
		r := rig.New(tool, veh, cfg)
		if err := r.CollectActiveTests(); err != nil {
			b.Fatal(err)
		}
		res, err := reverser.New().Reverse(context.Background(), r.Capture())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.ECRs) != p.NumECRs {
			b.Fatalf("ECRs = %d, want %d", len(res.ECRs), p.NumECRs)
		}
		r.Close()
		tool.Close()
		veh.Close()
	}
}

// --- E9 / Table 12: app taint analysis ---

// BenchmarkAppTaintAnalysis measures Algorithm 1 over the largest app in
// the corpus (Carly for Mercedes, 2092 formulas).
func BenchmarkAppTaintAnalysis(b *testing.B) {
	var target *appanalysis.App
	for _, app := range appanalysis.Corpus() {
		if app.Name == "Carly for Mercedes" {
			target = app
		}
	}
	if target == nil {
		b.Fatal("corpus missing Carly for Mercedes")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		formulas := appanalysis.Analyze(target)
		if len(formulas) != 1624+468 {
			b.Fatalf("formulas = %d", len(formulas))
		}
	}
}

// --- E11: click planning ---

// BenchmarkPlannerNearestNeighbor measures planning a 14-ESV page.
func BenchmarkPlannerNearestNeighbor(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	points := make([]rig.Point, 14)
	for i := range points {
		points[i] = rig.Point{X: rng.Intn(1024), Y: rng.Intn(768)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		order := rig.NearestNeighbor(rig.Point{}, points)
		if len(order) != 14 {
			b.Fatal("tour incomplete")
		}
	}
}

// --- Ablations (DESIGN.md's called-out design choices) ---
// Each ablation reports a precision metric alongside the timing so the
// effect of the design choice is visible in the benchmark output.

// ablationDataset builds a magnitude-hostile inference problem: Y in the
// thousands, the case Table 2's scaling exists for.
func ablationDataset() *gp.Dataset {
	d := &gp.Dataset{}
	for x := 0.0; x <= 255; x += 3 {
		d.X = append(d.X, []float64{x})
		d.Y = append(d.Y, 64*x+32) // the paper's RPM magnitude
	}
	return d
}

func ablationPrecision(b *testing.B, infer func(seed int64) (*gp.Node, error)) {
	truth := gp.NewBinary(gp.OpAdd,
		gp.NewBinary(gp.OpMul, gp.NewConst(64), gp.NewVar(0)), gp.NewConst(32))
	domain := ablationDataset().X
	correct := 0
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := infer(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		total++
		// The ablation's question is whether the slope is recovered at all;
		// the tolerance forgives the +32 offset (0.2% of full scale).
		if gp.EquivalentRel(f, truth, domain, 40, 0.05) {
			correct++
		}
	}
	b.StopTimer()
	if total > 0 {
		b.ReportMetric(float64(correct)/float64(total), "precision")
	}
}

// ablationGPConfig is a deliberately small budget so the scaling ablations
// show their effect (with the paper's full budget even the handicapped
// variants often converge).
func ablationGPConfig(seed int64) gp.Config {
	cfg := gp.DefaultConfig()
	cfg.PopulationSize = 400
	cfg.Generations = 15
	cfg.Seed = seed
	return cfg
}

// BenchmarkAblationTable2ScalingOn infers with the paper's magnitude
// pre/post-scaling in place.
func BenchmarkAblationTable2ScalingOn(b *testing.B) {
	d := ablationDataset()
	ablationPrecision(b, func(seed int64) (*gp.Node, error) {
		cfg := ablationGPConfig(seed)
		cfg.DisableLinearScaling = true // isolate Table 2's effect
		res, err := scaling.InferContext(context.Background(), d, cfg)
		return res.Best, err
	})
}

// BenchmarkAblationTable2ScalingOff infers on the raw magnitudes.
func BenchmarkAblationTable2ScalingOff(b *testing.B) {
	d := ablationDataset()
	ablationPrecision(b, func(seed int64) (*gp.Node, error) {
		cfg := ablationGPConfig(seed)
		cfg.DisableLinearScaling = true
		res, err := gp.Run(d, cfg)
		return res.Best, err
	})
}

// BenchmarkAblationLinearScalingOn measures the engine's built-in linear
// scaling (shape search + analytic coefficients).
func BenchmarkAblationLinearScalingOn(b *testing.B) {
	d := ablationDataset()
	ablationPrecision(b, func(seed int64) (*gp.Node, error) {
		res, err := gp.Run(d, ablationGPConfig(seed))
		return res.Best, err
	})
}

// BenchmarkAblationOCRFilterOn / Off measure the two-stage incorrect-value
// filter's effect on inference precision under OCR noise.
func benchOCRFilterAblation(b *testing.B, filter bool) {
	rng := rand.New(rand.NewSource(5))
	mkSamples := func() []ocr.Sample {
		var samples []ocr.Sample
		for i := 0; i < 60; i++ {
			v := 25 + 0.2*float64(i)
			if i%17 == 5 {
				v *= 100 // decimal-point loss
			}
			samples = append(samples, ocr.Sample{At: time.Duration(i) * time.Second, Value: v})
		}
		return samples
	}
	truth := gp.NewBinary(gp.OpAdd,
		gp.NewBinary(gp.OpMul, gp.NewConst(0.2), gp.NewVar(0)), gp.NewConst(25))
	correct, total := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samples := mkSamples()
		if filter {
			samples = ocr.Filter(samples, 0, 400)
		}
		d := &gp.Dataset{}
		for _, s := range samples {
			x := s.At.Seconds()
			d.X = append(d.X, []float64{x})
			d.Y = append(d.Y, s.Value)
		}
		lr, err := regress.LinearFit(d)
		total++
		if err == nil && gp.EquivalentRel(lr.Tree, truth, d.X, 1.0, 0.03) {
			correct++
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(correct)/float64(total), "precision")
	_ = rng
}

func BenchmarkAblationOCRFilterOn(b *testing.B)  { benchOCRFilterAblation(b, true) }
func BenchmarkAblationOCRFilterOff(b *testing.B) { benchOCRFilterAblation(b, false) }

// BenchmarkAblationPlanner compares the click-ordering strategies' tour
// lengths (reported as a metric, px per tour).
func BenchmarkAblationPlanner(b *testing.B) {
	for _, strategy := range []string{"nearest-neighbour", "random"} {
		b.Run(strategy, func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			total := 0.0
			for i := 0; i < b.N; i++ {
				points := make([]rig.Point, 14)
				for j := range points {
					points[j] = rig.Point{X: rng.Intn(1024), Y: rng.Intn(768)}
				}
				start := rig.Point{}
				var order []rig.Point
				if strategy == "nearest-neighbour" {
					order = rig.NearestNeighbor(start, points)
				} else {
					order = rig.RandomOrder(points, rng)
				}
				total += rig.TourLength(start, order)
			}
			b.ReportMetric(total/float64(b.N), "px/tour")
		})
	}
}

// BenchmarkExperimentTable9 regenerates the Table 9 measurement end to end
// on the three relevant cars.
func BenchmarkExperimentTable9(b *testing.B) {
	opt := experiments.Options{Quick: true, Seed: 7}
	for i := 0; i < b.N; i++ {
		var runs []*experiments.CarRun
		for _, car := range []string{"Car A", "Car B", "Car C"} {
			p, _ := vehicle.ProfileByCar(car)
			run, err := experiments.RunCar(p, opt)
			if err != nil {
				b.Fatal(err)
			}
			runs = append(runs, run)
		}
		rows := experiments.Table9(runs)
		if len(rows) != 2 || rows[0].Total == 0 {
			b.Fatalf("table 9 rows = %+v", rows)
		}
		experiments.CloseRuns(runs)
	}
}
