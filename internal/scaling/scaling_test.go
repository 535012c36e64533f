package scaling

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"dpreverser/internal/diagtool"
	"dpreverser/internal/gp"
	"dpreverser/internal/kwp"
	"dpreverser/internal/oracle"
)

func col(vals ...float64) []float64 { return vals }

func TestFactorForBands(t *testing.T) {
	cases := []struct {
		name         string
		values       []float64
		allowEnlarge bool
		want         float64
	}{
		{"mid range untouched", col(2, 3, 5, 8), true, 1},
		{"tens reduced", col(20, 40, 80, 15), true, 0.1},
		{"hundreds reduced", col(200, 400, 800), true, 0.01},
		{"thousands reduced", col(2000, 4000, 8000), true, 0.001},
		{"ten-thousands reduced", col(20000, 40000, 99999), true, 1e-4},
		{"tenths enlarged", col(0.2, 0.4, 0.8), true, 10},
		{"hundredths enlarged", col(0.02, 0.04, 0.08), true, 100},
		{"thousandths enlarged", col(0.002, 0.004, 0.008), true, 1000},
		{"sub-thousandths enlarged", col(0.0002, 0.0004, 0.0008), true, 1e4},
		{"small X not enlarged", col(0.2, 0.4, 0.8), false, 1},
		{"majority rule: no scale", col(5, 5, 5, 200), true, 1},
		{"negatives use magnitude", col(-200, -400, -300), true, 0.01},
		{"all zero", col(0, 0, 0), true, 1},
		{"empty", nil, true, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := factorFor(c.values, c.allowEnlarge); got != c.want {
				t.Fatalf("factorFor(%v) = %v, want %v", c.values, got, c.want)
			}
		})
	}
}

func TestPlanForAndApply(t *testing.T) {
	d := &gp.Dataset{
		X: [][]float64{{200, 2}, {400, 3}, {800, 5}},
		Y: []float64{2000, 4000, 8000},
	}
	p := PlanFor(d)
	if p.YFactor != 0.001 {
		t.Fatalf("YFactor = %v, want 0.001", p.YFactor)
	}
	if p.XFactors[0] != 0.01 || p.XFactors[1] != 1 {
		t.Fatalf("XFactors = %v", p.XFactors)
	}
	scaled := p.Apply(d)
	if scaled.X[0][0] != 2 || scaled.X[0][1] != 2 || scaled.Y[0] != 2 {
		t.Fatalf("scaled = %+v", scaled)
	}
	// Input untouched.
	if d.X[0][0] != 200 || d.Y[0] != 2000 {
		t.Fatal("Apply mutated its input")
	}
}

func TestRestoreRewritesFormula(t *testing.T) {
	// Inferred on scaled data: Y' = X0'  (with X0' = 0.01*X0, Y' = 0.001*Y)
	// Restored: Y = 0.01*X0/0.001 = 10*X0.
	p := Plan{XFactors: []float64{0.01}, YFactor: 0.001}
	restored := p.Restore(gp.NewVar(0))
	for _, x := range []float64{0, 50, 200} {
		want := 10 * x
		if got := restored.Eval([]float64{x}); math.Abs(got-want) > 1e-9 {
			t.Fatalf("restored(%v) = %v, want %v (tree %q)", x, got, want, restored)
		}
	}
}

func TestRestoreIdentityPlanKeepsTree(t *testing.T) {
	p := Plan{XFactors: []float64{1, 1}, YFactor: 1}
	tree := gp.NewBinary(gp.OpMul, gp.NewVar(0), gp.NewVar(1))
	restored := p.Restore(tree)
	if restored.String() != tree.String() {
		t.Fatalf("identity restore changed %q to %q", tree, restored)
	}
}

// Property: for any plan factors from the Table 2 bands, Apply+Restore is
// semantics-preserving — a formula inferred perfectly on scaled data
// predicts the original data perfectly after Restore.
func TestApplyRestoreRoundTripProperty(t *testing.T) {
	f := func(xsRaw []uint16, yScaleIdx, xScaleIdx uint8) bool {
		if len(xsRaw) < 4 {
			return true
		}
		if len(xsRaw) > 40 {
			xsRaw = xsRaw[:40]
		}
		yFactors := []float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100, 1000, 1e4}
		yf := yFactors[int(yScaleIdx)%len(yFactors)]
		xf := yFactors[int(xScaleIdx)%5] // reductions and identity only
		// Original relation: Y = 3*X + 7.
		d := &gp.Dataset{}
		for _, r := range xsRaw {
			x := float64(r % 1000)
			d.X = append(d.X, []float64{x})
			d.Y = append(d.Y, 3*x+7)
		}
		p := Plan{XFactors: []float64{xf}, YFactor: yf}
		scaled := p.Apply(d)
		// The exact formula on scaled data: Y' = yf*(3*(X'/xf) + 7).
		inferred := gp.NewBinary(gp.OpMul, gp.NewConst(yf),
			gp.NewBinary(gp.OpAdd,
				gp.NewBinary(gp.OpMul, gp.NewConst(3/xf), gp.NewVar(0)),
				gp.NewConst(7)))
		// Sanity: inferred must fit the scaled data.
		for i, row := range scaled.X {
			if math.Abs(inferred.Eval(row)-scaled.Y[i]) > 1e-6*(1+math.Abs(scaled.Y[i])) {
				return false
			}
		}
		restored := p.Restore(inferred)
		for i, row := range d.X {
			if math.Abs(restored.Eval(row)-d.Y[i]) > 1e-6*(1+math.Abs(d.Y[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInferEndToEndWithLargeMagnitudes(t *testing.T) {
	// Y = 4*X over X in the thousands — exactly the case Table 2 exists
	// for. Infer must return a formula in original units.
	d := &gp.Dataset{}
	for x := 1000.0; x <= 3000; x += 50 {
		d.X = append(d.X, []float64{x})
		d.Y = append(d.Y, 4*x)
	}
	cfg := gp.DefaultConfig()
	cfg.PopulationSize = 200
	cfg.Generations = 15
	cfg.Seed = 5
	res, err := InferContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	truth := gp.NewBinary(gp.OpMul, gp.NewConst(4), gp.NewVar(0))
	if !gp.EquivalentRel(res.Best, truth, d.X, 1.0, 0.02) {
		t.Fatalf("Infer recovered %q (fitness %v)", res.Best, res.Fitness)
	}
}

func TestInferPropagatesErrors(t *testing.T) {
	if _, err := InferContext(context.Background(), &gp.Dataset{}, gp.DefaultConfig()); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

// displayed builds a stream's dataset from the wire bytes (x0, x1) of
// each sample: Y is decode(x0, x1) rounded to the display step the
// diagnostic tool shows it with.
func displayed(decode func(x0, x1 float64) float64, rows [][2]byte) *gp.Dataset {
	d := &gp.Dataset{}
	for _, r := range rows {
		x0, x1 := float64(r[0]), float64(r[1])
		v := decode(x0, x1)
		step := diagtool.DisplayStep(v)
		d.X = append(d.X, []float64{x0, x1})
		d.Y = append(d.Y, math.Round(v/step)*step)
	}
	return d
}

// kwpRows encodes n values spread over [lo, hi] with KWP formula type id
// at the given scale byte, as an ECU puts them on the wire.
func kwpRows(t *testing.T, id, scale byte, lo, hi float64, n int) (func(x0, x1 float64) float64, [][2]byte) {
	t.Helper()
	ft, ok := kwp.LookupFormula(id)
	if !ok {
		t.Fatalf("no KWP formula type %#x", id)
	}
	var rows [][2]byte
	for i := 0; i < n; i++ {
		x0, x1 := ft.Encode(scale, lo+(hi-lo)*float64(i)/float64(n-1))
		rows = append(rows, [2]byte{x0, x1})
	}
	return ft.Eval, rows
}

// Formulas that need an exact inner constant are recovered at the paper
// budget, over ten GP seeds: the root-term fit supplies the constants, and
// the display-resolution stop ends the run as soon as the fit matches the
// data to rounding. Each dataset samples its formula over the range the
// simulated ECUs send. Three of the four stop on their initial population
// at every seed. Torque assistance, sampled with both signs, needs a tree
// whose terms span X0 and X0·X1 (or X0/X1); an initial population holds
// one at about two seeds in five, and a few generations of breeding find
// it at the rest.
func TestInferRecoversOnInitialPopulation(t *testing.T) {
	type stream struct {
		decode  func(x0, x1 float64) float64
		rows    [][2]byte
		maxGens int
	}
	streams := map[string]stream{}
	for _, c := range []struct {
		name    string
		id      byte
		scale   byte
		lo, hi  float64
		maxGens int
	}{
		{"0.001·X0·(X1−128)", 0x24, 0, -0.25, 0.25, 6},
		{"0.01·(256·X0+X1−128)", 0x25, 0, -0.95, 0.95, 1},
		{"0.001·X0·X1²/255", 0x35, 120, 0.5, 25, 1},
	} {
		decode, rows := kwpRows(t, c.id, c.scale, c.lo, c.hi, 60)
		streams[c.name] = stream{decode, rows, c.maxGens}
	}
	var rpm [][2]byte
	for r := 700.0; r <= 4000; r += 55 {
		raw := int(r * 4)
		rpm = append(rpm, [2]byte{byte(raw >> 8), byte(raw)})
	}
	streams["(256·X0+X1)/4"] = stream{func(a, b float64) float64 { return (256*a + b) / 4 }, rpm, 1}
	for name, s := range streams {
		d := displayed(s.decode, s.rows)
		decode := func(v []float64) float64 { return s.decode(v[0], v[1]) }
		for seed := int64(1); seed <= 10; seed++ {
			cfg := gp.DefaultConfig()
			cfg.Seed = seed
			res, err := InferContext(context.Background(), d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Generations > s.maxGens || !oracle.Correct(res.Best, decode, d.X) {
				t.Errorf("%s, seed %d: %d generations, fitness %v, formula %s", name, seed, res.Generations, res.Fitness, res.Best)
			}
		}
	}
}

// A negative StopFitness still means "never stop": the display-resolution
// stop does not apply, and the run spends its whole budget.
func TestInferNegativeStopFitnessRunsEveryGeneration(t *testing.T) {
	var rows [][2]byte
	for x := 0; x < 60; x++ {
		rows = append(rows, [2]byte{byte(x / 7), byte(x * 37)})
	}
	d := displayed(func(a, b float64) float64 { return (256*a + b) / 4 }, rows)
	cfg := gp.DefaultConfig()
	cfg.PopulationSize, cfg.Generations, cfg.StopFitness = 100, 6, -1
	res, err := InferContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != cfg.Generations {
		t.Fatalf("ran %d generations, want all %d", res.Generations, cfg.Generations)
	}
}

func TestDisplayQuantum(t *testing.T) {
	for _, c := range []struct {
		ys   []float64
		want float64
	}{
		{col(800, 1200, 3000), 1},
		{col(12.5, 100.1, 3), 0.1},
		{col(0.01, 0.57, 99.99), 0.01},
		{col(1.234), 0.001},
		{col(1e-7), 0},
		{col(math.NaN()), 0},
		{nil, 1},
	} {
		if got := displayQuantum(c.ys); got != c.want {
			t.Errorf("displayQuantum(%v) = %v, want %v", c.ys, got, c.want)
		}
	}
}
