package gp

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files under testdata")

// runMatrixGoldenPath pins real engine output: for every case of
// runMatrix, the simplified formula, the exact fitness bits and the run's
// counters.
const runMatrixGoldenPath = "testdata/run_matrix.golden"

// noisyDataset is a target no formula of the function set fits to within
// the default StopFitness: a smooth curve plus deterministic pseudo-noise
// of amplitude ~3, so a run never converges and spends its whole budget.
func noisyDataset() *Dataset {
	d := &Dataset{}
	state := uint32(12345)
	for x := 0.0; x < 120; x++ {
		state = state*1664525 + 1013904223
		noise := float64(state>>8)/float64(1<<24)*6 - 3
		d.X = append(d.X, []float64{x, math.Mod(x*7, 31)})
		d.Y = append(d.Y, 0.02*x*x-3*x+noise)
	}
	return d
}

// udsLikeDataset is a one-variable linear codec: linear scaling fits it
// at generation 0 up to rounding error, so with StopFitness 0 a run keeps
// breeding from a near-perfect champion.
func udsLikeDataset() *Dataset {
	d := &Dataset{}
	for x := 0.0; x <= 255; x += 4 {
		d.X = append(d.X, []float64{x})
		d.Y = append(d.Y, 0.7*x-40.1)
	}
	return d
}

// runMatrix covers the engine paths an evaluation change can disturb:
// converging and never-converging datasets (uds and affine1 are fitted by
// a single scaled variable, rpm, linear2 and product by the basis tier of
// the stop ladder), no parsimony, no early stop (stopneg breeds every
// generation), and a one-generation budget.
func runMatrix() []poolCase {
	base := func(seed int64) Config {
		cfg := DefaultConfig()
		cfg.PopulationSize = 200
		cfg.Generations = 8
		cfg.Seed = seed
		return cfg
	}
	with := func(cfg Config, f func(*Config)) Config {
		f(&cfg)
		return cfg
	}
	datasets := []struct {
		name string
		d    *Dataset
	}{
		{"rpm", islandTestDataset()},
		{"linear2", linear2Dataset()},
		{"product", makeDataset(func(a, b float64) float64 { return a * b / 5 }, seq(200, 250, 10), seq(0, 255, 32))},
		{"noisy", noisyDataset()},
		{"uds", udsLikeDataset()},
		{"affine1", affineX1Dataset()},
	}
	var cases []poolCase
	for i, ds := range datasets {
		seed := int64(i + 1)
		for _, v := range []struct {
			name string
			cfg  Config
		}{
			{"p1", base(seed)},
			{"stop0", with(base(seed), func(c *Config) { c.StopFitness = 0 })},
			{"gens1", with(base(seed), func(c *Config) { c.Generations = 1 })},
			{"stopneg", with(base(seed), func(c *Config) { c.StopFitness = -1 })},
		} {
			cases = append(cases, poolCase{name: ds.name + "/" + v.name, d: ds.d, cfg: v.cfg})
		}
	}
	// At seed 5 the first 150 programs of the log population miss the
	// stop and the rest of the 300 meet it: the run must draw and score
	// its whole initial population.
	cases = append(cases, poolCase{name: "log/seed5-pop300", d: logDataset(),
		cfg: with(base(5), func(c *Config) { c.PopulationSize = 300 })})
	return cases
}

// goldenLine renders a result with its fitness as exact IEEE-754 bits.
func goldenLine(name string, res Result) string {
	return fmt.Sprintf("%s\t%s\t%016x\tgens=%d\tevals=%d\thits=%d\tmisses=%d",
		name, res.Best.String(), math.Float64bits(res.Fitness),
		res.Generations, res.Evaluations, res.CacheHits, res.CacheMisses)
}

// TestRunMatrixGolden holds the engine to its recorded output: any change
// to evaluation, caching or scheduling that claims to leave results
// unchanged must reproduce every line, counters included.
func TestRunMatrixGolden(t *testing.T) {
	var got []string
	for _, c := range runMatrix() {
		res, err := Run(c.d, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, goldenLine(c.name, res))
	}
	doc := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(runMatrixGoldenPath, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(runMatrixGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to regenerate)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d matrix cases, golden has %d lines", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("run drifted:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
