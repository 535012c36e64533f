package gp

import (
	"math"
	"testing"
)

// lineDataset is y = 3x+5 on 50 points, with 50 added to every row
// listed in outliers: few enough to fall in the trimmed 20%.
func lineDataset(outliers ...int) *Dataset {
	d := &Dataset{}
	for x := 0; x < 50; x++ {
		d.X = append(d.X, []float64{float64(x)})
		d.Y = append(d.Y, 3*float64(x)+5)
	}
	for _, i := range outliers {
		d.Y[i] += 50
	}
	return d
}

// logDataset is y = 5·ln(x0) + 3 on a 7×7 grid (x1 unused), with 50
// added to every row listed in outliers. No program of the stop ladder
// fits it, so a run draws at least one chunk of its initial population.
func logDataset(outliers ...int) *Dataset {
	d := makeDataset(func(a, _ float64) float64 { return 5*math.Log(a) + 3 }, seq(1, 49, 8), seq(0, 30, 5))
	for _, i := range outliers {
		d.Y[i] += 50
	}
	return d
}

// The early stop within the initial population needs the champion to
// predict every row but at most one within 2·StopFitness, not only to
// meet the stop on its trimmed MAE. With three rows off the curve, the
// first chunk's champion fits the other rows exactly, which meets the
// trimmed stop, but misses those three by 50, so the run draws its whole
// initial population. Without the outliers it stops after the first
// chunk. Both runs score the stop ladder's programs first (the two single
// variables and the basis), and neither stops on them.
func TestInitialStopNeedsEveryRow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PopulationSize = initChunk
	first, err := Run(logDataset(3, 20, 37), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Generations != 1 || first.Fitness > cfg.StopFitness {
		t.Fatalf("first chunk alone: %d generations, fitness %v; want it to meet the trimmed stop",
			first.Generations, first.Fitness)
	}
	cfg.PopulationSize = 2*initChunk + 50
	ladder := 2 + basisSize(2)
	for _, c := range []struct {
		name  string
		d     *Dataset
		evals int
	}{
		{"clean", logDataset(), ladder + initChunk},
		{"outliers", logDataset(3, 20, 37), ladder + cfg.PopulationSize},
	} {
		res, err := Run(c.d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Generations != 1 || res.Evaluations != c.evals || res.Fitness > cfg.StopFitness {
			t.Errorf("%s: %d generations, %d evaluations, fitness %v; want 1 generation, %d evaluations",
				c.name, res.Generations, res.Evaluations, res.Fitness, c.evals)
		}
	}
}

// nearLineDataset is y = 3x+5 on n points, with 0.04 added at x = 3:
// close enough for X0's least-squares fit to meet the stop on its MAE,
// but that row misses by more than 2·StopFitness.
func nearLineDataset(n int) *Dataset {
	d := &Dataset{}
	for x := 0; x < n; x++ {
		d.X = append(d.X, []float64{float64(x)})
		d.Y = append(d.Y, 3*float64(x)+5)
	}
	d.Y[3] += 0.04
	return d
}

// The stop test forgives one row outside 2·StopFitness in a dataset of
// oneMissRows or more rows, and no row in a smaller one. Two misses
// always draw.
func TestStopForgivesOneMiss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PopulationSize = 2 * initChunk
	draw := 1 + basisSize(1) + cfg.PopulationSize
	for _, c := range []struct {
		name  string
		d     *Dataset
		evals int
	}{
		{"one miss in 8 rows stops", nearLineDataset(oneMissRows), 1},
		{"one miss in 7 rows draws", nearLineDataset(oneMissRows - 1), draw},
		{"one miss in 50 rows stops", lineDataset(20), 1},
		{"two misses in 50 rows draw", lineDataset(20, 37), draw},
	} {
		res, err := Run(c.d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Generations != 1 || res.Evaluations != c.evals || res.Fitness > cfg.StopFitness {
			t.Errorf("%s: got %s; want 1 generation and %d evaluations", c.name, resultJSON(t, res), c.evals)
		}
	}
}

// basisSize is the stop ladder's tier-1 program count over k variables:
// two forms per variable, one per unordered pair and two per ordered
// pair.
func basisSize(k int) int { return 2*k + k*(k-1)/2 + 2*k*(k-1) }

func TestBasisSize(t *testing.T) {
	isl := acquireIsland(affineX1Dataset(), DefaultConfig())
	defer isl.release()
	for k := 1; k <= 4; k++ {
		if got := len(isl.basis(k)); got != basisSize(k) {
			t.Errorf("basis over %d variables has %d programs, want %d", k, got, basisSize(k))
		}
	}
}

// basisDataset is y = f(x0, x1) on a 6×8 grid of raw byte values.
func basisDataset(f func(x0, x1 float64) float64) *Dataset {
	return makeDataset(f, seq(5, 255, 50), seq(3, 255, 36))
}

// A dataset that one form of the basis fits, and no single variable,
// stops in tier 1 of the stop ladder: after the k single variables and
// the basis, before anything is drawn.
func TestBasisTierStops(t *testing.T) {
	for _, c := range []struct {
		name string
		f    func(x0, x1 float64) float64
	}{
		{"Xi·Xi", func(a, _ float64) float64 { return 0.01*a*a - 3 }},
		{"sqrt(Xi)", func(_, b float64) float64 { return 4*math.Sqrt(b) + 1 }},
		{"Xi+Xj", func(a, b float64) float64 { return (256*a + b) / 4 }},
		{"Xi·Xj+Xi", func(a, b float64) float64 { return 0.001 * a * (b - 128) }},
		{"Xi·Xj·Xj+Xi·Xj", func(a, b float64) float64 { return 0.001 * a * b * (b - 40) / 255 }},
	} {
		cfg := DefaultConfig()
		obs := &statsObserver{}
		cfg.Observer = obs
		res, err := Run(basisDataset(c.f), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := 2 + basisSize(2); res.Generations != 1 || res.Evaluations != want || res.Fitness > cfg.StopFitness {
			t.Errorf("%s: got %s; want 1 generation and %d evaluations", c.name, resultJSON(t, res), want)
		}
		if len(obs.stats) != 1 || obs.stats[0].Generation != 0 {
			t.Errorf("%s: observer saw %+v; want generation 0 only", c.name, obs.stats)
		}
	}
}

// affineX1Dataset is y = 0.7·x1 − 40 over two variables: least-squares
// scaling of the single-variable program X1 fits it exactly.
func affineX1Dataset() *Dataset {
	return makeDataset(func(_, b float64) float64 { return 0.7*b - 40 }, seq(0, 60, 12), seq(0, 255, 17))
}

// Before drawing anything, a run scores X0…X(k−1) and ends on the best of
// them when it passes the same stop test as an initial-population chunk.
func TestSingleVariablePrecheck(t *testing.T) {
	t.Run("affine stops", func(t *testing.T) {
		cfg := DefaultConfig()
		obs := &statsObserver{}
		cfg.Observer = obs
		res, err := Run(affineX1Dataset(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Generations != 1 || res.Evaluations != 2 || res.CacheMisses != 2 || res.Fitness > cfg.StopFitness {
			t.Fatalf("got %s; want 1 generation and 2 evaluations", resultJSON(t, res))
		}
		if got := res.Best.String(); got != "((0.7 * X1) + -40)" {
			t.Fatalf("best = %s", got)
		}
		if len(obs.stats) != 1 || obs.stats[0].Generation != 0 || obs.stats[0].Evaluations != 2 {
			t.Fatalf("observer saw %+v; want generation 0 after 2 evaluations", obs.stats)
		}
	})
	t.Run("outlier draws", func(t *testing.T) {
		// The two outliers fall in the trimmed 20%, so X0 meets the stop
		// on its trimmed MAE, but it misses both rows by 50. Neither does
		// the basis fit, so the draw scores the whole population, and X0
		// is a cache hit when a chunk repeats it.
		cfg := DefaultConfig()
		cfg.PopulationSize = 2 * initChunk
		res, err := Run(lineDataset(20, 37), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := 1 + basisSize(1) + cfg.PopulationSize; res.Generations != 1 || res.Evaluations != want || res.Fitness > cfg.StopFitness {
			t.Fatalf("got %s; want 1 generation and %d evaluations", resultJSON(t, res), want)
		}
	})
	t.Run("no early stop skips it", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.PopulationSize, cfg.Generations, cfg.StopFitness = initChunk, 1, -1
		obs := &statsObserver{}
		cfg.Observer = obs
		if _, err := Run(affineX1Dataset(), cfg); err != nil {
			t.Fatal(err)
		}
		if gs := obs.stats[0]; gs.Evaluations != initChunk {
			t.Fatalf("generation 0 after %d evaluations, want the %d drawn programs only", gs.Evaluations, initChunk)
		}
	})
	t.Run("deterministic", func(t *testing.T) {
		// A pre-check stop and a draw both match across concurrent runs.
		for _, c := range []struct {
			name string
			d    *Dataset
		}{{"affine", affineX1Dataset()}, {"outliers", lineDataset(20, 37)}} {
			cfg := DefaultConfig()
			cfg.PopulationSize = 2 * initChunk
			soloMatchesConcurrent(t, c.name, c.d, cfg)
		}
	})
}

// A multi-chunk initial population keeps the engine deterministic: the
// result is byte-identical whether the run is alone or one of several
// concurrent runs, as at any pipeline Parallelism. At seed 8 the ratio,
// which no program of the stop ladder fits, stops after three of its
// seven chunks; the outliers draw every chunk and stop, and the noisy
// target breeds after drawing every chunk.
func TestInitialChunksDeterministicAcrossParallelism(t *testing.T) {
	ratio := makeDataset(func(a, b float64) float64 { return 100 * a / b }, seq(0, 48, 8), seq(1, 31, 5))
	for _, c := range []struct {
		name string
		d    *Dataset
		gens int
	}{
		{"ratio", ratio, 30},
		{"outliers", lineDataset(3, 20, 37), 30},
		{"noisy", noisyDataset(), 2},
	} {
		cfg := DefaultConfig()
		cfg.Generations, cfg.Seed = c.gens, 8
		if res := soloMatchesConcurrent(t, c.name, c.d, cfg); res.Evaluations <= initChunk {
			t.Fatalf("%s: %d evaluations, want more than one chunk", c.name, res.Evaluations)
		}
	}
}
