package gp

import "testing"

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

// planeDataset is y = 3·x0 − 2·x1 + 5 on a 7×7 grid, with 50 added to
// every row listed in outliers. No single variable fits it, so a run
// draws at least one chunk of its initial population.
func planeDataset(outliers ...int) *Dataset {
	d := makeDataset(func(a, b float64) float64 { return 3*a - 2*b + 5 }, seq(0, 48, 8), seq(0, 30, 5))
	for _, i := range outliers {
		d.Y[i] += 50
	}
	return d
}

// The early stop within the initial population needs the champion to
// predict every row within 2·StopFitness, not only to meet the stop on
// its trimmed MAE. With three rows off the plane, the first chunk's
// champion fits the other rows exactly, which meets the trimmed stop, but
// misses those three by 50, so the run draws its whole initial population.
// Without the outliers it stops after the first chunk. Both runs score
// the two single-variable programs first, and neither stops on them.
func TestInitialStopNeedsEveryRow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PopulationSize = initChunk
	first, err := Run(planeDataset(3, 20, 37), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Generations != 1 || first.Fitness > cfg.StopFitness {
		t.Fatalf("first chunk alone: %d generations, fitness %v; want it to meet the trimmed stop",
			first.Generations, first.Fitness)
	}
	cfg.PopulationSize = 2*initChunk + 50
	for _, c := range []struct {
		name  string
		d     *Dataset
		evals int
	}{
		{"clean", planeDataset(), 2 + initChunk},
		{"outliers", planeDataset(3, 20, 37), 2 + cfg.PopulationSize},
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
		// The outlier falls in the trimmed 20%, so X0 meets the stop on
		// its trimmed MAE, but it misses that row by 50. The draw then
		// scores the whole population, and X0 is a cache hit when a chunk
		// repeats it.
		cfg := DefaultConfig()
		cfg.PopulationSize = 2 * initChunk
		res, err := Run(lineDataset(20), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Generations != 1 || res.Evaluations != 1+cfg.PopulationSize || res.Fitness > cfg.StopFitness {
			t.Fatalf("got %s; want 1 generation and %d evaluations", resultJSON(t, res), 1+cfg.PopulationSize)
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
		}{{"affine", affineX1Dataset()}, {"outlier", lineDataset(20)}} {
			cfg := DefaultConfig()
			cfg.PopulationSize = 2 * initChunk
			soloMatchesConcurrent(t, c.name, c.d, cfg)
		}
	})
}

// A multi-chunk initial population keeps the engine deterministic: the
// result is byte-identical whether the run is alone or one of several
// concurrent runs, as at any pipeline Parallelism. At seed 8 the product
// stops after five of its seven chunks; the outliers draw every chunk and
// stop, and the noisy target breeds after drawing every chunk.
func TestInitialChunksDeterministicAcrossParallelism(t *testing.T) {
	product := makeDataset(func(a, b float64) float64 { return 0.001 * a * (b - 128) }, seq(0, 255, 17), seq(0, 255, 23))
	for _, c := range []struct {
		name string
		d    *Dataset
		gens int
	}{
		{"product", product, 30},
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
