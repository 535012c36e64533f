package gp

import (
	"fmt"
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

// The early stop within the initial population needs the champion to
// predict every row within 2·StopFitness, not only to meet the stop on
// its trimmed MAE. With three rows off the line, the first chunk's
// champion fits the other rows exactly, which meets the trimmed stop, but
// misses those three by 50, so the run draws its whole initial population.
// Without the outliers it stops after the first chunk.
func TestInitialStopNeedsEveryRow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PopulationSize = initChunk
	first, err := Run(lineDataset(3, 20, 37), cfg)
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
		{"clean", lineDataset(), initChunk},
		{"outliers", lineDataset(3, 20, 37), cfg.PopulationSize},
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

// A multi-chunk initial population keeps the engine deterministic: at 1
// and 4 islands the result is byte-identical at Parallelism 1 and 8. At
// seed 8 one island stops on the product after five of its seven chunks
// and four islands draw both of theirs; the outliers draw every round and
// stop, and the noisy target breeds after drawing every round.
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
		for _, islands := range []int{1, 4} {
			cfg := DefaultConfig()
			cfg.Generations, cfg.Seed, cfg.Islands = c.gens, 8, islands
			var want string
			for _, par := range []int{1, 8} {
				cfg.Parallelism = par
				res, err := Run(c.d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%s, islands %d, parallelism %d", c.name, islands, par)
				if res.Evaluations <= initChunk*islands {
					t.Fatalf("%s: %d evaluations, want more than one round of chunks", what, res.Evaluations)
				}
				got := resultJSON(t, res)
				if par == 1 {
					want = got
				} else if got != want {
					t.Fatalf("%s diverged:\n p=1: %s\n p=%d: %s", what, want, par, got)
				}
			}
		}
	}
}
