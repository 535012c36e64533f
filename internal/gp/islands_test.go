package gp

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func islandTestDataset() *Dataset {
	// Y = (256*hi + lo) / 4 — the OBD engine-RPM codec shape, small enough
	// to keep the runs cheap.
	d := &Dataset{}
	for hi := 0.0; hi <= 32; hi += 8 {
		for lo := 0.0; lo <= 255; lo += 64 {
			d.X = append(d.X, []float64{hi, lo})
			d.Y = append(d.Y, (256*hi+lo)/4)
		}
	}
	return d
}

func islandConfig() Config {
	cfg := DefaultConfig()
	cfg.PopulationSize = 120
	cfg.Generations = 8
	cfg.StopFitness = -1 // never stop early: every generation runs
	cfg.Seed = 7
	return cfg
}

// resultJSON renders the parts of a Result that must be byte-identical
// across repeated runs.
func resultJSON(t *testing.T, res Result) string {
	t.Helper()
	blob, err := json.Marshal(struct {
		Best        string
		Fitness     float64
		Generations int
		Evaluations int
		CacheHits   int
		CacheMisses int
	}{res.Best.String(), res.Fitness, res.Generations, res.Evaluations, res.CacheHits, res.CacheMisses})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// soloMatchesConcurrent runs cfg on d alone, then twice at once on two
// goroutines that share the island pool, as the pipeline's stream
// workers do. It fails unless all three serialized results agree, and
// returns the solo run's.
func soloMatchesConcurrent(t *testing.T, what string, d *Dataset, cfg Config) Result {
	t.Helper()
	solo, err := Run(d, cfg)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want := resultJSON(t, solo)
	var results [2]Result
	var errs [2]error
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = Run(d, cfg)
		}(g)
	}
	wg.Wait()
	for g, res := range results {
		if errs[g] != nil {
			t.Fatalf("%s, concurrent run %d: %v", what, g, errs[g])
		}
		if got := resultJSON(t, res); got != want {
			t.Fatalf("%s: concurrent run %d diverged:\n solo: %s\n now:  %s", what, g, want, got)
		}
	}
	return solo
}

// TestIslandsDeterministicAcrossParallelism pins the engine's core
// invariant: the serialized Result of a run that breeds every generation
// is byte-identical whether the run is alone or one of several
// concurrent runs, as at any pipeline Parallelism.
func TestIslandsDeterministicAcrossParallelism(t *testing.T) {
	soloMatchesConcurrent(t, "rpm", islandTestDataset(), islandConfig())
}

// TestIslandsObserverCounters checks the per-generation telemetry:
// counters are cumulative and stay consistent (Evaluations == CacheHits
// + CacheMisses, monotone), and the final snapshot matches the Result
// exactly.
func TestIslandsObserverCounters(t *testing.T) {
	d := islandTestDataset()
	cfg := islandConfig()
	obs := &statsObserver{}
	cfg.Observer = obs
	res, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snaps := obs.stats
	if len(snaps) != cfg.Generations+1 {
		t.Fatalf("got %d snapshots, want %d", len(snaps), cfg.Generations+1)
	}
	prev := GenerationStats{BestFitness: math.Inf(1)}
	for i, gs := range snaps {
		if gs.Generation != i {
			t.Fatalf("snapshot %d has generation %d", i, gs.Generation)
		}
		if gs.Evaluations != gs.CacheHits+gs.CacheMisses {
			t.Fatalf("gen %d: evals %d != hits %d + misses %d", i, gs.Evaluations, gs.CacheHits, gs.CacheMisses)
		}
		if gs.Evaluations < prev.Evaluations || gs.BestFitness > prev.BestFitness {
			t.Fatalf("gen %d: counters regressed: %+v after %+v", i, gs, prev)
		}
		prev = gs
	}
	last := snaps[len(snaps)-1]
	if last.Evaluations != res.Evaluations || last.CacheHits != res.CacheHits || last.CacheMisses != res.CacheMisses {
		t.Fatalf("final snapshot %+v does not match result %+v", last, res)
	}
}
