package gp

import (
	"fmt"
	"math"
	"testing"
)

// drawAll draws and scores the island's whole initial population.
func drawAll(isl *island) {
	for len(isl.pop) < len(isl.pops[isl.cur]) {
		isl.drawChunk()
	}
}

// firstBest returns the index and fitness bestOf picks: the first of the
// lowest fits.
func firstBest(pop []individual) (int, float64) {
	best := 0
	for i := range pop {
		if pop[i].fit < pop[best].fit {
			best = i
		}
	}
	return best, pop[best].fit
}

// checkNoDeferredCached fails if a deferred miss's score reached the
// cache before complete ran.
func checkNoDeferredCached(t *testing.T, what string, e *evaluator) {
	t.Helper()
	for _, k := range e.order[e.deferFrom:] {
		if _, ok := e.cache[e.missq[k].p.key]; ok {
			t.Fatalf("%s: deferred program %q is already cached", what, e.missq[k].p.key)
		}
	}
}

// checkFullyScored compares pop with each tree scored on its own, without
// the cache or deferral.
func checkFullyScored(t *testing.T, what string, isl *island) {
	t.Helper()
	ref := new(evaluator)
	ref.reset(isl.ev.d, isl.cfg, 1)
	m := NewMachine()
	for i, got := range isl.pop {
		want := ref.scoreOne(Compile(got.tree), got.tree, m, got.tree.Size())
		same := got.size == want.size && sameBits(got.raw, want.raw) && sameBits(got.fit, want.fit)
		if !same {
			t.Fatalf("%s: pop[%d] = %+v, scored alone %+v", what, i, got, want)
		}
		if !sameBits(isl.fits[i], got.fit) {
			t.Fatalf("%s: fits[%d] = %v, pop[%d].fit = %v", what, i, isl.fits[i], i, got.fit)
		}
	}
}

// linearDataset is y = slope*x + icept on 64 points: linear scaling fits
// it at generation 0 up to rounding, so most scoring can be deferred.
func linearDataset(slope, icept float64) *Dataset {
	d := &Dataset{}
	for x := 0.0; x < 64; x++ {
		d.X = append(d.X, []float64{x, math.Mod(x*5, 17)})
		d.Y = append(d.Y, slope*x+icept)
	}
	return d
}

// Deferral must never change what the engine sees: before complete, the
// generation's best is the same individual with the same fitness bits as
// after it, and after complete the population equals one fully scored.
// Across random seeds and datasets, over several generations and at two
// worker counts.
func TestDeferralPreservesBestAndPopulation(t *testing.T) {
	rng := newTestRNG(99)
	datasets := []*Dataset{
		udsLikeDataset(),
		islandTestDataset(),
		noisyDataset(),
		randomEdgeDataset(rng, 40, 2),
	}
	for i := 0; i < 4; i++ {
		datasets = append(datasets, linearDataset(rng.NormFloat64()*5, rng.NormFloat64()*50))
	}
	deferred := 0
	for di, d := range datasets {
		for _, workers := range []int{1, 3} {
			seed := rng.Int63()
			cfg := DefaultConfig()
			cfg.PopulationSize = 120
			isl := acquireIsland(d, cfg, cfg.PopulationSize, seed, workers)
			drawAll(isl)
			for gen := 0; gen < 5; gen++ {
				what := fmt.Sprintf("dataset %d, workers %d, seed %d, generation %d", di, workers, seed, gen)
				if gen > 0 {
					isl.step()
				}
				before, beforeFit := firstBest(isl.pop)
				if isl.ev.dout != nil {
					deferred++
					checkNoDeferredCached(t, what, isl.ev)
				}
				isl.complete()
				after, afterFit := firstBest(isl.pop)
				if before != after || !sameBits(beforeFit, afterFit) {
					t.Fatalf("%s: best was pop[%d] (fit %v) before complete, pop[%d] (fit %v) after",
						what, before, beforeFit, after, afterFit)
				}
				checkFullyScored(t, what, isl)
			}
			isl.release()
		}
	}
	if deferred == 0 {
		t.Fatal("no generation deferred any scoring; the test exercises nothing")
	}
}

// A deferred tree whose fitness would tie the best must not be deferred:
// bestOf keeps the first of equal fits, so the tie decides the winner.
// Here a fresh miss at index 0 ties an exact cache hit at index 1.
func TestDeferralKeepsTiesScored(t *testing.T) {
	d := &Dataset{}
	for x := 0.0; x < 20; x++ {
		d.X = append(d.X, []float64{x})
		d.Y = append(d.Y, x)
	}
	cfg := DefaultConfig()
	e := new(evaluator)
	e.reset(d, cfg, 1)
	defer e.release()
	hit := NewBinary(OpAdd, NewVar(0), NewConst(3))
	miss := NewBinary(OpSub, NewVar(0), NewConst(5))
	out := make([]individual, 2)
	e.scoreAll([]*Node{hit}, out[:1], math.Inf(1))
	if out[0].raw != 0 {
		t.Fatalf("x+3 scores raw %v, want an exact 0", out[0].raw)
	}
	e.scoreAll([]*Node{miss, hit}, out, math.Inf(1))
	before, _ := firstBest(out)
	e.complete()
	if out[0].fit != out[1].fit {
		t.Fatalf("fits %v and %v do not tie", out[0].fit, out[1].fit)
	}
	if after, _ := firstBest(out); before != 0 || after != 0 {
		t.Fatalf("best is pop[%d] before complete and pop[%d] after, want pop[0] both", before, after)
	}
}

// On a dataset that converges on the first chunk of its initial
// population, the parsimony bound rules out most of that chunk: fewer than
// half of the misses run the VM before the run would stop.
func TestDeferralSkipsMostMissesAtConvergence(t *testing.T) {
	d := udsLikeDataset()
	cfg := DefaultConfig()
	isl := acquireIsland(d, cfg, cfg.PopulationSize, cfg.Seed, 1)
	defer isl.release()
	isl.drawChunk()
	if isl.best.raw > cfg.StopFitness {
		t.Fatalf("best raw %v, want convergence on the first chunk", isl.best.raw)
	}
	e := isl.ev
	if e.dout == nil {
		t.Fatal("nothing deferred")
	}
	scored := e.deferFrom
	if 2*scored >= e.misses {
		t.Fatalf("%d of %d misses ran the VM, want fewer than half", scored, e.misses)
	}
	checkNoDeferredCached(t, "generation 0", e)
}

// release must leave nothing of a run's deferred scoring in the pooled
// evaluator.
func TestReleaseDropsDeferredScoring(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PopulationSize = 200
	isl := acquireIsland(udsLikeDataset(), cfg, cfg.PopulationSize, 1, 1)
	drawAll(isl)
	e := isl.ev
	if e.dout == nil {
		t.Fatal("nothing deferred")
	}
	isl.release()
	if e.dout != nil || len(e.missq) != 0 || len(e.dupq) != 0 {
		t.Fatalf("released evaluator keeps deferred scoring: dout %d, missq %d, dupq %d",
			len(e.dout), len(e.missq), len(e.dupq))
	}
	if e.complete() {
		t.Fatal("complete scored something after release")
	}
}

// migrate reads every destination's worst slot from the whole
// population, so it must complete deferred scoring first: afterwards no
// island holds a placeholder and each one has its ring neighbour's
// champion.
func TestMigrateCompletesDeferredScoring(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PopulationSize = 240
	islands := make([]*island, 4)
	for i := range islands {
		islands[i] = acquireIsland(udsLikeDataset(), cfg, cfg.PopulationSize/4, islandSeed(1, i), 1)
		defer islands[i].release()
	}
	stepAll(islands, drawAll)
	stepAll(islands, (*island).step)
	deferred := 0
	for _, isl := range islands {
		if isl.ev.dout != nil {
			deferred++
		}
	}
	if deferred == 0 {
		t.Fatal("no island deferred any scoring; the test exercises nothing")
	}
	migrants := make([]individual, len(islands))
	for i, isl := range islands {
		migrants[i] = isl.best
	}
	migrate(islands)
	for i, isl := range islands {
		what := fmt.Sprintf("island %d after migration", i)
		if isl.ev.dout != nil {
			t.Fatalf("%s: scoring still deferred", what)
		}
		checkFullyScored(t, what, isl)
		m := migrants[(i+len(islands)-1)%len(islands)]
		found := false
		for _, ind := range isl.pop {
			found = found || (ind.tree.String() == m.tree.String() && sameBits(ind.fit, m.fit))
		}
		if !found {
			t.Fatalf("%s: migrant %s is missing", what, m.tree)
		}
	}
}
