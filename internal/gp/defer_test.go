package gp

import (
	"fmt"
	"math"
	"reflect"
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
	for _, k := range e.deferred {
		if _, ok := e.cache[e.missq[k].p.key]; ok {
			t.Fatalf("%s: deferred program %q is already cached", what, e.missq[k].p.key)
		}
	}
}

// scoredAlone scores t on e's dataset by itself: freshly compiled, on a
// fresh machine, without the cache or deferral.
func scoredAlone(e *evaluator, t *Node) individual {
	return e.scored(t, e.rawScore(Compile(t), t, NewMachine()), t.Size())
}

// checkFullyScored compares pop with each tree scored on its own, without
// the cache or deferral.
func checkFullyScored(t *testing.T, what string, isl *island) {
	t.Helper()
	ref := new(evaluator)
	ref.reset(isl.ev.d, isl.cfg)
	for i, got := range isl.pop {
		want := scoredAlone(ref, got.tree)
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
// Across random seeds and datasets, over several generations.
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
		seed := rng.Int63()
		cfg := DefaultConfig()
		cfg.PopulationSize, cfg.Seed = 120, seed
		isl := acquireIsland(d, cfg)
		drawAll(isl)
		for gen := 0; gen < 5; gen++ {
			what := fmt.Sprintf("dataset %d, seed %d, generation %d", di, seed, gen)
			if gen > 0 {
				isl.step()
			}
			before, beforeFit := firstBest(isl.pop)
			if len(isl.ev.deferred) > 0 {
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
	e.reset(d, cfg)
	defer e.release()
	hit := NewBinary(OpAdd, NewVar(0), NewConst(3))
	miss := NewBinary(OpSub, NewVar(0), NewConst(5))
	out := make([]individual, 2)
	e.scoreAll([]*Node{hit}, out[:1], 0, math.Inf(1))
	if out[0].raw != 0 {
		t.Fatalf("x+3 scores raw %v, want an exact 0", out[0].raw)
	}
	e.scoreAll([]*Node{miss, hit}, out, 0, math.Inf(1))
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
	isl := acquireIsland(d, cfg)
	defer isl.release()
	isl.drawChunk()
	if isl.best.raw > cfg.StopFitness {
		t.Fatalf("best raw %v, want convergence on the first chunk", isl.best.raw)
	}
	e := isl.ev
	if len(e.deferred) == 0 {
		t.Fatal("nothing deferred")
	}
	scored := e.misses - len(e.deferred)
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
	isl := acquireIsland(udsLikeDataset(), cfg)
	drawAll(isl)
	e := isl.ev
	if len(e.deferred) == 0 {
		t.Fatal("nothing deferred")
	}
	isl.release()
	if e.out != nil || len(e.deferred) != 0 || len(e.missq) != 0 || len(e.dupq) != 0 {
		t.Fatalf("released evaluator keeps deferred scoring: out %d, deferred %d, missq %d, dupq %d",
			len(e.out), len(e.deferred), len(e.missq), len(e.dupq))
	}
	if e.complete() {
		t.Fatal("complete scored something after release")
	}
}

// drawingIsland readies a run's island on d, released when the test
// ends.
func drawingIsland(t *testing.T, d *Dataset, cfg Config) *island {
	t.Helper()
	isl := acquireIsland(d, cfg)
	t.Cleanup(isl.release)
	return isl
}

// sameIndividual reports whether a and b are the same program with the
// same size and score bits.
func sameIndividual(a, b individual) bool {
	return reflect.DeepEqual(a.tree, b.tree) && a.size == b.size &&
		sameBits(a.raw, b.raw) && sameBits(a.fit, b.fit)
}

// checkSameIsland compares the lazy island's champion, population,
// fitness column, cache and counters with the eager one's, bit for bit.
func checkSameIsland(t *testing.T, what string, lazy, eager *island) {
	t.Helper()
	if !sameIndividual(lazy.best, eager.best) {
		t.Fatalf("%s: champion %+v, eager draw %+v", what, lazy.best, eager.best)
	}
	l, e := lazy.ev, eager.ev
	if l.evals != e.evals || l.hits != e.hits || l.misses != e.misses {
		t.Fatalf("%s: evals/hits/misses %d/%d/%d, eager draw %d/%d/%d",
			what, l.evals, l.hits, l.misses, e.evals, e.hits, e.misses)
	}
	if len(lazy.pop) != len(eager.pop) {
		t.Fatalf("%s: %d programs drawn, eager draw %d", what, len(lazy.pop), len(eager.pop))
	}
	if len(l.deferred) > 0 {
		return // the population holds placeholders until complete
	}
	for i := range lazy.pop {
		if !sameIndividual(lazy.pop[i], eager.pop[i]) || !sameBits(lazy.fits[i], eager.fits[i]) {
			t.Fatalf("%s: pop[%d] = %+v (fits %v), eager draw %+v (fits %v)",
				what, i, lazy.pop[i], lazy.fits[i], eager.pop[i], eager.fits[i])
		}
	}
	if len(l.cache) != len(e.cache) {
		t.Fatalf("%s: %d programs cached, eager draw %d", what, len(l.cache), len(e.cache))
	}
	for key, raw := range e.cache {
		if got, ok := l.cache[key]; !ok || !sameBits(got, raw) {
			t.Fatalf("%s: cache[%q] = %v (present %v), eager draw %v", what, key, got, ok, raw)
		}
	}
}

// Keeping deferred programs unscored across the chunks of an initial
// population must not change the draw. The reference scores every
// chunk's deferred programs before drawing the next, so a repeat of one
// is a cache hit. After every chunk both draws have the same champion and
// counters, and once completed the same population, fitness column and
// cache. Across datasets and seeds.
func TestCrossChunkDeferralMatchesEagerScoring(t *testing.T) {
	rng := newTestRNG(23)
	datasets := []*Dataset{
		udsLikeDataset(),
		islandTestDataset(),
		noisyDataset(),
		linearDataset(3, -7),
		randomEdgeDataset(rng, 40, 2),
	}
	carried := 0
	for di, d := range datasets {
		for range 2 {
			seed := rng.Int63()
			cfg := DefaultConfig()
			cfg.Seed = seed
			lazy := drawingIsland(t, d, cfg)
			eager := drawingIsland(t, d, cfg)
			for chunk := 0; len(lazy.pop) < len(lazy.pops[0]); chunk++ {
				if len(lazy.ev.deferred) > 0 {
					carried++
				}
				lazy.drawChunk()
				eager.complete()
				eager.drawChunk()
				what := fmt.Sprintf("dataset %d, seed %d, chunk %d", di, seed, chunk)
				checkSameIsland(t, what, lazy, eager)
			}
			lazy.complete()
			eager.complete()
			checkSameIsland(t, fmt.Sprintf("dataset %d, seed %d, completed", di, seed), lazy, eager)
		}
	}
	if carried == 0 {
		t.Fatal("no chunk started with deferred programs; the test exercises nothing")
	}
}

// A champion can meet StopFitness on its trimmed error yet miss two rows
// by far, so the run draws its whole initial population and stops at
// generation 0. Deferral then carries across all its chunks: fewer than
// half of the misses ever run the VM.
func TestFullDrawRunsFewerThanHalfOfMisses(t *testing.T) {
	d := linearDataset(2.5, 10)
	d.Y[7] += 500
	d.Y[40] += 500
	cfg := DefaultConfig()
	isl := drawingIsland(t, d, cfg)
	if _, stopped := stopLadder(isl, d.NumVars()); stopped {
		t.Fatal("the stop ladder fits all rows but one; an outlier is lost")
	}
	best := isl.drawInitial()
	e := isl.ev
	if len(isl.pop) != cfg.PopulationSize || best.raw > cfg.StopFitness {
		t.Fatalf("drew %d programs, best raw %v; want all %d and raw within %v",
			len(isl.pop), best.raw, cfg.PopulationSize, cfg.StopFitness)
	}
	ran := e.misses - len(e.deferred)
	if 2*ran >= e.misses {
		t.Fatalf("%d of %d misses ran the VM, want fewer than half", ran, e.misses)
	}
	t.Logf("%d of %d misses ran the VM", ran, e.misses)
	checkNoDeferredCached(t, "full draw", e)
	res, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != 1 || res.Evaluations < cfg.PopulationSize {
		t.Fatalf("run took %d generations and %d evaluations, want 1 and at least %d",
			res.Generations, res.Evaluations, cfg.PopulationSize)
	}
}

// A program deferred in one chunk rejoins the scored classes when a later
// chunk repeats it in fewer nodes: the repeat lowers its parsimony bound
// below the champion's fitness. Both occurrences are then scored, and
// nothing is left for complete.
func TestDeferredProgramRejoinsOnSmallerRepeat(t *testing.T) {
	d := &Dataset{}
	for x := 0.0; x < 20; x++ {
		d.X = append(d.X, []float64{x})
		d.Y = append(d.Y, x)
	}
	e := new(evaluator)
	e.reset(d, DefaultConfig())
	defer e.release()
	champ := NewBinary(OpAdd, NewBinary(OpMul, NewVar(0), NewConst(2)), NewConst(1))
	square := NewBinary(OpMul, NewVar(0), NewVar(0))
	big := NewBinary(OpAdd, square, NewBinary(OpAdd, NewConst(2), NewConst(3)))
	small := NewBinary(OpAdd, square, NewConst(5))
	trees := []*Node{champ, big, small}
	out := make([]individual, len(trees))
	e.scoreAll(trees[:2], out[:2], 0, math.Inf(1))
	if len(e.deferred) != 1 {
		t.Fatalf("first chunk defers %d programs, want %s alone", len(e.deferred), big)
	}
	e.scoreAll(trees, out, 2, out[0].fit)
	if len(e.deferred) != 0 || e.complete() {
		t.Fatalf("%d programs still deferred after %s repeated %s", len(e.deferred), small, big)
	}
	if e.misses != 2 || e.hits != 1 {
		t.Fatalf("misses/hits %d/%d, want 2/1", e.misses, e.hits)
	}
	for i, tr := range trees {
		want := scoredAlone(e, tr)
		if !sameIndividual(out[i], want) {
			t.Fatalf("out[%d] = %+v, scored alone %+v", i, out[i], want)
		}
	}
}
