package gp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func newTestRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// makeDataset samples f over a grid of (x0, x1) values.
func makeDataset(f func(x0, x1 float64) float64, x0s, x1s []float64) *Dataset {
	d := &Dataset{}
	for _, a := range x0s {
		for _, b := range x1s {
			d.X = append(d.X, []float64{a, b})
			d.Y = append(d.Y, f(a, b))
		}
	}
	return d
}

func seq(from, to, step float64) []float64 {
	var out []float64
	for v := from; v <= to; v += step {
		out = append(out, v)
	}
	return out
}

// smallConfig keeps unit tests fast; the benchmarks use DefaultConfig.
func smallConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.PopulationSize = 300
	cfg.Generations = 25
	cfg.Seed = seed
	return cfg
}

func TestDatasetValidate(t *testing.T) {
	var empty Dataset
	if err := empty.Validate(); !errors.Is(err, ErrEmptyDataset) {
		t.Fatalf("empty: %v", err)
	}
	bad := Dataset{X: [][]float64{{1}, {2}}, Y: []float64{1}}
	if err := bad.Validate(); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("length: %v", err)
	}
	ragged := Dataset{X: [][]float64{{1}, {2, 3}}, Y: []float64{1, 2}}
	if err := ragged.Validate(); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("ragged: %v", err)
	}
	ok := Dataset{X: [][]float64{{1, 2}}, Y: []float64{3}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	if ok.NumVars() != 2 {
		t.Fatalf("NumVars = %d", ok.NumVars())
	}
}

func TestMAE(t *testing.T) {
	d := &Dataset{X: [][]float64{{1}, {2}, {3}}, Y: []float64{2, 4, 6}}
	perfect := NewBinary(OpMul, NewVar(0), NewConst(2))
	if got := MAE(perfect, d); got != 0 {
		t.Fatalf("MAE of exact program = %v", got)
	}
	off := NewBinary(OpAdd, NewBinary(OpMul, NewVar(0), NewConst(2)), NewConst(1))
	if got := MAE(off, d); math.Abs(got-1) > 1e-12 {
		t.Fatalf("MAE of +1 program = %v", got)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run(&Dataset{}, DefaultConfig()); err == nil {
		t.Fatal("empty dataset accepted")
	}
	d := &Dataset{X: [][]float64{{1}}, Y: []float64{1}}
	cfg := DefaultConfig()
	cfg.PopulationSize = 1
	if _, err := Run(d, cfg); err == nil {
		t.Fatal("population 1 accepted")
	}
	cfg = DefaultConfig()
	cfg.Generations = 0
	if _, err := Run(d, cfg); err == nil {
		t.Fatal("0 generations accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	d := makeDataset(func(a, b float64) float64 { return a + b }, seq(0, 5, 1), seq(0, 5, 1))
	cfg := smallConfig(7)
	cfg.Generations = 5
	r1, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Best.String() != r2.Best.String() || r1.Fitness != r2.Fitness {
		t.Fatalf("same seed produced different results: %q vs %q", r1.Best, r2.Best)
	}
}

func TestRunRecoversLinearOneVar(t *testing.T) {
	// Y = 0.5*X — the Car L coolant-temperature shape from Table 7.
	d := makeDataset(func(a, _ float64) float64 { return 0.5 * a }, seq(100, 200, 2), []float64{0})
	res, err := Run(d, smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness > 0.5 {
		t.Fatalf("fitness = %v (best %q), want near-exact", res.Fitness, res.Best)
	}
}

func TestRunRecoversProductFormula(t *testing.T) {
	// Y = X0*X1/5 — the paper's KWP engine-speed formula, the shape linear
	// regression cannot express (§4.4).
	d := makeDataset(func(a, b float64) float64 { return a * b / 5 },
		seq(180, 250, 10), seq(5, 50, 3))
	res, err := Run(d, smallConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	// Accept near-equivalence over the sampled domain.
	truth := NewBinary(OpDiv, NewBinary(OpMul, NewVar(0), NewVar(1)), NewConst(5))
	if !EquivalentRel(res.Best, truth, d.X, 1.0, 0.02) {
		t.Fatalf("recovered %q with fitness %v, not equivalent to X0*X1/5", res.Best, res.Fitness)
	}
}

func TestRunEarlyStopOnExactFit(t *testing.T) {
	// Constant target: evolution should stop well before the budget.
	d := &Dataset{X: [][]float64{{1}, {2}, {3}, {4}}, Y: []float64{7, 7, 7, 7}}
	cfg := smallConfig(5)
	res, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations >= cfg.Generations {
		t.Fatalf("no early stop: ran %d generations, fitness %v", res.Generations, res.Fitness)
	}
	if res.Fitness > cfg.StopFitness {
		t.Fatalf("fitness = %v above stop threshold", res.Fitness)
	}
}

func TestRunCollapsesConstantVariable(t *testing.T) {
	// Paper §4.3 "Cause of inconsistency": when X0 never varies, the
	// inferred formula uses only X1. Y = X0*X1 with X0 pinned at 100 is
	// indistinguishable from Y = 100*X1 on the data.
	d := makeDataset(func(a, b float64) float64 { return 0.01 * a * b },
		[]float64{100}, seq(0, 120, 2))
	res, err := Run(d, smallConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness > 1.0 {
		t.Fatalf("fitness = %v (best %q)", res.Fitness, res.Best)
	}
	// The recovered program must match Y = X1 on the observed domain.
	truth := NewVar(1)
	if !EquivalentRel(res.Best, truth, d.X, 0.75, 0.02) {
		t.Fatalf("recovered %q, want something equivalent to X1", res.Best)
	}
}

func TestRunRobustToOutliers(t *testing.T) {
	// The paper's Table 10 rationale: GP tolerates OCR-corrupted samples
	// better than least squares. Plant 5% wild outliers and require the
	// recovered program to still match the clean truth.
	d := makeDataset(func(a, _ float64) float64 { return 2 * a }, seq(1, 100, 1), []float64{0})
	rng := newTestRNG(17)
	for i := 0; i < len(d.Y); i += 20 {
		d.Y[i] = rng.Float64() * 1000 // decimal-point-loss style corruption
	}
	res, err := Run(d, smallConfig(19))
	if err != nil {
		t.Fatal(err)
	}
	truth := NewBinary(OpMul, NewConst(2), NewVar(0))
	clean := makeDataset(func(a, _ float64) float64 { return 2 * a }, seq(1, 100, 7), []float64{0})
	if !EquivalentRel(res.Best, truth, clean.X, 2.0, 0.08) {
		t.Fatalf("outliers broke recovery: %q (fitness %v)", res.Best, res.Fitness)
	}
}

func TestRunEvaluationAccounting(t *testing.T) {
	d := &Dataset{X: [][]float64{{1}, {2}}, Y: []float64{1, 2}}
	cfg := smallConfig(23)
	cfg.Generations = 3
	cfg.StopFitness = -1 // never stop early
	res, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Initial population + (gens × (pop-1 offspring)) evaluations; the
	// elite is carried without re-scoring.
	want := cfg.PopulationSize + cfg.Generations*(cfg.PopulationSize-1)
	if res.Evaluations != want {
		t.Fatalf("Evaluations = %d, want %d", res.Evaluations, want)
	}
}

func TestRunDepthBounded(t *testing.T) {
	d := makeDataset(func(a, b float64) float64 { return a*b + math.Sqrt(a) }, seq(1, 20, 1), seq(1, 5, 1))
	cfg := smallConfig(29)
	cfg.Generations = 10
	res, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The materialised linear scaling (a*g+b) may wrap the evolved tree in
	// up to two extra levels.
	if res.Best.Depth() > maxDepth+2 {
		t.Fatalf("best depth %d exceeds bound %d (+2 scaling wrap)", res.Best.Depth(), maxDepth)
	}
}

func TestTournamentPicksFitter(t *testing.T) {
	fits := []float64{10, 1, 5}
	rng := newTestRNG(1)
	pick := newIntn(len(fits))
	wins := 0
	for i := 0; i < 200; i++ {
		if fits[tournament(fits, 3, &pick, rng)] == 1 {
			wins++
		}
	}
	// With k=3 over 3 individuals the best is picked unless never sampled;
	// expect a strong majority.
	if wins < 120 {
		t.Fatalf("fittest won only %d/200 tournaments", wins)
	}
}

func TestRampedHalfAndHalfShapes(t *testing.T) {
	gen := &generator{rng: newTestRNG(2), numVars: 2, funcs: FunctionSet, constMin: -1, constMax: 1}
	pop := make([]*Node, 100)
	gen.ramp(pop, 0, 6)
	maxDepth := 0
	for _, tr := range pop {
		if d := tr.Depth(); d > maxDepth {
			maxDepth = d
		}
		if tr.Depth() > 6 {
			t.Fatalf("initial tree depth %d exceeds ramp bound", tr.Depth())
		}
	}
	if maxDepth < 3 {
		t.Fatalf("ramp produced only shallow trees (max %d)", maxDepth)
	}
}

// statsObserver records every generation callback.
type statsObserver struct {
	stats []GenerationStats
}

func (o *statsObserver) Generation(gs GenerationStats) { o.stats = append(o.stats, gs) }

// The Observer contract: one callback per scored generation (the initial
// population counts as generation 0), cumulative monotone counters, a
// non-increasing best fitness, and a final snapshot that matches the
// Result counters exactly.
func TestRunObserverStats(t *testing.T) {
	d := makeDataset(func(x0, _ float64) float64 { return 3*x0 + 7 }, seq(0, 255, 8), []float64{0})
	cfg := smallConfig(9)
	cfg.Generations = 5
	cfg.StopFitness = -1 // never stop early: exactly Generations+1 callbacks
	obs := &statsObserver{}
	cfg.Observer = obs
	res, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.stats) != cfg.Generations+1 {
		t.Fatalf("%d callbacks, want %d", len(obs.stats), cfg.Generations+1)
	}
	for i, gs := range obs.stats {
		if gs.Generation != i {
			t.Fatalf("callback %d reports generation %d", i, gs.Generation)
		}
		if gs.Evaluations != gs.CacheHits+gs.CacheMisses {
			t.Fatalf("gen %d: %d evals != %d hits + %d misses",
				i, gs.Evaluations, gs.CacheHits, gs.CacheMisses)
		}
		if i == 0 {
			continue
		}
		prev := obs.stats[i-1]
		if gs.Evaluations < prev.Evaluations || gs.CacheHits < prev.CacheHits ||
			gs.CacheMisses < prev.CacheMisses {
			t.Fatalf("gen %d: counters went backwards (%+v after %+v)", i, gs, prev)
		}
		if gs.BestFitness > prev.BestFitness {
			t.Fatalf("gen %d: best fitness worsened: %v after %v",
				i, gs.BestFitness, prev.BestFitness)
		}
	}
	final := obs.stats[len(obs.stats)-1]
	if final.Evaluations != res.Evaluations || final.CacheHits != res.CacheHits ||
		final.CacheMisses != res.CacheMisses {
		t.Fatalf("final snapshot %+v does not match result counters %d/%d/%d",
			final, res.Evaluations, res.CacheHits, res.CacheMisses)
	}
}

// An observer must not perturb evolution: with and without one, the same
// seed yields the same formula and counters.
func TestRunObserverDoesNotAffectEvolution(t *testing.T) {
	d := makeDataset(func(x0, x1 float64) float64 { return x0/4 + x1 }, seq(0, 255, 16), seq(0, 64, 8))
	cfg := smallConfig(31)
	plain, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observer = &statsObserver{}
	observed, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Best.String() != observed.Best.String() ||
		plain.Fitness != observed.Fitness ||
		plain.Evaluations != observed.Evaluations ||
		plain.CacheHits != observed.CacheHits {
		t.Fatalf("observer changed the run: %v/%v vs %v/%v",
			plain.Best, plain.Evaluations, observed.Best, observed.Evaluations)
	}
}

// intn must reproduce rand.Intn draw for draw and leave the RNG in the
// same state. 1<<30+1 rejects about half its raw draws, exercising the
// rejection loop; the powers of two check fastmod against Int31n's mask.
func TestIntnMatchesRandIntn(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 150, 999, 1000, 1 << 20, 1<<30 + 1, 1<<31 - 1} {
		want, got := newTestRNG(int64(n)), newTestRNG(int64(n))
		pick := newIntn(n)
		for i := 0; i < 50000; i++ {
			if w, g := want.Intn(n), pick.draw(got); w != g {
				t.Fatalf("n=%d draw %d: got %d, rand.Intn gives %d", n, i, g, w)
			}
		}
		if want.Int63() != got.Int63() {
			t.Fatalf("n=%d: RNG state differs from rand.Intn's after the draws", n)
		}
	}
}

// A warmed-up generation step allocates nothing: breeding bump-allocates
// into recycled arenas, and scoring compiles into reused scratch. Each
// measured step starts from one restored state with the RNG reseeded, so
// after the first replays every child it breeds is a cache hit.
func TestStepAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PopulationSize = 200
	isl := acquireIsland(udsLikeDataset(), cfg)
	defer isl.release()
	drawAll(isl)
	for g := 0; g < 3; g++ {
		isl.step()
	}
	cur, best := isl.cur, isl.best
	fits := append([]float64(nil), isl.fits...)
	replay := func() {
		isl.rng.Seed(99)
		isl.cur, isl.pop, isl.best = cur, isl.pops[cur], best
		copy(isl.fits, fits)
		isl.step()
	}
	replay()
	replay()
	if allocs := testing.AllocsPerRun(20, replay); allocs != 0 {
		t.Fatalf("warmed-up step allocates %v times", allocs)
	}
}

// drawAll draws and scores the island's whole initial population.
func drawAll(isl *island) {
	for len(isl.pop) < len(isl.pops[isl.cur]) {
		isl.drawChunk()
	}
}

// linearDataset is y = slope*x + icept on 64 points: linear scaling fits
// it at generation 0 up to rounding.
func linearDataset(slope, icept float64) *Dataset {
	d := &Dataset{}
	for x := 0.0; x < 64; x++ {
		d.X = append(d.X, []float64{x, math.Mod(x*5, 17)})
		d.Y = append(d.Y, slope*x+icept)
	}
	return d
}

// checkScoredAlone compares the island's population with each tree
// scored on its own: freshly compiled, on a fresh machine and evaluator,
// without the cache.
func checkScoredAlone(t *testing.T, what string, isl *island) {
	t.Helper()
	ref := new(evaluator)
	ref.reset(isl.ev.d, isl.cfg)
	for i, got := range isl.pop {
		want := ref.scored(got.tree, ref.rawScore(Compile(got.tree), got.tree, NewMachine()), got.tree.Size())
		same := got.size == want.size && sameBits(got.raw, want.raw) && sameBits(got.fit, want.fit)
		if !same {
			t.Fatalf("%s: pop[%d] = %+v, scored alone %+v", what, i, got, want)
		}
		if !sameBits(isl.fits[i], got.fit) {
			t.Fatalf("%s: fits[%d] = %v, pop[%d].fit = %v", what, i, isl.fits[i], i, got.fit)
		}
	}
}

// The fitness cache never changes a score: after the initial draw and
// after each of several generations, every population slot equals its
// tree scored alone, bit for bit. Across random seeds and datasets.
func TestCachedScoresMatchScoringAlone(t *testing.T) {
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
	hits := 0
	for di, d := range datasets {
		seed := rng.Int63()
		cfg := DefaultConfig()
		cfg.PopulationSize, cfg.Seed = 120, seed
		isl := acquireIsland(d, cfg)
		drawAll(isl)
		for gen := 0; gen < 5; gen++ {
			if gen > 0 {
				isl.step()
			}
			checkScoredAlone(t, fmt.Sprintf("dataset %d, seed %d, generation %d", di, seed, gen), isl)
		}
		hits += isl.ev.hits
		isl.release()
	}
	if hits == 0 {
		t.Fatal("no program was served from the cache; the test exercises nothing")
	}
}

// drawWhole draws the island's whole initial population in one ramp and
// scores it with one scoreAll call.
func drawWhole(isl *island) {
	pop := isl.pops[isl.cur]
	isl.rng.Seed(isl.seed)
	isl.gen.arena = isl.arenas[isl.cur]
	isl.gen.ramp(isl.children, 0, maxDepth/2)
	isl.ev.scoreAll(isl.children, pop)
	isl.pop = pop
	for i := range pop {
		isl.fits[i] = pop[i].fit
	}
	isl.best = bestOf(pop)
	isl.best.tree = isl.best.tree.Clone()
}

// sameIndividual reports whether a and b are the same program with the
// same size and score bits.
func sameIndividual(a, b individual) bool {
	return reflect.DeepEqual(a.tree, b.tree) && a.size == b.size &&
		sameBits(a.raw, b.raw) && sameBits(a.fit, b.fit)
}

// Drawing the initial population in initChunk pieces leaves the same
// population, fitness column, champion, counters and cache as drawing and
// scoring it whole. Across datasets and seeds.
func TestChunkedDrawMatchesWholeDraw(t *testing.T) {
	rng := newTestRNG(23)
	datasets := []*Dataset{
		udsLikeDataset(),
		islandTestDataset(),
		noisyDataset(),
		linearDataset(3, -7),
		randomEdgeDataset(rng, 40, 2),
	}
	for di, d := range datasets {
		for range 2 {
			seed := rng.Int63()
			cfg := DefaultConfig()
			cfg.Seed = seed
			what := fmt.Sprintf("dataset %d, seed %d", di, seed)
			chunked := acquireIsland(d, cfg)
			drawAll(chunked)
			whole := acquireIsland(d, cfg)
			drawWhole(whole)
			if !sameIndividual(chunked.best, whole.best) {
				t.Fatalf("%s: champion %+v, whole draw %+v", what, chunked.best, whole.best)
			}
			c, w := chunked.ev, whole.ev
			if c.evals != w.evals || c.hits != w.hits || c.misses != w.misses {
				t.Fatalf("%s: evals/hits/misses %d/%d/%d, whole draw %d/%d/%d",
					what, c.evals, c.hits, c.misses, w.evals, w.hits, w.misses)
			}
			if len(chunked.pop) != len(whole.pop) {
				t.Fatalf("%s: %d programs drawn, whole draw %d", what, len(chunked.pop), len(whole.pop))
			}
			for i := range chunked.pop {
				if !sameIndividual(chunked.pop[i], whole.pop[i]) || !sameBits(chunked.fits[i], whole.fits[i]) {
					t.Fatalf("%s: pop[%d] = %+v (fits %v), whole draw %+v (fits %v)",
						what, i, chunked.pop[i], chunked.fits[i], whole.pop[i], whole.fits[i])
				}
			}
			if len(c.cache) != len(w.cache) {
				t.Fatalf("%s: %d programs cached, whole draw %d", what, len(c.cache), len(w.cache))
			}
			for key, raw := range w.cache {
				if got, ok := c.cache[key]; !ok || !sameBits(got, raw) {
					t.Fatalf("%s: cache[%q] = %v (present %v), whole draw %v", what, key, got, ok, raw)
				}
			}
			chunked.release()
			whole.release()
		}
	}
}
