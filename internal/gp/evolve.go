package gp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
)

// Dataset is the (X, Y) sample set the paper's Step 1 constructs: each row
// pairs the variables extracted from one response message with the value
// the diagnostic tool displayed.
type Dataset struct {
	// X holds one row per sample; all rows must share a width (the number
	// of variables).
	X [][]float64
	// Y holds the target value per sample.
	Y []float64
	// HalfStep is half the step Y was displayed with, in Y's units, or 0
	// when the step is unknown. The stop test refits a champion for the
	// least maximum residual only against a known step (see
	// evaluator.stops).
	HalfStep float64
}

// NumVars reports the variable count (0 for an empty dataset).
func (d *Dataset) NumVars() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Validate checks shape invariants.
func (d *Dataset) Validate() error {
	if len(d.X) == 0 {
		return ErrEmptyDataset
	}
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("%w: %d X rows, %d Y values", ErrShapeMismatch, len(d.X), len(d.Y))
	}
	w := len(d.X[0])
	for i, row := range d.X {
		if len(row) != w {
			return fmt.Errorf("%w: row %d has width %d, want %d", ErrShapeMismatch, i, len(row), w)
		}
	}
	return nil
}

// Package errors.
var (
	ErrEmptyDataset  = errors.New("gp: empty dataset")
	ErrShapeMismatch = errors.New("gp: dataset shape mismatch")
)

// Fixed evolution settings (gplearn's defaults, which the paper keeps):
// tournament size, the range of ephemeral random constants, the depth
// budget trees are cut to after variation, the parsimony penalty per node
// (discouraging bloat without distorting the MAE scale much), and the
// probabilities of the variation operators, whose remainder reproduces a
// parent unchanged. Every run uses the full 14-entry FunctionSet.
const (
	tournamentSize = 20
	ercMin, ercMax = -10, 10
	maxDepth       = 8
	parsimonyCoeff = 0.001
)

// The operator probabilities are typed so that their running sums, the
// upper edges of the operators' bands in vary, round like float64
// additions.
const (
	crossoverProb  float64 = 0.65
	subtreeMutProb float64 = 0.15
	pointMutProb   float64 = 0.1
	hoistMutProb   float64 = 0.05
)

// Config tunes the evolution. The zero value is unusable; call
// DefaultConfig for the paper's settings.
type Config struct {
	// PopulationSize is the number of programs per generation (paper: 1000).
	PopulationSize int
	// Generations is the evolution budget (paper: 30).
	Generations int
	// StopFitness halts evolution early once the best program's raw MAE
	// falls below it — the paper's second stopping criterion.
	StopFitness float64
	// DisableLinearScaling turns off the least-squares fit of candidate
	// programs. By default every candidate g is evaluated as a*g(x)+b
	// with (a, b) fitted by trimmed least squares (Keijzer-style linear
	// scaling), or, when g's root is a +/− chain of up to four terms and
	// that scores better, as c0 + Σ ci·ti(x) over its terms, so evolution
	// searches for the *shape* of the formula while scale, offset and
	// term weights are solved analytically — which is also what makes the
	// engine robust to the magnitude issues the paper's Table 2
	// pre-scaling addresses.
	DisableLinearScaling bool
	// Observer, when non-nil, receives one GenerationStats per scored
	// generation (including the initial population as generation 0). It is
	// called on the run's goroutine between generations, and it cannot
	// influence evolution: the call sites touch no RNG and results are
	// byte-identical with or without an observer.
	Observer Observer
	// Seed drives the deterministic RNG.
	Seed int64
}

// Observer receives per-generation progress from a running evolution —
// the telemetry layer's window into the engine.
type Observer interface {
	Generation(GenerationStats)
}

// GenerationStats is one generation's snapshot. The counters are
// cumulative for the run, so the final snapshot matches the Result
// counters exactly.
type GenerationStats struct {
	// Generation is the scored generation index; 0 is the initial random
	// population.
	Generation int
	// BestFitness is the best raw (trimmed, post-scaling) MAE so far.
	BestFitness float64
	// Evaluations/CacheHits/CacheMisses are the run's cumulative scoring
	// counters after this generation (Evaluations = CacheHits + CacheMisses).
	Evaluations, CacheHits, CacheMisses int
}

// DefaultConfig returns the paper's published settings: 1000 programs, 30
// generations, MAE fitness with a small stop threshold.
func DefaultConfig() Config {
	return Config{
		PopulationSize: 1000,
		Generations:    30,
		StopFitness:    0.01,
		Seed:           1,
	}
}

// Result reports the outcome of a Run.
type Result struct {
	// Best is the fittest program found (simplified).
	Best *Node
	// Fitness is Best's raw mean absolute error on the dataset.
	Fitness float64
	// Generations is how many generations actually ran (early stop shows
	// here).
	Generations int
	// Evaluations counts fitness evaluations requested; it always equals
	// CacheHits + CacheMisses.
	Evaluations int
	// CacheHits counts evaluations served by the cross-generation fitness
	// cache: structurally identical trees (which crossover and elitism
	// re-create constantly) share one compiled program and one score.
	CacheHits int
	// CacheMisses counts evaluations the cache could not serve: the first
	// occurrence in the run of a structure. Every miss runs the compiled
	// VM once.
	CacheMisses int
}

type individual struct {
	tree *Node
	// size caches tree.Size(): the compiler counts nodes during emit, and
	// the variation operators draw subtree indices from the stored size,
	// so the engine never walks a tree just to count it.
	size int
	// raw is the MAE of the program's least-squares fit (see rawScore);
	// fit adds the parsimony penalty. The fit's coefficients are a pure
	// function of the program, so only the champion's are ever
	// recomputed: for the early-stop check and at the end of the run.
	raw float64
	fit float64
}

// siftDownMin restores the min-heap property of h below index i.
//
//dplint:hotpath gp-score
func siftDownMin(h []float64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r] < h[c] {
			c = r
		}
		if h[c] >= h[i] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// siftDownPair is siftDownMin over parallel value/index arrays.
//
//dplint:hotpath gp-score
func siftDownPair(h []float64, idx []int, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r] < h[c] {
			c = r
		}
		if h[c] >= h[i] {
			return
		}
		h[i], h[c] = h[c], h[i]
		idx[i], idx[c] = idx[c], idx[i]
		i = c
	}
}

// strideFor returns a step size coprime with n, used to visit indices
// 0, s, 2s, ... (mod n) -- a fixed pseudo-shuffle of the sample order.
// The trim helpers keep a min-heap of the largest residuals seen so far;
// visiting samples in index order degrades that into an eviction per
// element whenever residuals trend with the target, which is the common
// profile for poorly fitted candidates since datasets arrive sorted. The
// shuffled order restores the expected ~k*ln(n/k) evictions, and being a
// pure function of n it is fully deterministic.
func strideFor(n int) int {
	if n < 4 {
		return 1
	}
	s := n*2/3 | 1
	for s < n && gcd(s, n) > 1 {
		s += 2
	}
	if s >= n {
		return 1
	}
	return s
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// trimmedMean averages residuals after dropping the worst 20% -- the same
// trimming linearScale applies, so structure selection cannot profit from
// spiking through OCR-corrupted samples. Small samples (< 10) are averaged
// untrimmed. The prefix resids[:n/5] is clobbered in place: it becomes a
// min-heap of the largest residuals seen so far, every element the heap
// evicts is kept, and whatever remains in the heap at the end is the
// dropped 20%. The kept multiset (and hence the mean) is exactly the keep
// smallest residuals, fully deterministically, in a single pass.
//
//dplint:hotpath gp-score
func trimmedMean(resids []float64) float64 {
	if len(resids) == 0 {
		return math.Inf(1)
	}
	n := len(resids)
	if n < 10 {
		sum := 0.0
		for _, r := range resids {
			sum += r
		}
		return sum / float64(n)
	}
	keep := n * 4 / 5
	h := resids[:n-keep]
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownMin(h, i)
	}
	sum := 0.0
	for _, x := range resids[len(h):] {
		if x > h[0] {
			sum += h[0]
			h[0] = x
			siftDownMin(h, 0)
		} else {
			sum += x
		}
	}
	return sum / float64(keep)
}

// evaluator scores program trees on one dataset through the compiled
// engine. Each tree is compiled to postfix bytecode; the fitness cache —
// keyed on the program's canonical structural encoding — serves repeat
// structures across generations, and every cache miss runs the VM once,
// on the evaluator's one machine, when it is compiled.
type evaluator struct {
	d     *Dataset
	batch *Batch
	cfg   Config
	// m is the VM scratch, reused across generations and runs.
	m *Machine
	// comp is the compile scratch: trees compile into reusable buffers,
	// and a miss is scored straight from them, so cache hits cost zero
	// allocations and a miss allocates only its interned key.
	comp *Compiler
	// cache maps a program's canonical key to its raw fitness across
	// generations. Raw fitness is a pure function of the program, so
	// entries never invalidate; fit is recomputed per tree because the
	// parsimony penalty depends on the (unfolded) tree size. cached lists
	// the keys this run inserted, which release deletes.
	cache  map[string]float64
	cached []string
	// evals/hits/misses count scoring requests (evals == hits+misses).
	evals, hits, misses int
	// distinct is the dataset's count of distinct X rows, and rows the
	// scratch that counts them.
	distinct int
	rows     []int32
	// minimax is set while the champion stops on its minimax refit, so
	// that materialise writes the refitted coefficients.
	minimax bool
}

// reset readies e to score on d, keeping its buffers, machine and map
// storage from earlier runs.
func (e *evaluator) reset(d *Dataset, cfg Config) {
	e.d, e.cfg = d, cfg
	if e.batch == nil {
		e.batch = NewBatch(d)
	} else {
		e.batch.reset(d)
	}
	if e.m == nil {
		e.m = NewMachine()
	}
	if e.comp == nil {
		e.comp = NewCompiler()
	}
	if e.cache == nil {
		e.cache = make(map[string]float64)
	}
	e.evals, e.hits, e.misses = 0, 0, 0
	e.minimax = false
	e.distinct = e.countDistinct()
}

// release ends e's run. It empties the fitness cache, whose keys are
// program structures that score differently on another dataset, by
// deleting the keys the run inserted: the map keeps the buckets the
// pool's largest run grew, and clearing them all would cost every later
// run as much. It also drops e's references to the run's dataset and
// configuration, so a pooled evaluator keeps neither alive.
func (e *evaluator) release() {
	for _, k := range e.cached {
		delete(e.cache, k)
	}
	clear(e.cached)
	e.cached = e.cached[:0]
	e.d, e.cfg = nil, Config{}
	e.batch.y = nil
}

// scored builds the individual for tree t (of the given node count) with
// raw fitness raw. Only the parsimony term depends on the tree itself.
func (e *evaluator) scored(t *Node, raw float64, size int) individual {
	return individual{tree: t, size: size, raw: raw, fit: raw + parsimonyCoeff*float64(size)}
}

// scoreAll evaluates trees[i] into out[i]. A tree whose structure was
// scored before — earlier in this call or in any earlier one of the run —
// is served from the cache; the rest run the VM straight from the
// compiler's scratch. The cache lookup converts the scratch key without
// allocating; only a miss interns its key.
func (e *evaluator) scoreAll(trees []*Node, out []individual) {
	e.evals += len(trees)
	for i, t := range trees {
		e.comp.compile(t)
		size := e.comp.nodes
		if raw, ok := e.cache[string(e.comp.key)]; ok {
			e.hits++
			out[i] = e.scored(t, raw, size)
			continue
		}
		e.misses++
		p := Program{code: e.comp.code, depth: stackDepth(e.comp.code)}
		out[i] = e.scored(t, e.rawScore(&p, t, e.m), size)
		key := string(e.comp.key)
		e.cache[key] = out[i].raw
		e.cached = append(e.cached, key)
	}
}

// Run evolves a formula for the dataset.
func Run(d *Dataset, cfg Config) (Result, error) {
	return RunContext(context.Background(), d, cfg)
}

// RunContext evolves a formula for the dataset, checking ctx between
// generations: cancellation aborts the evolution and returns ctx.Err().
func RunContext(ctx context.Context, d *Dataset, cfg Config) (Result, error) {
	if err := d.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.PopulationSize < 2 {
		return Result{}, fmt.Errorf("gp: population size %d too small", cfg.PopulationSize)
	}
	if cfg.Generations < 1 {
		return Result{}, fmt.Errorf("gp: generations %d too small", cfg.Generations)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	isl := acquireIsland(d, cfg)
	defer isl.release()
	ev := isl.ev
	best, stopped := stopLadder(isl, d.NumVars())
	if !stopped {
		best = isl.drawInitial()
	}
	observe(cfg.Observer, 0, best, ev)

	gens := 0
	for g := 0; g < cfg.Generations; g++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		gens = g + 1
		if best.raw <= cfg.StopFitness {
			break
		}
		isl.step()
		best = isl.best
		observe(cfg.Observer, gens, best, ev)
	}
	final := ev.materialise(best.tree)
	if ev.minimax {
		best.raw = ev.robustMAE(final)
	}
	simplified := Simplify(final)
	// Simplification must never change semantics; keep the simplified form
	// unless its error regressed (guards protected-op edge cases). A NaN
	// score keeps it too.
	if !(ev.robustMAE(simplified) > best.raw+1e-9) {
		final = simplified
	}
	return Result{
		Best: final, Fitness: best.raw, Generations: gens, Evaluations: ev.evals,
		CacheHits: ev.hits, CacheMisses: ev.misses,
	}, nil
}

// island is a run's one breeding population with its RNG, generator,
// evaluator (and fitness cache), ping-ponging arenas and population
// buffers.
type island struct {
	cfg Config
	// rng is seeded from seed when the island draws its first program:
	// most runs stop on the stop ladder and never draw, and seeding
	// fills the source's whole state table.
	rng      *rand.Rand
	seed     int64
	gen      *generator
	ev       *evaluator
	arenas   [2]*nodeArena
	cur      int
	pops     [2][]individual
	pop      []individual
	fits     []float64
	children []*Node
	// pick draws tournament entrants from the population's index range.
	pick intn
	// best is the island's champion; its tree is heap-cloned out of the
	// arenas whenever it improves, so it stays valid across resets.
	best individual
	// ladderTrees and ladder are the programs and scores of the stop
	// ladder's current tier.
	ladderTrees []*Node
	ladder      []individual
}

// islandPool keeps islands, with their arenas, populations, evaluator
// and RNG, from one run for the next: a pipeline runs GP once per stream,
// on concurrent stream workers that share the pool, and rebuilding that
// scratch for every run cost more allocation than the evolution itself.
// Every buffer is either reset by acquireIsland or fully written before
// it is read, and the champion is heap-cloned out of the arenas, so
// nothing of a run survives into the next. Unlike a
// sync.Pool, whose items are private to a scheduler P, the free list
// serves every run. Each run holds one island, and acquireIsland builds
// one only when the list is empty, so the list never holds more islands
// than GP runs were in flight at once: at most the job server's workers
// times reverser.WithParallelism.
var islandPool struct {
	sync.Mutex
	free []*island
}

// acquireIsland takes an island from the pool and readies it for a run
// of cfg.PopulationSize programs on d, seeded from cfg.Seed.
func acquireIsland(d *Dataset, cfg Config) *island {
	popSize, seed := cfg.PopulationSize, cfg.Seed
	var isl *island
	islandPool.Lock()
	if n := len(islandPool.free); n > 0 {
		isl = islandPool.free[n-1]
		islandPool.free = islandPool.free[:n-1]
	}
	islandPool.Unlock()
	if isl == nil {
		isl = &island{rng: rand.New(rand.NewSource(seed)), gen: new(generator), ev: new(evaluator)}
		// Trees live one generation: children of generation g+1 reference
		// only fresh nodes and copies of generation-g subtrees, so breeding
		// bump-allocates into one of two ping-ponging arenas and the
		// previous generation's arena is recycled wholesale.
		isl.arenas = [2]*nodeArena{newNodeArena(), newNodeArena()}
	} else {
		isl.arenas[0].reset()
		isl.arenas[1].reset()
	}
	isl.cfg, isl.seed = cfg, seed
	*isl.gen = generator{
		rng: isl.rng, numVars: d.NumVars(), funcs: FunctionSet,
		constMin: ercMin, constMax: ercMax,
	}
	isl.ev.reset(d, cfg)
	isl.cur = 0
	// Populations ping-pong alongside the arenas: generation g+1 is
	// scored into the slice generation g-1 occupied, so the steady-state
	// loop allocates no per-generation slices either.
	isl.pops[0] = resize(isl.pops[0], popSize)
	isl.pops[1] = resize(isl.pops[1], popSize)
	// fits mirrors pop's fitness column densely for the tournament loop.
	isl.fits = resize(isl.fits, popSize)
	// children[i] is the tree being scored into population slot i: a
	// chunk of the initial population, then each generation's bred
	// children (slot 0 is the elite's).
	isl.children = resize(isl.children, popSize)
	// pop is the drawn prefix of the initial population until it is whole.
	isl.pop = isl.pops[0][:0]
	isl.pick = newIntn(popSize)
	return isl
}

// release returns the island to the pool once its run has finished.
func (isl *island) release() {
	isl.ev.release()
	isl.cfg, *isl.gen = Config{}, generator{}
	isl.pop, isl.best = nil, individual{}
	islandPool.Lock()
	islandPool.free = append(islandPool.free, isl)
	islandPool.Unlock()
}

// resize returns s with length n, reallocating only to grow. Callers
// write every element before reading it.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// initChunk is how many programs of its initial population an island
// draws and scores at a time. It is one population of the benchmark's
// quick budget, and a multiple of the ramp's six-program cycle (three
// depths, grown or full), so every chunk ends on a balanced sample.
const initChunk = 150

// drawInitial draws and scores the island's initial population,
// initChunk programs at a time, and returns the champion. After a chunk
// that leaves programs undrawn, the run stops early, with the rest never
// drawn, if the champion passes evaluator.stops. Each chunk is scored
// against the cache the earlier ones filled, so the drawn population,
// cache and counters are exactly those of scoring it in one call.
func (isl *island) drawInitial() individual {
	for {
		isl.drawChunk()
		if len(isl.pop) == len(isl.pops[isl.cur]) || isl.ev.stops(isl.best) {
			return isl.best
		}
	}
}

// stopLadder scores the fixed tiers of the stop ladder on isl's
// evaluator, like any program, before anything is drawn, and ends the run
// on the first tier whose best program passes the same stop test as an
// initial-population chunk (evaluator.stops):
//   - tier 0, the k single variables X0…X(k−1): most diagnostic formulas
//     are a scale and offset on one raw field;
//   - tier 1, the basis: Xi·Xi and sqrt(Xi) for every i, Xi+Xj for every
//     pair i < j, and Xi·Xj+Xi and Xi·Xj·Xj+Xi·Xj for every i ≠ j.
//
// The least-squares fit of the whole tree or its root terms, or the
// minimax refit of the same columns where the stop test needs it,
// supplies every constant, so the basis needs none: it holds a scaled
// square or root, a two-byte field, and the product formulas of KWP's
// formula types with an offset on either byte. This is FFX's
// deterministic basis regression (McConaghy, GPTP 2011) ahead of the
// paper's GP. At rig seed 1 every clean fleet stream stops on a tier of
// the ladder, Car K's three torque streams only through the refit. A
// stopping program is heap-cloned out of the arena, and stopped is true.
// Otherwise the run draws as usual and meets the ladder's programs again
// as cache hits. A run that never stops early (StopFitness < 0) skips
// the ladder, so it runs the paper's algorithm alone.
func stopLadder(isl *island, k int) (best individual, stopped bool) {
	if isl.cfg.StopFitness < 0 || k == 0 {
		return individual{}, false
	}
	isl.gen.arena = isl.arenas[isl.cur]
	if best, stopped = isl.stopsOn(isl.singleVariables(k)); !stopped {
		best, stopped = isl.stopsOn(isl.basis(k))
	}
	return best, stopped
}

// stopsOn scores one tier of the stop ladder as one batch and reports
// whether its best program ends the run, heap-cloned out of the arena
// when it does.
func (isl *island) stopsOn(tier []*Node) (individual, bool) {
	isl.ladder = resize(isl.ladder, len(tier))
	isl.ev.scoreAll(tier, isl.ladder)
	best := bestOf(isl.ladder)
	if !isl.ev.stops(best) {
		return individual{}, false
	}
	best.tree = best.tree.Clone()
	return best, true
}

// singleVariables builds tier 0 of the stop ladder in the generator's
// arena, into the island's ladder scratch.
func (isl *island) singleVariables(k int) []*Node {
	t := isl.ladderTrees[:0]
	for i := range k {
		t = append(t, isl.gen.node(Node{Op: OpVar, Var: i}))
	}
	isl.ladderTrees = t
	return t
}

// basis builds tier 1 of the stop ladder in the generator's arena, one
// form after the other in the order stopLadder lists them, into the
// island's ladder scratch.
func (isl *island) basis(k int) []*Node {
	g := isl.gen
	x := func(i int) *Node { return g.node(Node{Op: OpVar, Var: i}) }
	op := func(op Op, l, r *Node) *Node { return g.node(Node{Op: op, L: l, R: r}) }
	t := isl.ladderTrees[:0]
	for i := range k {
		t = append(t, op(OpMul, x(i), x(i)))
	}
	for i := range k {
		t = append(t, op(OpSqrt, x(i), nil))
	}
	for i := range k {
		for j := i + 1; j < k; j++ {
			t = append(t, op(OpAdd, x(i), x(j)))
		}
	}
	for i := range k {
		for j := range k {
			if i != j {
				t = append(t, op(OpAdd, op(OpMul, x(i), x(j)), x(i)))
			}
		}
	}
	for i := range k {
		for j := range k {
			if i != j {
				t = append(t, op(OpAdd, op(OpMul, op(OpMul, x(i), x(j)), x(j)), op(OpMul, x(i), x(j))))
			}
		}
	}
	isl.ladderTrees = t
	return t
}

// drawChunk draws the island's next initChunk initial programs, scores
// them into the population and updates the champion. The first chunk
// seeds the island's RNG.
func (isl *island) drawChunk() {
	pop := isl.pops[isl.cur]
	lo := len(isl.pop)
	hi := min(lo+initChunk, len(pop))
	if lo == hi {
		return
	}
	if lo == 0 {
		// Reseeding restores exactly the state rand.NewSource(seed)
		// starts in.
		isl.rng.Seed(isl.seed)
	}
	isl.gen.arena = isl.arenas[isl.cur]
	isl.gen.ramp(isl.children[lo:hi], lo, maxDepth/2)
	isl.ev.scoreAll(isl.children[lo:hi], pop[lo:hi])
	isl.pop = pop[:hi]
	for i := lo; i < hi; i++ {
		isl.fits[i] = pop[i].fit
	}
	// bestOf keeps the first of equal fits, so a later chunk takes over
	// only with a strictly better program.
	if b := bestOf(pop[lo:hi]); lo == 0 || b.fit < isl.best.fit {
		isl.best = b
		isl.best.tree = b.tree.Clone()
	}
}

// step breeds and scores one generation. All of the island's RNG draws
// happen here, in a fixed order.
func (isl *island) step() {
	build := isl.arenas[1-isl.cur]
	build.reset()
	isl.gen.arena = build
	children := isl.children[1:]
	for i := range children {
		children[i] = isl.breed()
	}
	next := isl.pops[1-isl.cur]
	// Elitism: carry the champion over unchanged.
	elite, _ := copyInto(build, isl.best.tree)
	next[0] = individual{tree: elite, size: isl.best.size, raw: isl.best.raw, fit: isl.best.fit}
	isl.ev.scoreAll(children, next[1:])
	isl.pop = next
	isl.cur = 1 - isl.cur
	for i := range next {
		isl.fits[i] = next[i].fit
	}
	if b := bestOf(next); b.fit < isl.best.fit {
		isl.best = b
		isl.best.tree = isl.best.tree.Clone()
	}
}

// observe reports one scored generation, with ev's cumulative counters,
// to a configured observer.
func observe(o Observer, gen int, best individual, ev *evaluator) {
	if o != nil {
		o.Generation(GenerationStats{
			Generation: gen, BestFitness: best.raw,
			Evaluations: ev.evals, CacheHits: ev.hits, CacheMisses: ev.misses,
		})
	}
}

func bestOf(pop []individual) individual {
	best := pop[0]
	for _, ind := range pop[1:] {
		if ind.fit < best.fit {
			best = ind
		}
	}
	return best
}

// tournament draws k population indices through pick and returns the
// fittest (ties keep the first drawn). It scans the dense fitness slice,
// not the population itself: k random accesses into an 8-byte-per-entry
// array stay in cache where the 64-byte individual structs would not.
//
//dplint:hotpath gp-breed
func tournament(fits []float64, k int, pick *intn, rng *rand.Rand) int {
	best := pick.draw(rng)
	for i := 1; i < k; i++ {
		if c := pick.draw(rng); fits[c] < fits[best] {
			best = c
		}
	}
	return best
}

// intn draws from [0, n), n in [1, 2^31-1], exactly as (*rand.Rand).Intn
// does, leaving the RNG in the same state, without its two divisions per
// draw: Int31n's rejection bound is computed once, and v % n is Lemire's
// fastmod, (m*v mod 2^64)*n >> 64 with m = ceil(2^64/n), exact for 32 bits.
type intn struct {
	n, m  uint64
	bound int32
}

func newIntn(n int) intn {
	if n < 1 || n > math.MaxInt32 {
		panic("gp: draw range out of [1, 2^31-1]")
	}
	return intn{n: uint64(n), m: ^uint64(0)/uint64(n) + 1, bound: int32(1<<31 - 1 - (1<<31)%uint32(n))}
}

// draw is Int31n's rejection loop. For a power of two the bound admits
// every value and fastmod equals Int31n's mask.
//
//dplint:hotpath gp-breed
func (d *intn) draw(rng *rand.Rand) int {
	v := rng.Int31()
	for v > d.bound {
		v = rng.Int31()
	}
	hi, _ := bits.Mul64(d.m*uint64(v), d.n)
	return int(hi)
}

// breed builds one child in the generator's arena from a tournament
// winner and an operator draw (see vary).
//
//dplint:hotpath gp-breed
func (isl *island) breed() *Node {
	parent := isl.pop[tournament(isl.fits, tournamentSize, &isl.pick, isl.rng)]
	return isl.vary(parent, isl.rng.Float64())
}

// vary builds parent's child in the generator's arena: parent copied
// once, with the variation operator whose band holds p applied during the
// copy, then cut to the depth budget. It makes the draws, in order, of
// cloning the parent and then operating on the clone.
//
//dplint:hotpath gp-breed
func (isl *island) vary(parent individual, p float64) *Node {
	gen, rng, pop := isl.gen, isl.rng, isl.pop
	child, depth := parent.tree, 0
	switch {
	case p < crossoverProb:
		// The donor's subtree is copied in from the previous arena.
		donor := pop[tournament(isl.fits, tournamentSize, &isl.pick, rng)]
		at := rng.Intn(parent.size)
		graft, gd := copyInto(gen.arena, nodeAt(donor.tree, rng.Intn(donor.size)))
		child, depth = spliceCopy(gen.arena, parent.tree, at, graft, gd)
	case p < crossoverProb+subtreeMutProb:
		at := rng.Intn(parent.size)
		graft := gen.grow(3)
		child, depth = spliceCopy(gen.arena, parent.tree, at, graft, graft.Depth())
	case p < crossoverProb+subtreeMutProb+pointMutProb:
		child, depth = copyInto(gen.arena, parent.tree)
		pointMutate(child, parent.size, gen, rng)
	case p < crossoverProb+subtreeMutProb+pointMutProb+hoistMutProb:
		// Hoist mutation lifts a random subtree to the root (gplearn's
		// anti-bloat operator): only that subtree is copied.
		child = nodeAt(parent.tree, rng.Intn(parent.size))
		fallthrough
	default:
		child, depth = copyInto(gen.arena, child)
	}
	// Over the depth budget, hoist repeatedly. The child is fresh and
	// owned by no one else, so its subtrees are taken in place.
	for depth > maxDepth {
		child = nodeAt(child, rng.Intn(child.Size()))
		depth = child.Depth()
	}
	return child
}

// pointMutate perturbs one node in place: constants jitter, variables
// reselect, functions swap within the same arity.
func pointMutate(child *Node, size int, gen *generator, rng *rand.Rand) {
	n := nodeAt(child, rng.Intn(size))
	switch n.Op {
	case OpConst:
		n.Const += rng.NormFloat64() * math.Max(math.Abs(n.Const)*0.1, 0.1)
	case OpVar:
		if gen.numVars > 0 {
			n.Var = rng.Intn(gen.numVars)
		}
	default:
		want := n.Op.Arity()
		for tries := 0; tries < 8; tries++ {
			op := gen.randFunction()
			if op.Arity() == want {
				n.Op = op
				break
			}
		}
	}
}
