package gp

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
)

// poolCase is one named run: a dataset and a configuration.
type poolCase struct {
	name string
	d    *Dataset
	cfg  Config
}

// poolCases returns two runs that differ in dataset width and length
// and in population size, so a run that reuses the other's scratch has
// to resize every buffer.
func poolCases() (a, b poolCase) {
	a = poolCase{name: "A", d: islandTestDataset(), cfg: islandConfig()}
	bd := &Dataset{}
	for x := 0.0; x < 200; x++ {
		bd.X = append(bd.X, []float64{x})
		bd.Y = append(bd.Y, 0.5*x-40)
	}
	bcfg := DefaultConfig()
	bcfg.PopulationSize = 90
	bcfg.Generations = 6
	bcfg.StopFitness = -1
	bcfg.Seed = 3
	b = poolCase{name: "B", d: bd, cfg: bcfg}
	return a, b
}

func runCase(t *testing.T, c poolCase) Result {
	t.Helper()
	res, err := Run(c.d, c.cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return res
}

// drainIslandPool empties the island pool, so the next run builds its
// scratch afresh.
func drainIslandPool() {
	islandPool.Lock()
	islandPool.free = nil
	islandPool.Unlock()
}

// pooledIslands reports how many islands the pool holds.
func pooledIslands() int {
	islandPool.Lock()
	defer islandPool.Unlock()
	return len(islandPool.free)
}

// freshResult runs c on freshly built scratch.
func freshResult(t *testing.T, c poolCase) Result {
	t.Helper()
	drainIslandPool()
	return runCase(t, c)
}

func checkSameResult(t *testing.T, what string, got, want Result) {
	t.Helper()
	if resultJSON(t, got) != resultJSON(t, want) || !reflect.DeepEqual(got.Best, want.Best) {
		t.Fatalf("%s: %s, fresh scratch gives %s", what, resultJSON(t, got), resultJSON(t, want))
	}
}

// Running A then B through pooled scratch must give exactly the results
// of runs on fresh scratch: nothing of one run, the fitness cache least
// of all, may leak into the next.
func TestPooledScratchMatchesFreshRuns(t *testing.T) {
	a, b := poolCases()
	wantA := freshResult(t, a)
	wantB := freshResult(t, b)
	for i := 0; i < 3; i++ {
		checkSameResult(t, "A after B", runCase(t, a), wantA)
		checkSameResult(t, "B after A", runCase(t, b), wantB)
	}
}

// Concurrent runs share the pool but never an island (run under -race).
func TestPooledScratchConcurrentRuns(t *testing.T) {
	a, b := poolCases()
	wantA := freshResult(t, a)
	wantB := freshResult(t, b)
	var wg sync.WaitGroup
	results := make([][]Result, 8)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				c := a
				if (g+i)%2 == 1 {
					c = b
				}
				res, err := Run(c.d, c.cfg)
				if err != nil {
					t.Error(err)
					return
				}
				results[g] = append(results[g], res)
			}
		}(g)
	}
	wg.Wait()
	for g, rs := range results {
		for i, res := range rs {
			want := wantA
			if (g+i)%2 == 1 {
				want = wantB
			}
			checkSameResult(t, "concurrent run", res, want)
		}
	}
}

type cancelAtGeneration struct {
	gen    int
	cancel context.CancelFunc
}

func (c cancelAtGeneration) Generation(s GenerationStats) {
	if s.Generation == c.gen {
		c.cancel()
	}
}

// A run cancelled mid-evolution returns its scratch to the pool in
// whatever state it reached; the next run must not notice. The second
// cancelled run stops with its fitness cache well filled: on a linear
// codec with StopFitness 0 it breeds until it is cancelled.
func TestPooledScratchAfterCancelledRun(t *testing.T) {
	a, b := poolCases()
	c := poolCase{name: "C", d: udsLikeDataset(), cfg: DefaultConfig()}
	c.cfg.PopulationSize = 200
	c.cfg.Generations = 6
	c.cfg.StopFitness = 0
	wantA := freshResult(t, a)
	wantC := freshResult(t, c)
	for _, cancelled := range []poolCase{b, c} {
		drainIslandPool()
		ctx, cancel := context.WithCancel(context.Background())
		cfg := cancelled.cfg
		cfg.Observer = cancelAtGeneration{gen: 3, cancel: cancel}
		if _, err := RunContext(ctx, cancelled.d, cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", cancelled.name, err)
		}
		cancel()
		checkSameResult(t, "A after a cancelled "+cancelled.name, runCase(t, a), wantA)
		checkSameResult(t, "C after a cancelled "+cancelled.name, runCase(t, c), wantC)
	}
}

// Runs reuse pooled islands whichever goroutine (and so whichever
// scheduler P) they run on, and the pool holds no more islands than runs
// were in flight at once: exactly 1 after each serial run, and at most 8
// after 8 concurrent runs.
func TestIslandPoolReusedAcrossGoroutines(t *testing.T) {
	a, b := poolCases()
	drainIslandPool()
	for i := 0; i < 6; i++ {
		c := a
		if i%2 == 1 {
			c = b
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, err := Run(c.d, c.cfg); err != nil {
				t.Error(err)
			}
		}()
		<-done
		if n := pooledIslands(); n != 1 {
			t.Fatalf("after run %d the pool holds %d islands, want 1", i, n)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Run(a.d, a.cfg); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := pooledIslands(); n > 8 {
		t.Fatalf("pool holds %d islands, more than the 8 runs in flight at once", n)
	}
}
