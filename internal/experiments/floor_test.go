package experiments

import (
	"context"
	"testing"

	"dpreverser/internal/diagtool"
	"dpreverser/internal/oracle"
	"dpreverser/internal/reverser"
	"dpreverser/internal/rig"
	"dpreverser/internal/sim"
	"dpreverser/internal/vehicle"
)

// formulaFloors is the ratchet on formula recovery: per fleet car, the
// fewest formula streams the oracle must find correct at the quick budget
// (population 150, 10 generations) and at the paper budget (1000, 30),
// with full 30 s rig reads at rig seed 1 and the pipeline's default GP
// seed, as the benchmark runs them. quick and paper count formulas right
// on their observed rows (oracle.Correct), quickDomain and paperDomain
// formulas right on their whole raw domain (oracle.DomainCorrect). Floors
// may only rise.
var formulaFloors = map[string]struct{ quick, paper, quickDomain, paperDomain int }{
	"Car A": {35, 35, 33, 33}, "Car B": {15, 15, 14, 14}, "Car C": {12, 12, 12, 12},
	"Car D": {19, 19, 17, 17}, "Car E": {12, 12, 11, 11}, "Car F": {15, 15, 14, 14},
	"Car G": {12, 12, 12, 12}, "Car H": {12, 12, 11, 11}, "Car I": {18, 18, 17, 17},
	"Car J": {27, 27, 24, 24}, "Car K": {47, 48, 42, 43}, "Car L": {36, 36, 33, 33},
	"Car M": {11, 11, 10, 10}, "Car N": {33, 33, 30, 30}, "Car O": {25, 25, 23, 23},
	"Car P": {14, 14, 12, 12}, "Car Q": {25, 25, 23, 23}, "Car R": {47, 47, 43, 43},
}

// gpWorkCeilings is the ratchet on GP work: the most evaluations
// (Result.Evaluations) one pass over the fleet may spend at the quick and
// the paper budget, under TestFormulaRecoveryFloors' settings. Ceilings
// may only fall.
var gpWorkCeilings = struct{ quick, paper int }{quick: 3448, paper: 3763}

// TestFormulaRecoveryFloors reverses every fleet car at both budgets and
// checks each car's counts of correct formulas against its floors, and
// each budget's total GP evaluations against its ceiling.
func TestFormulaRecoveryFloors(t *testing.T) {
	if testing.Short() {
		t.Skip("reverses the whole fleet twice")
	}
	quick := reverser.DefaultConfig()
	quick.GP.PopulationSize, quick.GP.Generations = 150, 10
	budgets := []struct {
		name string
		rv   *reverser.Reverser
	}{
		{"quick", reverser.New(reverser.WithConfig(quick), reverser.WithParallelism(2))},
		{"paper", reverser.New(reverser.WithConfig(reverser.DefaultConfig()), reverser.WithParallelism(2))},
	}
	fleet := vehicle.Fleet()
	if len(fleet) != len(formulaFloors) {
		t.Fatalf("fleet has %d cars, floors cover %d", len(fleet), len(formulaFloors))
	}
	var total, correct, domain, evals [2]int
	for _, p := range fleet {
		floor, ok := formulaFloors[p.Car]
		if !ok {
			t.Fatalf("%s has no floor", p.Car)
		}
		capture, veh := captureAtSeed1(t, p)
		for b, budget := range budgets {
			res, err := budget.rv.Reverse(context.Background(), capture)
			if err != nil {
				t.Fatalf("%s %s: %v", p.Car, budget.name, err)
			}
			n, ok, dom := countCorrect(veh, res)
			total[b] += n
			correct[b] += ok
			domain[b] += dom
			evals[b] += res.Evaluations
			want := []int{floor.quick, floor.paper}[b]
			wantDom := []int{floor.quickDomain, floor.paperDomain}[b]
			t.Logf("%s %s: %d/%d correct (floor %d), %d on the domain (floor %d), %d evaluations",
				p.Car, budget.name, ok, n, want, dom, wantDom, res.Evaluations)
			if ok < want {
				t.Errorf("%s at the %s budget: %d of %d formulas correct, floor %d", p.Car, budget.name, ok, n, want)
			}
			if dom < wantDom {
				t.Errorf("%s at the %s budget: %d of %d formulas correct on the domain, floor %d",
					p.Car, budget.name, dom, n, wantDom)
			}
		}
		veh.Close()
	}
	t.Logf("fleet: quick %d/%d (%d on the domain, %d evaluations), paper %d/%d (%d on the domain, %d evaluations)",
		correct[0], total[0], domain[0], evals[0], correct[1], total[1], domain[1], evals[1])
	for b, ceiling := range []int{gpWorkCeilings.quick, gpWorkCeilings.paper} {
		if evals[b] > ceiling {
			t.Errorf("the %s budget spent %d GP evaluations over the fleet, ceiling %d", budgets[b].name, evals[b], ceiling)
		}
	}
}

// captureAtSeed1 records a full rig session (30 s reads) on p at rig
// seed 1.
func captureAtSeed1(t *testing.T, p vehicle.Profile) (rig.Capture, *vehicle.Vehicle) {
	t.Helper()
	tool, veh, err := diagtool.ForProfile(p, sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	defer tool.Close()
	cfg := rig.DefaultConfig()
	cfg.Seed = 1
	r := rig.New(tool, veh, cfg)
	defer r.Close()
	capture, err := r.RunFull()
	if err != nil {
		t.Fatalf("%s: %v", p.Car, err)
	}
	return capture, veh
}

// countCorrect counts res's formula streams (a dataset and no enum), how
// many of their formulas the oracle accepts against veh's truth on the
// observed rows, and how many on the whole raw domain.
func countCorrect(veh *vehicle.Vehicle, res *reverser.Result) (formulas, correct, domain int) {
	recovered := map[reverser.StreamKey]reverser.ReversedESV{}
	for _, e := range res.ESVs {
		recovered[e.Key] = e
	}
	for _, sd := range res.Streams {
		if sd.Dataset == nil || sd.Enum {
			continue
		}
		formulas++
		truth, ok := TruthFor(veh, sd.Key)
		if !ok {
			continue
		}
		f := recovered[sd.Key].Formula
		if FormulaCorrect(f, truth, sd.Dataset.X) {
			correct++
		}
		if oracle.DomainCorrect(f, truth.Decode, sd.Dataset.X) {
			domain++
		}
	}
	return formulas, correct, domain
}
