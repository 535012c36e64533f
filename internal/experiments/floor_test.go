package experiments

import (
	"context"
	"testing"

	"dpreverser/internal/diagtool"
	"dpreverser/internal/reverser"
	"dpreverser/internal/rig"
	"dpreverser/internal/sim"
	"dpreverser/internal/vehicle"
)

// formulaFloors is the ratchet on formula recovery: per fleet car, the
// fewest formula streams the oracle must find correct at the quick budget
// (population 150, 10 generations) and at the paper budget (1000, 30),
// with full 30 s rig reads at rig seed 1 and the pipeline's default GP
// seed, as the benchmark runs them. Floors may only rise.
var formulaFloors = map[string]struct{ quick, paper int }{
	"Car A": {35, 35}, "Car B": {15, 15}, "Car C": {12, 12}, "Car D": {19, 19},
	"Car E": {12, 12}, "Car F": {15, 15}, "Car G": {12, 12}, "Car H": {12, 12},
	"Car I": {18, 18}, "Car J": {27, 27}, "Car K": {47, 48}, "Car L": {36, 36},
	"Car M": {11, 11}, "Car N": {33, 33}, "Car O": {25, 25}, "Car P": {14, 14},
	"Car Q": {25, 25}, "Car R": {47, 47},
}

// TestFormulaRecoveryFloors reverses every fleet car at both budgets and
// checks each car's count of correct formulas against its floor.
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
	var total, correct [2]int
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
			n, ok := countCorrect(veh, res)
			total[b] += n
			correct[b] += ok
			want := []int{floor.quick, floor.paper}[b]
			t.Logf("%s %s: %d/%d correct (floor %d)", p.Car, budget.name, ok, n, want)
			if ok < want {
				t.Errorf("%s at the %s budget: %d of %d formulas correct, floor %d", p.Car, budget.name, ok, n, want)
			}
		}
		veh.Close()
	}
	t.Logf("fleet: quick %d/%d, paper %d/%d", correct[0], total[0], correct[1], total[1])
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

// countCorrect counts res's formula streams (a dataset and no enum) and
// how many of their formulas the oracle accepts against veh's truth.
func countCorrect(veh *vehicle.Vehicle, res *reverser.Result) (formulas, correct int) {
	recovered := map[reverser.StreamKey]reverser.ReversedESV{}
	for _, e := range res.ESVs {
		recovered[e.Key] = e
	}
	for _, sd := range res.Streams {
		if sd.Dataset == nil || sd.Enum {
			continue
		}
		formulas++
		if truth, ok := TruthFor(veh, sd.Key); ok && FormulaCorrect(recovered[sd.Key].Formula, truth, sd.Dataset.X) {
			correct++
		}
	}
	return formulas, correct
}
