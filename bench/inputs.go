package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"slices"

	"dpreverser/internal/diagtool"
	"dpreverser/internal/experiments"
	"dpreverser/internal/reverser"
	"dpreverser/internal/rig"
	"dpreverser/internal/sim"
	"dpreverser/internal/vehicle"
)

// recoveryFloor is the least formula_recovery a run may report and still
// count as correct: the share of formula streams whose recovered formula
// decodes like the car's ground truth. The quick GP budget recovers less
// than the paper budget; the floor sits below both.
const recoveryFloor = 0.85

// fleetCar is one simulated car's input and the reference output every
// workload's results must match.
type fleetCar struct {
	Name    string
	Capture rig.Capture
	// Body is the capture as a client uploads it (rig's JSON encoding).
	Body []byte
	// Ref is the SHA-256 of the reference result document.
	Ref [sha256.Size]byte
	// Formulas and Correct score the reference result against ground truth.
	Formulas, Correct int
	// truth resolves each formula stream's ground-truth decode; the
	// benchmark scores with it, the program under test never sees it.
	truth map[reverser.StreamKey]experiments.Truth
}

// budget is the pipeline configuration of a workload: the paper's GP
// budget (population 1000, 30 generations) or the quick budget that
// `dpreversed -quick` serves with (population 150, 10 generations). The
// GP keeps the pipeline's default seed, as the CLI and the server do: the
// benchmark's seed varies the inputs, not the program, and a varied GP
// seed would move the GP's work by about 8% between runs.
func budget(quick bool) reverser.Config {
	cfg := reverser.DefaultConfig()
	if quick {
		cfg.GP.PopulationSize = 150
		cfg.GP.Generations = 10
	}
	return cfg
}

// prepareInputs simulates a full rig session (30 s reads) on each fleet
// car named in cars (nil: all) with the rig seeded by seed, and computes
// each capture's reference result at Parallelism 1 under cfg.
func prepareInputs(seed int64, cars []string, cfg reverser.Config) ([]*fleetCar, error) {
	rv := reverser.New(reverser.WithConfig(cfg), reverser.WithParallelism(1))
	var out []*fleetCar
	for _, p := range vehicle.Fleet() {
		if cars != nil && !slices.Contains(cars, p.Car) {
			continue
		}
		c, err := prepareCar(p, seed, rv)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Car, err)
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no fleet car among %q", cars)
	}
	return out, nil
}

func prepareCar(p vehicle.Profile, seed int64, rv *reverser.Reverser) (*fleetCar, error) {
	tool, veh, err := diagtool.ForProfile(p, sim.NewClock(0))
	if err != nil {
		return nil, err
	}
	defer tool.Close()
	defer veh.Close()
	cfg := rig.DefaultConfig()
	cfg.Seed = seed
	r := rig.New(tool, veh, cfg)
	defer r.Close()
	capture, err := r.RunFull()
	if err != nil {
		return nil, err
	}
	var body bytes.Buffer
	if err := capture.Save(&body); err != nil {
		return nil, err
	}
	res, err := rv.Reverse(context.Background(), capture)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	doc, err := encodeResult(res)
	if err != nil {
		return nil, err
	}
	c := &fleetCar{
		Name: p.Car, Capture: capture, Body: body.Bytes(), Ref: sha256.Sum256(doc),
		truth: map[reverser.StreamKey]experiments.Truth{},
	}
	for _, sd := range res.Streams {
		if t, ok := experiments.TruthFor(veh, sd.Key); ok {
			c.truth[sd.Key] = t
		}
	}
	c.Formulas, c.Correct = c.score(res.ESVs, res.Streams)
	return c, nil
}

// score counts the formula streams (those GP infers: a dataset and no
// enum) and how many of their recovered formulas in esvs decode like the
// car's ground truth over the stream's observed domain — the paper's
// Table 6 criterion, as experiments.FormulaCorrect applies it.
func (c *fleetCar) score(esvs []reverser.ReversedESV, streams []reverser.StreamData) (formulas, correct int) {
	recovered := map[reverser.StreamKey]reverser.ReversedESV{}
	for _, e := range esvs {
		recovered[e.Key] = e
	}
	for _, sd := range streams {
		if sd.Dataset == nil || sd.Enum {
			continue
		}
		formulas++
		if t, ok := c.truth[sd.Key]; ok && experiments.FormulaCorrect(recovered[sd.Key].Formula, t, sd.Dataset.X) {
			correct++
		}
	}
	return formulas, correct
}

// encodeResult renders a result exactly as the job server's /result
// endpoint does: the schema-v1 document through an indenting encoder.
func encodeResult(res *reverser.Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return nil, fmt.Errorf("encoding result: %w", err)
	}
	return buf.Bytes(), nil
}

// recovery is formula_recovery over the jobs that finished: correct
// formulas over formula streams, each job scored as its car's reference
// (a finished job's result equals the reference byte for byte).
func recovery(done []*fleetCar) float64 {
	var formulas, correct int
	for _, c := range done {
		formulas += c.Formulas
		correct += c.Correct
	}
	if formulas == 0 {
		return 0
	}
	return float64(correct) / float64(formulas)
}
