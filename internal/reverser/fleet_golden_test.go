package reverser

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"dpreverser/internal/vehicle"
)

// fleetGoldenPath records the SHA-256 of real pipeline output: each
// fleet car's schema-v1 result document at the quick GP budget, and three
// cars' at the paper budget, all on rig seed 1. Each line holds two
// digests, of the whole document and of the document without its GP work
// counters (see resultSHA). TestResultSchemaGolden pins the document's
// shape on a hand-built result; this pins what the GP engine actually
// finds, so an engine change that claims identical output has to prove
// it.
const fleetGoldenPath = "testdata/fleet_results_sha256.golden"

// paperGoldenCars are the cars also pinned at the paper budget; the test
// stays within a few seconds. At rig seed 1 every stream of theirs stops
// on the stop ladder before drawing anything, at either budget: Car K's
// three torque streams (KWP 01[9], 02[9], 03[9]) on the basis tier's
// minimax refit, after 11 evaluations each, so Car K's two lines hold the
// same digests. No fleet stream breeds at either budget on clean
// captures; the run matrix (internal/gp) pins breeding.
var paperGoldenCars = []string{"Car A", "Car M", "Car K"}

// goldenBudget returns the pipeline configuration of a named GP budget:
// "quick" is the benchmark's quick budget (population 150, 10
// generations), "paper" the paper's (1000, 30).
func goldenBudget(name string) Config {
	cfg := DefaultConfig()
	if name == "quick" {
		cfg.GP.PopulationSize = 150
		cfg.GP.Generations = 10
	}
	return cfg
}

// counterFields are the result document's GP work counters.
var counterFields = []string{"evaluations", "cache_hits", "cache_misses", "generations"}

// resultSHA reverses cap under cfg at Parallelism 2 and hashes the result
// document as the job server's /result endpoint encodes it. It returns
// two digests: of the whole document, and of the document with every
// counterFields entry removed, so a change to how much work the GP does
// shows in review whether the formulas stayed the same.
func resultSHA(t *testing.T, cfg Config, car string, seed int64) (full, noCounters string) {
	t.Helper()
	res, err := New(WithConfig(cfg), WithParallelism(2)).Reverse(context.Background(), collectSeeded(t, car, seed))
	if err != nil {
		t.Fatalf("%s: %v", car, err)
	}
	doc := indentJSON(t, res)
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		t.Fatal(err)
	}
	stripCounters(tree)
	return sha256Hex(doc), sha256Hex(indentJSON(t, tree))
}

func indentJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// stripCounters deletes every counterFields key from a decoded JSON
// document, at any depth.
func stripCounters(v any) {
	switch v := v.(type) {
	case map[string]any:
		for _, f := range counterFields {
			delete(v, f)
		}
		for _, c := range v {
			stripCounters(c)
		}
	case []any:
		for _, c := range v {
			stripCounters(c)
		}
	}
}

func TestFleetResultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("20 full captures and pipeline runs")
	}
	var got strings.Builder
	line := func(budget, car string) {
		full, noCounters := resultSHA(t, goldenBudget(budget), car, 1)
		fmt.Fprintf(&got, "%s\t%s\t%s\t%s\n", budget, car, full, noCounters)
	}
	for _, p := range vehicle.Fleet() {
		line("quick", p.Car)
	}
	for _, car := range paperGoldenCars {
		line("paper", car)
	}
	if *updateGolden {
		if err := os.WriteFile(fleetGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(fleetGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to regenerate)", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(raw), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d results, %s has %d lines", len(gotLines)-1, fleetGoldenPath, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("result drifted:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
