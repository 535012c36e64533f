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
// cars' at the paper budget, all on rig seed 1. TestResultSchemaGolden
// pins the document's shape on a hand-built result; this pins what the
// GP engine actually finds, so an engine change that claims identical
// output has to prove it.
const fleetGoldenPath = "testdata/fleet_results_sha256.golden"

// paperGoldenCars are the cars also pinned at the paper budget: Cars A
// and M are light, and Car K's formula streams breed for the whole
// budget, so its digest pins the breeding loop. The test stays within a
// few seconds.
var paperGoldenCars = []string{"Car A", "Car M", "Car K"}

// goldenBudget returns the pipeline configuration of a named GP budget:
// "quick" is dpreversed -quick's (population 150, 10 generations),
// "paper" the paper's (1000, 30).
func goldenBudget(name string) Config {
	cfg := DefaultConfig()
	if name == "quick" {
		cfg.GP.PopulationSize = 150
		cfg.GP.Generations = 10
	}
	return cfg
}

// resultSHA reverses cap under cfg at Parallelism 2 and hashes the result
// document as the job server's /result endpoint encodes it.
func resultSHA(t *testing.T, cfg Config, car string, seed int64) string {
	t.Helper()
	res, err := New(WithConfig(cfg), WithParallelism(2)).Reverse(context.Background(), collectSeeded(t, car, seed))
	if err != nil {
		t.Fatalf("%s: %v", car, err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func TestFleetResultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("20 full captures and pipeline runs")
	}
	var got strings.Builder
	for _, p := range vehicle.Fleet() {
		fmt.Fprintf(&got, "quick\t%s\t%s\n", p.Car, resultSHA(t, goldenBudget("quick"), p.Car, 1))
	}
	for _, car := range paperGoldenCars {
		fmt.Fprintf(&got, "paper\t%s\t%s\n", car, resultSHA(t, goldenBudget("paper"), car, 1))
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
