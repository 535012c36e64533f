// Package dpreverser is a from-scratch Go reproduction of DP-Reverser, the
// cyber-physical system for automatically reverse engineering vehicle
// diagnostic protocols (Yu et al., USENIX Security 2022; poster at ICDCS
// 2023).
//
// The physical testbed — 18 vehicles, commercial diagnostic tools, a
// robotic clicker and two cameras — is replaced by deterministic
// simulations (see DESIGN.md for the substitution inventory); everything
// above the hardware boundary, from the ISO 15765-2 / VW TP 2.0 transports
// through the genetic-programming formula inference, is implemented in
// full under internal/.
//
// Entry points:
//
//   - cmd/dpreverse — reverse engineer one simulated car end to end
//   - cmd/dpreversed — the multi-tenant job server (HTTP API, live ingest)
//   - cmd/dptop — a terminal dashboard over the job server's metrics
//   - cmd/experiments — regenerate every table of the paper's evaluation
//   - cmd/dplint — the repository's static-analysis suite
//   - cmd/carsim — serve a simulated car's OBD port over TCP
//
// The walkthroughs of the public API are go-test-checked Example
// functions: ExampleReverser_Reverse (internal/reverser), ExampleBuild
// (internal/vehicle) and ExampleAnalyze (internal/appanalysis).
//
// The library entry point is reverser.New(opts...) and
// (*Reverser).Reverse(ctx, capture): a context-aware pipeline that fans
// formula inference across a worker pool while staying byte-identical at
// any parallelism (see the "Public API" section of README.md).
//
// The benchmarks in bench_test.go regenerate the performance-flavoured
// artifacts (Tables 8 and 9, the OCR and planner measurements) plus
// ablations of the design choices DESIGN.md calls out.
package dpreverser
