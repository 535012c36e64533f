//go:build race

package main

// The race detector slows memory accesses unevenly across the pipeline's
// stages, so timing ratios mean nothing under it.
func init() { raceDetector = true }
