package sim

import "math/rand"

// NewRand returns a deterministic random source for the given seed. Every
// stochastic component in the simulation (signal noise, OCR errors, GP
// evolution) takes an explicit *rand.Rand so experiment runs are exactly
// reproducible; this constructor centralises the convention.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
