package gp

import (
	"context"
	"errors"
	"testing"
)

// linear2Dataset is y = 0.75·x0 + 4·x1 − 48 on a 32 × 5 grid.
func linear2Dataset() *Dataset {
	d := &Dataset{}
	for x0 := 0.0; x0 <= 255; x0 += 8 {
		for x1 := 0.0; x1 <= 64; x1 += 16 {
			d.X = append(d.X, []float64{x0, x1})
			d.Y = append(d.Y, 0.75*x0+4*x1-48)
		}
	}
	return d
}

func TestRunContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, linear2Dataset(), DefaultConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Cancellation mid-evolution must abort between generations and surface
// ctx.Err() rather than a partial result.
func TestRunContextCancelledMidEvolution(t *testing.T) {
	d := linear2Dataset()
	cfg := DefaultConfig()
	cfg.PopulationSize = 100
	cfg.Generations = 1000
	cfg.StopFitness = -1
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel after a few generations' worth of work: use a dataset-sized
	// budget by cancelling from another goroutine as soon as Run starts.
	done := make(chan struct{})
	go func() { cancel(); close(done) }()
	<-done
	_, err := RunContext(ctx, d, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
