package reverser_test

import (
	"context"
	"fmt"

	"dpreverser/internal/reverser"
	"dpreverser/internal/rig"
)

// ExampleOption shows the functional-option style every Reverser knob
// uses: start from New, stack WithX options (later options win), then run
// captures through the immutable Reverser.
func ExampleOption() {
	cfg := reverser.DefaultConfig()
	cfg.GP.Seed = 7 // capture seed

	rv := reverser.New(
		reverser.WithConfig(cfg),                      // engine budget and seed
		reverser.WithParallelism(4),                   // four inference workers
		reverser.WithFaultPolicy(reverser.BestEffort), // salvage damaged captures
		reverser.WithProgress(func(ev reverser.ProgressEvent) {
			if ev.Kind == reverser.ProgressStreamDone {
				fmt.Printf("reversed %s\n", ev.Stream)
			}
		}),
	)

	// An empty capture runs the whole pipeline and recovers nothing —
	// enough to show the call shape.
	res, err := rv.Reverse(context.Background(), rig.Capture{Car: "Demo"})
	if err != nil {
		fmt.Println("reverse failed:", err)
		return
	}
	fmt.Printf("%d streams reversed from %d messages\n", len(res.ESVs), res.Messages)
	// Output:
	// 0 streams reversed from 0 messages
}
