// Quickstart: reverse engineer one simulated vehicle end to end.
//
// The program builds a Skoda Octavia with its LAUNCH X431 diagnostic tool,
// lets the robotic rig drive the tool while sniffing the OBD port and
// filming the screen, and then runs the DP-Reverser pipeline over the
// capture — printing the recovered request semantics and response formulas.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"dpreverser/internal/diagtool"
	"dpreverser/internal/reverser"
	"dpreverser/internal/rig"
	"dpreverser/internal/sim"
	"dpreverser/internal/vehicle"
)

func main() {
	// 1. Build the car and its diagnostic tool on one virtual clock.
	profile, _ := vehicle.ProfileByCar("Car A") // Skoda Octavia, UDS over ISO-TP
	clock := sim.NewClock(0)
	tool, veh, err := diagtool.ForProfile(profile, clock)
	if err != nil {
		log.Fatal(err)
	}
	defer tool.Close()
	defer veh.Close()

	// 2. Let the cyber-physical rig collect a session: OBD alignment
	//    phase, data-stream recordings for every ECU, active tests.
	r := rig.New(tool, veh, rig.DefaultConfig())
	defer r.Close()
	capture, err := r.RunFull()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("capture: %d CAN frames, %d video frames, %d clicks\n",
		len(capture.Frames), len(capture.UIFrames), len(capture.Clicks))

	// 3. Reverse engineer the capture. The pipeline only sees frames,
	//    OCR'd text and click timestamps — never the proprietary tables.
	//    Inference fans out across all CPUs; the result is identical at
	//    any worker count.
	rv := reverser.New() // options: WithConfig, WithParallelism, WithProgress, ...
	result, err := rv.Reverse(context.Background(), capture)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(result.Summary())

	// 4. Print a few recovered formulas.
	fmt.Println("\nsample of recovered formulas:")
	printed := 0
	for _, esv := range result.ESVs {
		if esv.Formula == nil || printed >= 8 {
			continue
		}
		fmt.Printf("  %-22s %-24s Y = %s\n", esv.Key, esv.Label+" ("+esv.Unit+")", esv.Formula)
		printed++
	}
	if len(result.ECRs) > 0 {
		fmt.Println("\nsample of recovered control records:")
		for i, ecr := range result.ECRs {
			if i >= 4 {
				break
			}
			fmt.Printf("  service %02X id %04X (%s): adjust state % X\n",
				ecr.Service, ecr.ID, ecr.Label, ecr.State)
		}
	}
}
