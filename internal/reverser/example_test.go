package reverser_test

import (
	"context"
	"fmt"

	"dpreverser/internal/diagtool"
	"dpreverser/internal/reverser"
	"dpreverser/internal/rig"
	"dpreverser/internal/sim"
	"dpreverser/internal/vehicle"
)

// ExampleReverser_Reverse reverse engineers one simulated vehicle end to
// end: build a Skoda Octavia with its LAUNCH X431 diagnostic tool, let the
// robotic rig drive the tool while sniffing the OBD port and filming the
// screen, then run the pipeline over the capture and print the recovered
// request semantics and response formulas.
func ExampleReverser_Reverse() {
	// 1. Build the car and its diagnostic tool on one virtual clock.
	profile, _ := vehicle.ProfileByCar("Car A") // Skoda Octavia, UDS over ISO-TP
	tool, veh, err := diagtool.ForProfile(profile, sim.NewClock(0))
	if err != nil {
		fmt.Println("build failed:", err)
		return
	}
	defer tool.Close()
	defer veh.Close()

	// 2. Let the cyber-physical rig collect a session: OBD alignment
	//    phase, data-stream recordings for every ECU, active tests.
	r := rig.New(tool, veh, rig.DefaultConfig())
	defer r.Close()
	capture, err := r.RunFull()
	if err != nil {
		fmt.Println("capture failed:", err)
		return
	}
	fmt.Printf("capture: %d CAN frames, %d video frames, %d clicks\n",
		len(capture.Frames), len(capture.UIFrames), len(capture.Clicks))

	// 3. Reverse engineer the capture. The pipeline only sees frames,
	//    OCR'd text and click timestamps, never the proprietary tables.
	//    Inference fans out across all CPUs; the result is identical at
	//    any worker count.
	result, err := reverser.New().Reverse(context.Background(), capture)
	if err != nil {
		fmt.Println("reverse failed:", err)
		return
	}
	fmt.Print(result.Summary())

	// 4. Print a few recovered formulas and control records. Misses show
	//    too: the fuel level (PID 2F) is read at too few distinct values
	//    and fits as a constant.
	for _, esv := range result.ESVs[:8] {
		fmt.Printf("%s %s (%s): Y = %s\n", esv.Key, esv.Label, esv.Unit, esv.Formula)
	}
	for _, ecr := range result.ECRs[:4] {
		fmt.Printf("service %02X id %04X (%s): adjust state % X\n",
			ecr.Service, ecr.ID, ecr.Label, ecr.State)
	}
	// Output:
	// capture: 2980 CAN frames, 262 video frames, 106 clicks
	// Car A (Skoda Octavia) via LAUNCH X431
	//   2096 messages assembled, clock offset 370ms
	//   35 streams reversed (35 formulas, 0 enums), 11 control records
	// OBD PID 04 Calculated Engine Load (%): Y = ((0.3924 * X0) + -0.009535)
	// OBD PID 05 Engine Coolant Temperature (°C): Y = (X0 + -40)
	// OBD PID 0B Intake Manifold Absolute Pressure (kPa): Y = X0
	// OBD PID 0C Engine Speed (rpm): Y = ((1000 * ((0.06399 * X0) + (0.0002505 * X1))) + 0.07684)
	// OBD PID 0D Vehicle Speed (km/h): Y = X0
	// OBD PID 11 Absolute Throttle Position (%): Y = ((0.3922 * X0) + -0.003772)
	// OBD PID 2F Fuel Tank Level Input (%): Y = 67.82
	// UDS DID 1003 @701 Engine speed (rpm): Y = ((0.25 * X0) + -0.0368)
	// service 2F id 0900 (Fog light left): adjust state 0A 01 00 00
	// service 2F id 0927 (High beam): adjust state 04 00 00 00
	// service 2F id 0951 (Door lock): adjust state 04 00 00 00
	// service 2F id 0975 (Fuel pump): adjust state 09 00 00 00
}

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
