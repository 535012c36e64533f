package vehicle_test

import (
	"context"
	"fmt"
	"time"

	"dpreverser/internal/diagtool"
	"dpreverser/internal/ecu"
	"dpreverser/internal/reverser"
	"dpreverser/internal/rig"
	"dpreverser/internal/signal"
	"dpreverser/internal/vehicle"
)

// ExampleBuild extends the library with a vehicle that is not in the
// paper's fleet: an imaginary "Aurora EV" whose proprietary encodings the
// pipeline recovers without being told anything about them.
func ExampleBuild() {
	// An out-of-fleet profile. The seed drives the generated ECU tables;
	// for full control, assemble ecu.Config values directly (below).
	profile := vehicle.Profile{
		Car: "Aurora EV", Model: "Aurora EV prototype",
		Protocol: vehicle.UDS, Transport: vehicle.ISOTP,
		Tool:           "AUTEL 919",
		NumFormulaESVs: 6, NumEnumESVs: 3,
		NumECRs: 2, ECRService: 0x2F,
		Seed: 777,
	}
	veh := vehicle.Build(profile, nil)
	defer veh.Close()

	// What the manufacturer defined: the secret the pipeline must recover.
	fmt.Println("proprietary tables (hidden from the pipeline):")
	for _, b := range veh.Bindings() {
		for _, did := range b.ECU.DIDs() {
			if spec, _ := b.ECU.DIDSpecFor(did); !spec.Enum {
				fmt.Printf("  DID %04X %s: %s\n", did, spec.Name, spec.Codec.Expr)
			}
		}
	}

	tool, err := diagtool.New(profile.Tool, veh)
	if err != nil {
		fmt.Println("tool failed:", err)
		return
	}
	defer tool.Close()
	cfg := rig.DefaultConfig()
	cfg.ReadDuration = 20 * time.Second
	r := rig.New(tool, veh, cfg)
	defer r.Close()
	capture, err := r.RunFull()
	if err != nil {
		fmt.Println("capture failed:", err)
		return
	}
	result, err := reverser.New().Reverse(context.Background(), capture)
	if err != nil {
		fmt.Println("reverse failed:", err)
		return
	}

	// The fuel level is a known miss: it is read at too few distinct
	// values, and its fit is 0.4·X − 1.38 rather than 0.392·X.
	fmt.Println("recovered by the pipeline:")
	for _, esv := range result.ESVs {
		if esv.Key.Proto == "UDS" && !esv.Enum && esv.Formula != nil {
			fmt.Printf("  DID %04X %s: Y = %s\n", esv.Key.DID, esv.Label, esv.Formula)
		}
	}

	// Direct ECU construction gives full control over one unit.
	battery := ecu.New(ecu.Config{
		Name:  "Battery Management",
		Clock: veh.Clock,
		DIDs: []ecu.DIDSpec{{
			DID: 0xB042, Name: "Pack temperature", Unit: "°C",
			Codec:  ecu.AffineCodec(1, 0.5, -40),
			Signal: signal.CoolantTemp(999),
			Min:    -40, Max: 87.5,
		}},
	})
	fmt.Printf("hand-built ECU answers 22 B0 42 with % X\n", battery.HandleUDS([]byte{0x22, 0xB0, 0x42}))
	// Output:
	// proprietary tables (hidden from the pipeline):
	//   DID 1002 Engine speed: Y = 0.25*(256*X0+X1) + 0
	//   DID 1007 Vehicle speed: Y = 1*X + 0
	//   DID 1010 Coolant temperature: Y = 1*X + -40
	//   DID 1019 Throttle position: Y = 0.39215686274509803*X + 0
	//   DID 101F Battery voltage: Y = 0.1*X + 0
	//   DID 1025 Fuel level: Y = 0.392*X + 0
	// recovered by the pipeline:
	//   DID 1002 Engine speed: Y = ((0.25 * X0) + -0.1118)
	//   DID 1007 Vehicle speed: Y = X0
	//   DID 1010 Coolant temperature: Y = (X0 + -40)
	//   DID 1019 Throttle position: Y = ((0.3922 * X0) + -0.002165)
	//   DID 101F Battery voltage: Y = (0.1 * X0)
	//   DID 1025 Fuel level: Y = ((0.4 * X0) + -1.38)
	// hand-built ECU answers 22 B0 42 with 62 B0 42 EA
}
