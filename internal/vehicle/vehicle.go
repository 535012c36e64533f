package vehicle

import (
	"fmt"
	"math/rand"

	"dpreverser/internal/can"
	"dpreverser/internal/ecu"
	"dpreverser/internal/isotp"
	"dpreverser/internal/obd"
	"dpreverser/internal/signal"
	"dpreverser/internal/sim"
	"dpreverser/internal/uds"
	"dpreverser/internal/vwtp"
)

// ECUBinding ties one ECU to its transport addressing so diagnostic tools
// know where to send requests (the tool vendor ships this knowledge; the
// reverse-engineering pipeline does not use it).
type ECUBinding struct {
	ECU *ecu.ECU
	// ReqID / RespID are the CAN IDs for ISO-TP and BMW cars.
	ReqID, RespID uint32
	// Addr is the ECU address for VW TP 2.0 and BMW extended addressing.
	Addr byte
}

// Vehicle is one assembled car: a bus, a set of transport-bound ECUs, an
// OBD-II responder, and dashboard signals.
type Vehicle struct {
	Profile Profile
	Clock   *sim.Clock
	Bus     *can.Bus

	bindings []ECUBinding

	// obdSignals back the OBD-II responder and the dashboard.
	obdSignals map[byte]signal.Signal

	closers []func()
}

// Build assembles the vehicle for a profile on a fresh bus. The clock may
// be nil (a new one is created).
func Build(p Profile, clock *sim.Clock) *Vehicle {
	if clock == nil {
		clock = sim.NewClock(0)
	}
	v := &Vehicle{
		Profile: p,
		Clock:   clock,
		Bus:     can.NewBus(clock),
	}
	rng := rand.New(rand.NewSource(p.Seed))
	specs := generateECUs(p, clock, rng)
	v.wireTransports(specs, rng)
	v.wireOBD(p.Seed, sharedSignals(specs))
	return v
}

// sharedSignals collects the proprietary sensors that standard OBD-II PIDs
// (and the dashboard) physically alias: the car has one engine, so the
// engine speed read through a proprietary DID, through OBD-II, and shown
// on the instrument cluster is the same signal — the property the paper's
// Table 7 dashboard validation relies on.
func sharedSignals(cfgs []ecu.Config) map[string]signal.Signal {
	out := map[string]signal.Signal{}
	record := func(name, unit string, s signal.Signal) {
		key := name + "|" + unit
		if _, ok := out[key]; !ok {
			out[key] = s
		}
	}
	for _, cfg := range cfgs {
		for _, d := range cfg.DIDs {
			record(d.Name, d.Unit, d.Signal)
		}
		for _, l := range cfg.Locals {
			for _, e := range l.ESVs {
				record(e.Name, e.Unit, e.Signal)
			}
		}
	}
	return out
}

// Close detaches all transport endpoints from the bus.
func (v *Vehicle) Close() {
	for _, c := range v.closers {
		c()
	}
	v.closers = nil
}

// Bindings lists the transport-bound ECUs.
func (v *Vehicle) Bindings() []ECUBinding {
	return append([]ECUBinding(nil), v.bindings...)
}

// ECUs lists the vehicle's ECUs.
func (v *Vehicle) ECUs() []*ecu.ECU {
	out := make([]*ecu.ECU, len(v.bindings))
	for i, b := range v.bindings {
		out[i] = b.ECU
	}
	return out
}

// Dashboard reports the values a driver would read off the instrument
// cluster right now — the independent ground truth of Table 7.
func (v *Vehicle) Dashboard() map[string]float64 {
	now := v.Clock.Now()
	return map[string]float64{
		"Vehicle speed":       v.obdSignals[obd.PIDVehicleSpeed].Value(now),
		"Engine speed":        v.obdSignals[obd.PIDEngineRPM].Value(now),
		"Coolant temperature": v.obdSignals[obd.PIDCoolantTemp].Value(now),
		"Fuel level":          v.obdSignals[obd.PIDFuelTankLevel].Value(now),
	}
}

// OBDSignal exposes one standard-PID signal: the ground truth the car's
// OBD responses for pid encode.
func (v *Vehicle) OBDSignal(pid byte) (signal.Signal, bool) {
	s, ok := v.obdSignals[pid]
	return s, ok
}

// generateECUs builds the per-car proprietary tables: formula ESVs, enum
// ESVs, and actuators, spread over a handful of ECUs.
func generateECUs(p Profile, clock *sim.Clock, rng *rand.Rand) []ecu.Config {
	numECUs := 1 + (p.NumFormulaESVs+p.NumEnumESVs)/12
	if numECUs > len(ecuNames) {
		numECUs = len(ecuNames)
	}
	cfgs := make([]ecu.Config, numECUs)
	for i := range cfgs {
		cfgs[i] = ecu.Config{Name: ecuNames[i], Clock: clock, SecuredIO: p.SecuredIO}
		if p.Protocol == KWP2000 {
			cfgs[i].Identification = fmt.Sprintf("%03dK0 907 %03d %c  %-18s Coding 0%04d",
				1+rng.Intn(8), 100+rng.Intn(899), 'A'+byte(rng.Intn(26)), ecuNames[i], rng.Intn(99999))
		}
		// A realistic car carries a few stored trouble codes.
		for _, code := range dtcPool {
			if rng.Intn(4) == 0 {
				cfgs[i].DTCs = append(cfgs[i].DTCs, uds.DTC{Code: code, Status: uds.DTCStatusConfirmed})
			}
		}
	}

	// Non-overlapping identifier spaces, shuffled per car.
	didAt := func(i int) uint16 { return uint16(0x1000 + 7*i + rng.Intn(5)) }
	enumDIDAt := func(i int) uint16 { return uint16(0xD000 + 5*i + rng.Intn(3)) }

	if p.Protocol == UDS {
		for i := 0; i < p.NumFormulaESVs; i++ {
			arch := udsFormulaArchetypes[i%len(udsFormulaArchetypes)]
			round := i / len(udsFormulaArchetypes)
			spec := ecu.DIDSpec{
				DID:    didAt(i),
				Name:   archName(arch.name, round),
				Unit:   arch.unit,
				Codec:  arch.mkCodec(rng),
				Signal: arch.mkSignal(p.Seed*1000 + int64(i)),
				Min:    arch.min, Max: arch.max,
			}
			c := &cfgs[i%numECUs]
			c.DIDs = append(c.DIDs, spec)
		}
		for i := 0; i < p.NumEnumESVs; i++ {
			arch := udsEnumArchetypes[i%len(udsEnumArchetypes)]
			round := i / len(udsEnumArchetypes)
			spec := ecu.DIDSpec{
				DID:    enumDIDAt(i),
				Name:   archName(arch.name, round),
				Unit:   arch.unit,
				Enum:   true,
				Codec:  arch.mkCodec(rng),
				Signal: arch.mkSignal(p.Seed*2000 + int64(i)),
				Min:    arch.min, Max: arch.max,
			}
			c := &cfgs[i%numECUs]
			c.DIDs = append(c.DIDs, spec)
		}
	} else {
		// KWP: group ESVs into measuring blocks of up to 4.
		type esvGen struct {
			spec ecu.LocalESVSpec
		}
		var all []esvGen
		for i := 0; i < p.NumFormulaESVs; i++ {
			arch := kwpFormulaArchetypes[i%len(kwpFormulaArchetypes)]
			round := i / len(kwpFormulaArchetypes)
			all = append(all, esvGen{ecu.LocalESVSpec{
				Name: archName(arch.name, round), Unit: arch.unit,
				FType: arch.fType, Scale: arch.scale,
				Signal: arch.mkSignal(p.Seed*1000 + int64(i)),
				Min:    arch.min, Max: arch.max,
			}})
		}
		for i := 0; i < p.NumEnumESVs; i++ {
			arch := kwpEnumArchetypes[i%len(kwpEnumArchetypes)]
			round := i / len(kwpEnumArchetypes)
			all = append(all, esvGen{ecu.LocalESVSpec{
				Name: archName(arch.name, round), Unit: arch.unit,
				FType: arch.fType, Scale: arch.scale, Enum: true,
				Signal: arch.mkSignal(p.Seed*2000 + int64(i)),
				Min:    arch.min, Max: arch.max,
			}})
		}
		// Measuring blocks carry up to 14 ESVs: tools read whole blocks, so
		// KWP responses span many TP 2.0 frames — the Table 9 traffic
		// shape (~75% of data frames must wait for successors).
		blockID := byte(1)
		for start := 0; start < len(all); start += 14 {
			end := start + 14
			if end > len(all) {
				end = len(all)
			}
			block := ecu.LocalSpec{LocalID: blockID, Name: fmt.Sprintf("Measuring block %03d", blockID)}
			for _, g := range all[start:end] {
				block.ESVs = append(block.ESVs, g.spec)
			}
			c := &cfgs[int(blockID-1)%numECUs]
			c.Locals = append(c.Locals, block)
			blockID++
		}
	}

	// Actuators (Table 11).
	for i := 0; i < p.NumECRs; i++ {
		name := archName(actuatorNames[i%len(actuatorNames)], i/len(actuatorNames))
		state := []byte{byte(1 + rng.Intn(10)), byte(rng.Intn(2)), 0x00, 0x00}
		spec := ecu.ActuatorSpec{Name: name, State: state}
		if p.ECRService == 0x2F && p.Protocol == UDS {
			spec.DID = uint16(0x0900 + 13*i + rng.Intn(7))
		} else {
			spec.LocalID = byte(0x10 + i)
		}
		c := &cfgs[i%numECUs]
		c.Actuators = append(c.Actuators, spec)
	}
	return cfgs
}

// dtcPool is the trouble-code inventory simulated cars draw from.
var dtcPool = []uint32{0x030100, 0x042000, 0x171300, 0x442A00, 0x844100}

// wireTransports binds each ECU to the bus with the profile's transport.
func (v *Vehicle) wireTransports(cfgs []ecu.Config, rng *rand.Rand) {
	for i, cfg := range cfgs {
		unit := ecu.New(cfg)
		binding := ECUBinding{ECU: unit}
		switch v.Profile.Transport {
		case ISOTP, BMWExt:
			cfg := isotp.EndpointConfig{TxID: uint32(0x701 + 2*i), RxID: uint32(0x700 + 2*i), Pad: 0xAA}
			if v.Profile.Transport == BMWExt {
				binding.Addr = byte(0x10 + 0x10*i)
				cfg = isotp.EndpointConfig{
					TxID: isotp.ExtendedECUBase + uint32(binding.Addr), RxID: isotp.ExtendedTesterID,
					Extended: true, TxAddr: testerAddr, RxAddr: binding.Addr,
				}
			}
			binding.ReqID, binding.RespID = cfg.RxID, cfg.TxID
			ep := isotp.NewEndpoint(v.Bus, cfg)
			ep.OnMessage = func(req []byte) {
				resp := v.dispatch(unit, req)
				if resp != nil {
					if err := ep.Send(resp); err != nil {
						panic(fmt.Sprintf("vehicle: ecu response send failed: %v", err))
					}
				}
			}
			v.closers = append(v.closers, ep.Close)

		case VWTP:
			binding.Addr = byte(0x01 + i)
			l := vwtp.NewListener(v.Bus, binding.Addr, func(ch *vwtp.Channel) {
				ch.OnMessage = func(req []byte) {
					resp := v.dispatch(unit, req)
					if resp != nil {
						if err := ch.Send(resp); err != nil {
							panic(fmt.Sprintf("vehicle: ecu response send failed: %v", err))
						}
					}
				}
			})
			v.closers = append(v.closers, l.Close)
		}
		v.bindings = append(v.bindings, binding)
	}
}

// dispatch routes a request payload to the right application-layer server.
// KWP cars speak KWP end to end; UDS cars speak UDS, except that the
// manufacturers using IO-control-by-local-identifier (Table 11's service
// 0x30 rows — Lexus, Mini, BMW, Nissan) route that one legacy service to
// the KWP handler, as their real tools do.
func (v *Vehicle) dispatch(unit *ecu.ECU, req []byte) []byte {
	if len(req) == 0 {
		return nil
	}
	if v.Profile.Protocol == KWP2000 {
		return unit.HandleKWP(req)
	}
	if req[0] == 0x30 {
		return unit.HandleKWP(req)
	}
	return unit.HandleUDS(req)
}

// wireOBD attaches the OBD-II mode-01 responder on the standard functional
// request ID. PIDs alias the car's proprietary sensors where the car
// exposes the same quantity; anything the proprietary tables do not cover
// gets its own per-car signal.
func (v *Vehicle) wireOBD(seed int64, shared map[string]signal.Signal) {
	// The unit must match too: a KWP car reporting manifold pressure in
	// mbar cannot back the kPa-denominated PID.
	pick := func(name, unit string, fallback signal.Signal) signal.Signal {
		if s, ok := shared[name+"|"+unit]; ok {
			return s
		}
		return fallback
	}
	v.obdSignals = map[byte]signal.Signal{
		obd.PIDEngineLoad:        signal.ThrottlePosition(seed*31 + 1),
		obd.PIDCoolantTemp:       pick("Coolant temperature", "°C", signal.CoolantTemp(seed*31+2)),
		obd.PIDIntakeManifoldKPa: pick("Manifold pressure", "kPa", signal.ManifoldPressure(seed*31+3)),
		obd.PIDEngineRPM:         pick("Engine speed", "rpm", signal.EngineRPM(seed*31+4)),
		obd.PIDVehicleSpeed:      pick("Vehicle speed", "km/h", signal.VehicleSpeed(seed*31+5)),
		obd.PIDThrottlePosition:  pick("Throttle position", "%", signal.ThrottlePosition(seed*31+6)),
		obd.PIDFuelTankLevel:     pick("Fuel level", "%", signal.FuelLevel(seed*31+7)),
	}
	ep := isotp.NewEndpoint(v.Bus, isotp.EndpointConfig{
		TxID: obd.FirstResponseID, RxID: obd.FunctionalRequestID, Pad: 0x55,
	})
	ep.OnMessage = func(req []byte) {
		pid, err := obd.ParseRequest(req)
		if err != nil {
			return
		}
		sig, ok := v.obdSignals[pid]
		if !ok {
			if e := ep.Send(uds.BuildNegativeResponse(obd.ModeCurrentData, uds.NRCRequestOutOfRange)); e != nil {
				panic(fmt.Sprintf("vehicle: obd negative response failed: %v", e))
			}
			return
		}
		resp, err := obd.BuildResponse(pid, sig.Value(v.Clock.Now()))
		if err != nil {
			return
		}
		if e := ep.Send(resp); e != nil {
			panic(fmt.Sprintf("vehicle: obd response failed: %v", e))
		}
	}
	v.closers = append(v.closers, ep.Close)
}
