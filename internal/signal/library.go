package signal

import "time"

// The constructors below build the physically-plausible signals the vehicle
// fleet uses. Ranges follow the quantities the paper reads from real cars:
// engine RPM, vehicle speed, coolant temperature, throttle position, fuel
// level, manifold pressure, battery voltage, steering angle, lateral
// acceleration, and torque assistance.

// EngineRPM models idle-to-highway engine speed: a bounded random walk
// between 700 and 4500 rpm.
func EngineRPM(seed int64) Signal {
	return NewRandomWalk(seed, 850, 180, 700, 4500, 200*time.Millisecond)
}

// VehicleSpeed models city driving speed in km/h.
func VehicleSpeed(seed int64) Signal {
	return NewRandomWalk(seed, 30, 2.5, 0, 130, 250*time.Millisecond)
}

// CoolantTemp models coolant warming toward operating temperature (°C)
// with small fluctuation.
func CoolantTemp(seed int64) Signal {
	return Sum{
		Ramp{Start: 20, PerSecond: 0.8, Min: 20, Max: 92},
		NewRandomWalk(seed, 0, 0.4, -3, 3, 500*time.Millisecond),
	}
}

// ThrottlePosition models pedal position in percent.
func ThrottlePosition(seed int64) Signal {
	return NewRandomWalk(seed, 12, 4, 0, 100, 150*time.Millisecond)
}

// FuelLevel models a slowly draining tank in percent.
func FuelLevel(seed int64) Signal {
	return Sum{
		Ramp{Start: 68, PerSecond: -0.01, Min: 5, Max: 100},
		NewRandomWalk(seed, 0, 0.15, -1.5, 1.5, time.Second),
	}
}

// ManifoldPressure models intake manifold absolute pressure in kPa.
func ManifoldPressure(seed int64) Signal {
	return NewRandomWalk(seed, 35, 4, 15, 105, 200*time.Millisecond)
}

// BatteryVoltage models system voltage with alternator ripple.
func BatteryVoltage(seed int64) Signal {
	return Sum{
		Constant(13.8),
		Sine{Amplitude: 0.25, Period: 7 * time.Second},
		NewRandomWalk(seed, 0, 0.05, -0.4, 0.4, 400*time.Millisecond),
	}
}

// LateralAcceleration models lateral g-force in m/s².
func LateralAcceleration(seed int64) Signal {
	return Sum{
		Sine{Amplitude: 2.1, Period: 9 * time.Second},
		NewRandomWalk(seed, 0, 0.2, -1.5, 1.5, 300*time.Millisecond),
	}
}

// TorqueAssistance models power-steering torque assistance in the
// normalised unit the KWP formula type 0x24 encodes (±0.255 full scale,
// matching the paper's observed byte ranges), including the sign changes
// that flip the X1 selector byte between 0x7F and 0x81.
func TorqueAssistance(seed int64) Signal {
	return Sum{
		Sine{Amplitude: 0.16, Period: 6 * time.Second},
		NewRandomWalk(seed, 0, 0.02, -0.08, 0.08, 250*time.Millisecond),
	}
}

// BrakePressure models hydraulic brake pressure in bar.
func BrakePressure(seed int64) Signal {
	return NewRandomWalk(seed, 4, 6, 0, 120, 200*time.Millisecond)
}

// AcceleratorPosition models accelerator pedal travel in percent.
func AcceleratorPosition(seed int64) Signal {
	return NewRandomWalk(seed, 15, 5, 0, 100, 150*time.Millisecond)
}

// OilTemperature models engine oil temperature in °C.
func OilTemperature(seed int64) Signal {
	return Sum{
		Ramp{Start: 18, PerSecond: 0.5, Min: 18, Max: 110},
		NewRandomWalk(seed, 0, 0.3, -2, 2, 700*time.Millisecond),
	}
}

// FuelInjectionQuantity models per-cylinder fuel injection in mm³/stroke.
func FuelInjectionQuantity(seed int64) Signal {
	return NewRandomWalk(seed, 12, 2, 2, 60, 180*time.Millisecond)
}

// DoorState models a door toggling between closed (0) and open (1) — an
// enum ESV with no formula.
func DoorState() Signal {
	return Switched{States: []float64{0, 0, 0, 1, 0, 1, 1, 0}, Dwell: 4 * time.Second}
}

// GearPosition models an automatic gearbox cycling P-R-N-D (0-3).
func GearPosition() Signal {
	return Switched{States: []float64{0, 1, 2, 3, 3, 2, 3, 0}, Dwell: 5 * time.Second}
}

// LampState models an indicator lamp duty cycle (0/1).
func LampState() Signal {
	return Switched{States: []float64{0, 1}, Dwell: 3 * time.Second}
}
