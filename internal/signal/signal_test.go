package signal

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestConstant(t *testing.T) {
	s := Constant(42.5)
	for _, at := range []time.Duration{0, time.Second, time.Hour} {
		if got := s.Value(at); got != 42.5 {
			t.Fatalf("Constant.Value(%v) = %v, want 42.5", at, got)
		}
	}
}

func TestRampLinearAndClamped(t *testing.T) {
	r := Ramp{Start: 10, PerSecond: 2, Min: 0, Max: 20}
	if got := r.Value(0); got != 10 {
		t.Fatalf("Value(0) = %v, want 10", got)
	}
	if got := r.Value(3 * time.Second); got != 16 {
		t.Fatalf("Value(3s) = %v, want 16", got)
	}
	if got := r.Value(time.Hour); got != 20 {
		t.Fatalf("Value(1h) = %v, want clamp at 20", got)
	}
}

func TestRampUnclampedWhenBoundsUnset(t *testing.T) {
	r := Ramp{Start: 0, PerSecond: 1}
	if got := r.Value(100 * time.Second); got != 100 {
		t.Fatalf("unbounded ramp Value(100s) = %v, want 100", got)
	}
}

func TestSineRangeAndPeriod(t *testing.T) {
	s := Sine{Center: 50, Amplitude: 10, Period: 4 * time.Second}
	if got := s.Value(0); math.Abs(got-50) > 1e-9 {
		t.Fatalf("Value(0) = %v, want 50", got)
	}
	if got := s.Value(time.Second); math.Abs(got-60) > 1e-9 {
		t.Fatalf("Value(T/4) = %v, want 60", got)
	}
	if got := s.Value(3 * time.Second); math.Abs(got-40) > 1e-9 {
		t.Fatalf("Value(3T/4) = %v, want 40", got)
	}
}

func TestSineZeroPeriodIsCenter(t *testing.T) {
	s := Sine{Center: 5, Amplitude: 100, Period: 0}
	if got := s.Value(time.Second); got != 5 {
		t.Fatalf("zero-period sine = %v, want center 5", got)
	}
}

func TestRandomWalkDeterministic(t *testing.T) {
	a := NewRandomWalk(7, 50, 5, 0, 100, 100*time.Millisecond)
	b := NewRandomWalk(7, 50, 5, 0, 100, 100*time.Millisecond)
	for i := 0; i < 200; i++ {
		at := time.Duration(i) * 37 * time.Millisecond
		if a.Value(at) != b.Value(at) {
			t.Fatalf("walks with same seed diverge at %v", at)
		}
	}
}

func TestRandomWalkRereadSameInstant(t *testing.T) {
	w := NewRandomWalk(3, 10, 1, 0, 20, 50*time.Millisecond)
	at := 2 * time.Second
	first := w.Value(at)
	w.Value(10 * time.Second) // advance cache past at
	if got := w.Value(at); got != first {
		t.Fatalf("re-read Value(%v) = %v, want %v (deterministic replay)", at, got, first)
	}
}

func TestRandomWalkBounds(t *testing.T) {
	w := NewRandomWalk(11, 5, 50, 0, 10, 10*time.Millisecond)
	for i := 0; i < 1000; i++ {
		v := w.Value(time.Duration(i) * 10 * time.Millisecond)
		if v < 0 || v > 10 {
			t.Fatalf("walk escaped bounds: %v", v)
		}
	}
}

func TestRandomWalkNegativeTimeClampedToZero(t *testing.T) {
	w := NewRandomWalk(1, 5, 1, 0, 10, time.Second)
	if got, want := w.Value(-time.Hour), w.Value(0); got != want {
		t.Fatalf("Value(-1h) = %v, want Value(0) = %v", got, want)
	}
}

func TestRandomWalkConstructorValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero step":      func() { NewRandomWalk(1, 0, 1, 0, 10, 0) },
		"inverted range": func() { NewRandomWalk(1, 0, 1, 10, 0, time.Second) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: constructor did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestQuantized(t *testing.T) {
	q := Quantized{S: Constant(7.3), Step: 0.5}
	if got := q.Value(0); got != 7.5 {
		t.Fatalf("Quantized = %v, want 7.5", got)
	}
	q = Quantized{S: Constant(7.3), Step: 0}
	if got := q.Value(0); got != 7.3 {
		t.Fatalf("Step=0 should pass through, got %v", got)
	}
}

func TestSum(t *testing.T) {
	s := Sum{Constant(1), Constant(2), Ramp{PerSecond: 1}}
	if got := s.Value(3 * time.Second); got != 6 {
		t.Fatalf("Sum = %v, want 6", got)
	}
	if got := (Sum{}).Value(0); got != 0 {
		t.Fatalf("empty Sum = %v, want 0", got)
	}
}

func TestSwitchedCycles(t *testing.T) {
	s := Switched{States: []float64{0, 1, 2}, Dwell: time.Second}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 0}, {999 * time.Millisecond, 0}, {time.Second, 1},
		{2500 * time.Millisecond, 2}, {3 * time.Second, 0},
	}
	for _, c := range cases {
		if got := s.Value(c.at); got != c.want {
			t.Fatalf("Switched.Value(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestSwitchedDegenerate(t *testing.T) {
	if got := (Switched{}).Value(time.Second); got != 0 {
		t.Fatalf("empty Switched = %v, want 0", got)
	}
	s := Switched{States: []float64{9}, Dwell: 0}
	if got := s.Value(time.Hour); got != 9 {
		t.Fatalf("zero-dwell Switched = %v, want 9", got)
	}
}

// Property: every library signal stays within its physical envelope over a
// long horizon.
func TestLibrarySignalEnvelopes(t *testing.T) {
	cases := []struct {
		name     string
		s        Signal
		min, max float64
	}{
		{"EngineRPM", EngineRPM(1), 700, 4500},
		{"VehicleSpeed", VehicleSpeed(2), 0, 130},
		{"CoolantTemp", CoolantTemp(3), 15, 96},
		{"ThrottlePosition", ThrottlePosition(4), 0, 100},
		{"FuelLevel", FuelLevel(5), 3, 102},
		{"ManifoldPressure", ManifoldPressure(6), 15, 105},
		{"BatteryVoltage", BatteryVoltage(7), 12.5, 15},
		{"LateralAcceleration", LateralAcceleration(9), -4, 4},
		{"TorqueAssistance", TorqueAssistance(10), -0.255, 0.255},
		{"BrakePressure", BrakePressure(11), 0, 120},
		{"AcceleratorPosition", AcceleratorPosition(12), 0, 100},
		{"OilTemperature", OilTemperature(13), 15, 113},
		{"FuelInjectionQuantity", FuelInjectionQuantity(14), 2, 60},
		{"DoorState", DoorState(), 0, 1},
		{"GearPosition", GearPosition(), 0, 3},
		{"LampState", LampState(), 0, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for i := 0; i < 600; i++ {
				at := time.Duration(i) * 100 * time.Millisecond
				v := c.s.Value(at)
				if v < c.min || v > c.max {
					t.Fatalf("at %v value %v escapes [%v, %v]", at, v, c.min, c.max)
				}
			}
		})
	}
}

// Property: library formula-bearing signals actually vary — a frozen signal
// would degrade formula inference (paper §4.3).
func TestLibrarySignalsVary(t *testing.T) {
	varying := []struct {
		name string
		s    Signal
	}{
		{"EngineRPM", EngineRPM(21)},
		{"VehicleSpeed", VehicleSpeed(22)},
		{"CoolantTemp", CoolantTemp(23)},
		{"ThrottlePosition", ThrottlePosition(24)},
	}
	for _, c := range varying {
		t.Run(c.name, func(t *testing.T) {
			min, max := math.Inf(1), math.Inf(-1)
			for i := 0; i < 600; i++ {
				v := c.s.Value(time.Duration(i) * 100 * time.Millisecond)
				min = math.Min(min, v)
				max = math.Max(max, v)
			}
			if max-min < 1e-6 {
				t.Fatalf("signal did not vary over 60s (min=max=%v)", min)
			}
		})
	}
}

// Property: Value is a pure function of t for random walks (quick check over
// arbitrary read orders).
func TestRandomWalkPureFunctionProperty(t *testing.T) {
	w := NewRandomWalk(99, 50, 3, 0, 100, 100*time.Millisecond)
	ref := map[time.Duration]float64{}
	for i := 0; i <= 100; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		ref[at] = w.Value(at)
	}
	f := func(steps []uint8) bool {
		for _, s := range steps {
			at := time.Duration(s%101) * 100 * time.Millisecond
			if w.Value(at) != ref[at] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
