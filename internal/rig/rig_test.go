package rig

import (
	"math/rand"
	"testing"
	"time"

	"dpreverser/internal/can"
	"dpreverser/internal/diagtool"
	"dpreverser/internal/isotp"
	"dpreverser/internal/obd"
	"dpreverser/internal/ocr"
	"dpreverser/internal/sim"
	"dpreverser/internal/vehicle"
)

func TestClickerMovementCost(t *testing.T) {
	clock := sim.NewClock(0)
	c := NewClicker(clock, 100) // 100 px/s
	c.MoveTo(30, 40)
	if c.Traveled() != 70 {
		t.Fatalf("Traveled = %v, want 70 (Manhattan)", c.Traveled())
	}
	if clock.Now() != 700*time.Millisecond {
		t.Fatalf("clock = %v, want 700ms", clock.Now())
	}
	x, y := c.Position()
	if x != 30 || y != 40 {
		t.Fatalf("position = (%d,%d)", x, y)
	}
}

func TestClickerClickLogsEvent(t *testing.T) {
	clock := sim.NewClock(0)
	c := NewClicker(clock, 1000)
	hits := 0
	c.Click(10, 10, "OK", func(x, y int) bool { hits++; return true })
	c.Click(20, 20, "missing", func(x, y int) bool { return false })
	log := c.Log()
	if len(log) != 2 || hits != 1 {
		t.Fatalf("log = %+v, hits = %d", log, hits)
	}
	if !log[0].Hit || log[1].Hit {
		t.Fatal("hit flags wrong")
	}
	if log[0].Text != "OK" || log[0].X != 10 {
		t.Fatalf("event = %+v", log[0])
	}
	if log[1].At <= log[0].At {
		t.Fatal("timestamps not increasing")
	}
}

func TestTourLength(t *testing.T) {
	start := Point{0, 0}
	order := []Point{{10, 0}, {10, 10}}
	// 10 + 10 + back home 20 = 40.
	if got := TourLength(start, order); got != 40 {
		t.Fatalf("TourLength = %v, want 40", got)
	}
	if TourLength(start, nil) != 0 {
		t.Fatal("empty tour length != 0")
	}
}

func TestNearestNeighborVisitsAll(t *testing.T) {
	points := []Point{{5, 5}, {1, 1}, {9, 9}, {3, 3}}
	order := NearestNeighbor(Point{0, 0}, points)
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	// Greedy from origin: 1,1 then 3,3 then 5,5 then 9,9.
	want := []Point{{1, 1}, {3, 3}, {5, 5}, {9, 9}}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNearestNeighborBeatsRandomOn14Targets(t *testing.T) {
	// The §3.1 claim: nearest neighbour saves ≈7% of movement over random
	// ordering when clicking 14 ESVs.
	rng := rand.New(rand.NewSource(99))
	var nnTotal, rndTotal float64
	for trial := 0; trial < 50; trial++ {
		points := make([]Point, 14)
		for i := range points {
			points[i] = Point{X: rng.Intn(1024), Y: rng.Intn(768)}
		}
		start := Point{0, 0}
		nnTotal += TourLength(start, NearestNeighbor(start, points))
		rndTotal += TourLength(start, RandomOrder(points, rng))
	}
	if nnTotal >= rndTotal {
		t.Fatalf("NN (%v) not better than random (%v)", nnTotal, rndTotal)
	}
	savings := (rndTotal - nnTotal) / rndTotal
	if savings < 0.05 {
		t.Fatalf("NN savings = %.1f%%, expected ≥5%%", savings*100)
	}
}

func TestExhaustiveOptimalAndBounded(t *testing.T) {
	points := []Point{{10, 0}, {0, 10}, {10, 10}, {5, 5}}
	start := Point{0, 0}
	best, ok := Exhaustive(start, points)
	if !ok {
		t.Fatal("exhaustive refused 4 points")
	}
	bestLen := TourLength(start, best)
	nnLen := TourLength(start, NearestNeighbor(start, points))
	if bestLen > nnLen {
		t.Fatalf("exhaustive (%v) worse than NN (%v)", bestLen, nnLen)
	}
	if _, ok := Exhaustive(start, make([]Point, 10)); ok {
		t.Fatal("exhaustive accepted 10 points")
	}
}

func newRig(t *testing.T, car string, cfg Config) (*Rig, *vehicle.Vehicle) {
	t.Helper()
	p, ok := vehicle.ProfileByCar(car)
	if !ok {
		t.Fatalf("unknown car %q", car)
	}
	clock := sim.NewClock(0)
	tool, veh, err := diagtool.ForProfile(p, clock)
	if err != nil {
		t.Fatal(err)
	}
	r := New(tool, veh, cfg)
	t.Cleanup(func() { r.Close(); tool.Close(); veh.Close() })
	return r, veh
}

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.ReadDuration = 5 * time.Second
	cfg.AlignDuration = 3 * time.Second
	cfg.TestDuration = time.Second
	return cfg
}

func TestRigAlignmentPhase(t *testing.T) {
	r, _ := newRig(t, "Car A", fastConfig())
	if err := r.CollectAlignment(); err != nil {
		t.Fatal(err)
	}
	cap := r.Capture()
	// OBD traffic must be on the wire.
	obdFrames := 0
	for _, f := range cap.Frames {
		if f.ID == obd.FunctionalRequestID || f.ID == obd.FirstResponseID {
			obdFrames++
		}
	}
	if obdFrames == 0 {
		t.Fatal("no OBD frames captured during alignment")
	}
	// And the video must show the OBD screen with values.
	obdUI := 0
	for _, f := range cap.UIFrames {
		if f.ScreenName == "obd-live" && len(ocr.Layout(f.Texts, nil)) > 0 {
			obdUI++
		}
	}
	if obdUI == 0 {
		t.Fatal("no OBD UI frames recorded")
	}
}

func TestRigReadSessionCapture(t *testing.T) {
	r, veh := newRig(t, "Car A", fastConfig())
	if err := r.CollectReadSessions(); err != nil {
		t.Fatal(err)
	}
	cap := r.Capture()
	if len(cap.Frames) == 0 || len(cap.UIFrames) == 0 || len(cap.Clicks) == 0 {
		t.Fatalf("capture empty: %d frames, %d ui, %d clicks",
			len(cap.Frames), len(cap.UIFrames), len(cap.Clicks))
	}
	// Diagnostic requests to every ECU's request ID must appear.
	reqIDs := map[uint32]bool{}
	for _, f := range cap.Frames {
		reqIDs[f.ID] = true
	}
	for _, b := range veh.Bindings() {
		if !reqIDs[b.ReqID] {
			t.Fatalf("no traffic to ECU %s (id %#x)", b.ECU.Name, b.ReqID)
		}
	}
	// Live-data UI frames must carry parsed values.
	withValues := 0
	for _, f := range cap.UIFrames {
		if f.ScreenName != "live-data" {
			continue
		}
		for _, row := range ocr.Layout(f.Texts, nil) {
			if row.ParseOK {
				withValues++
				break
			}
		}
	}
	if withValues < 5 {
		t.Fatalf("only %d live-data frames with values", withValues)
	}
}

func TestRigReadSessionKWP(t *testing.T) {
	r, _ := newRig(t, "Car C", fastConfig()) // Lavida: KWP over VW TP 2.0
	if err := r.CollectReadSessions(); err != nil {
		t.Fatal(err)
	}
	cap := r.Capture()
	if len(cap.UIFrames) == 0 {
		t.Fatal("no UI frames")
	}
	dataFrames := 0
	for _, f := range cap.Frames {
		if f.Len > 0 && f.ID != obd.FunctionalRequestID && f.ID != obd.FirstResponseID {
			dataFrames++
		}
	}
	if dataFrames == 0 {
		t.Fatal("no VW TP traffic")
	}
}

func TestRigActiveTests(t *testing.T) {
	r, veh := newRig(t, "Car I", fastConfig()) // Changan Eado: 10 ECRs, 2F
	if err := r.CollectActiveTests(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range veh.Bindings() {
		events := b.ECU.Events()
		total += len(events)
	}
	if total == 0 {
		t.Fatal("no actuation events recorded")
	}
	// Every configured actuator must have been driven.
	for _, b := range veh.Bindings() {
		driven := map[string]bool{}
		for _, e := range b.ECU.Events() {
			driven[e.Actuator] = true
		}
		for _, a := range b.ECU.Actuators() {
			if !driven[a.Name] {
				t.Fatalf("actuator %q never driven", a.Name)
			}
		}
	}
	// IO-control frames must be in the capture.
	cap := r.Capture()
	ioFrames := 0
	for _, f := range cap.Frames {
		for _, by := range f.Payload() {
			if by == 0x2F {
				ioFrames++
				break
			}
		}
	}
	if ioFrames == 0 {
		t.Fatal("no IO-control traffic captured")
	}
}

func TestRigFullSessionOnSmallCar(t *testing.T) {
	r, _ := newRig(t, "Car M", fastConfig()) // Peugeot: small inventory
	cap, err := r.RunFull()
	if err != nil {
		t.Fatal(err)
	}
	if cap.Car != "Car M" || cap.ToolName != "AUTEL 919" {
		t.Fatalf("capture meta = %+v", cap)
	}
	if len(cap.Frames) == 0 || len(cap.UIFrames) == 0 {
		t.Fatal("full session produced empty capture")
	}
}

func TestCameraOffsetAppliedToUIFrames(t *testing.T) {
	// Run the same deterministic session twice, once with a 2s camera
	// skew: every video frame must be stamped exactly 2s later.
	cfgZero := fastConfig()
	cfgZero.CameraOffset = 0
	rZero, _ := newRig(t, "Car M", cfgZero)
	if err := rZero.CollectAlignment(); err != nil {
		t.Fatal(err)
	}
	capZero := rZero.Capture()

	cfgSkew := fastConfig()
	cfgSkew.CameraOffset = 2 * time.Second
	rSkew, _ := newRig(t, "Car M", cfgSkew)
	if err := rSkew.CollectAlignment(); err != nil {
		t.Fatal(err)
	}
	capSkew := rSkew.Capture()

	if len(capZero.UIFrames) == 0 || len(capZero.UIFrames) != len(capSkew.UIFrames) {
		t.Fatalf("frame counts differ: %d vs %d", len(capZero.UIFrames), len(capSkew.UIFrames))
	}
	for i := range capZero.UIFrames {
		if got := capSkew.UIFrames[i].At - capZero.UIFrames[i].At; got != 2*time.Second {
			t.Fatalf("frame %d skew = %v, want 2s", i, got)
		}
	}
}

func TestAnalyzerFindTextExactBeatsSubstring(t *testing.T) {
	a := NewAnalyzer()
	f := frameWithTexts("Central lock status", "OK")
	tgt, ok := a.FindText(f, "OK")
	if !ok || tgt.Text != "OK" {
		t.Fatalf("FindText(OK) = %+v, %v", tgt, ok)
	}
}

func TestAnalyzerMenuTargetsFiltersTitleAndKeywords(t *testing.T) {
	a := NewAnalyzer()
	f := frameWithTexts("Engine — Functions", "Read Data Stream", "Active Test", "Clear Trouble Codes")
	targets := a.MenuTargets(f)
	if len(targets) != 2 {
		t.Fatalf("targets = %+v", targets)
	}
	for _, tgt := range targets {
		if tgt.Text == "Engine — Functions" || tgt.Text == "Clear Trouble Codes" {
			t.Fatalf("target %q should be filtered", tgt.Text)
		}
	}
}

// frameWithTexts lays texts out vertically: the first is the title (top).
func frameWithTexts(texts ...string) (f ocr.Frame) {
	for i, s := range texts {
		f.Texts = append(f.Texts, ocr.Text{Content: s, X: 40, Y: 20 + i*44, W: 300, H: 40})
	}
	return f
}

func TestRigCaptureIncludesSniffedBusTraffic(t *testing.T) {
	r, veh := newRig(t, "Car M", fastConfig())
	// Inject an unrelated frame: the sniffer must capture everything on
	// the OBD port, not only diagnostic traffic.
	veh.Bus.Send(can.MustFrame(0x123, []byte{1, 2, 3}))
	cap := r.Capture()
	found := false
	for _, f := range cap.Frames {
		if f.ID == 0x123 {
			found = true
		}
	}
	if !found {
		t.Fatal("sniffer missed non-diagnostic frame")
	}
}

func TestRigIsotpTrafficReassembles(t *testing.T) {
	r, _ := newRig(t, "Car A", fastConfig())
	if err := r.CollectReadSessions(); err != nil {
		t.Fatal(err)
	}
	cap := r.Capture()
	// At least one multi-frame exchange must appear (Table 9's premise).
	ff := 0
	for _, f := range cap.Frames {
		if isotp.Classify(f.Payload()) == isotp.FirstFrame {
			ff++
		}
	}
	if ff == 0 {
		t.Fatal("no first frames: multi-DID polling should produce multi-frame responses")
	}
}
