package rig

import (
	"fmt"
	"time"

	"dpreverser/internal/can"
	"dpreverser/internal/diagtool"
	"dpreverser/internal/ocr"
	"dpreverser/internal/sim"
	"dpreverser/internal/vehicle"
)

// Fixed session cadence: pollInterval is the live-data refresh period,
// settleTime the pause after each menu click.
const (
	pollInterval = 500 * time.Millisecond
	settleTime   = 300 * time.Millisecond
)

// Config tunes a collection session.
type Config struct {
	// ReadDuration is how long each data-stream screen is recorded (the
	// paper waits ~30 seconds per reading to gather enough samples).
	ReadDuration time.Duration
	// AlignDuration is the OBD-II recording used for timestamp alignment
	// (§9.4 method 2).
	AlignDuration time.Duration
	// TestDuration is how long each active test runs.
	TestDuration time.Duration
	// CameraOffset is the constant skew between the video clock and the
	// CAN-capture clock, before NTP/OBD alignment corrects it.
	CameraOffset time.Duration
	// ValueErrProb overrides the OCR error rate; negative selects the
	// preset for the tool's screen quality.
	ValueErrProb float64
	// Seed drives the OCR error streams.
	Seed int64
}

// DefaultConfig returns the session parameters used by the experiments.
func DefaultConfig() Config {
	return Config{
		ReadDuration:  30 * time.Second,
		AlignDuration: 8 * time.Second,
		TestDuration:  3 * time.Second,
		CameraOffset:  120 * time.Millisecond,
		ValueErrProb:  -1,
		Seed:          1,
	}
}

// Capture is a completed collection session: everything the
// reverse-engineering pipeline is allowed to see.
type Capture struct {
	Car      string
	Model    string
	ToolName string
	Protocol vehicle.Protocol

	// Frames is the full OBD-port CAN capture.
	Frames []can.Frame
	// UIFrames is the OCR'd video of camera b. Frame timestamps carry the
	// camera clock (skewed by the configured offset until alignment).
	UIFrames []ocr.Frame
	// Clicks is the robotic clicker's log.
	Clicks []ClickEvent
}

// Rig couples a tool, its vehicle, the clicker, the cameras and the OCR
// engines into one collection system.
type Rig struct {
	cfg      Config
	tool     *diagtool.Tool
	veh      *vehicle.Vehicle
	clock    *sim.Clock
	clicker  *Clicker
	analyzer *Analyzer
	camA     *ocr.Engine // guides the clicker
	camB     *ocr.Engine // records the video used for reverse engineering

	sniffer *can.Sniffer
	capture Capture
}

// New assembles a rig for a tool/vehicle pair.
func New(tool *diagtool.Tool, veh *vehicle.Vehicle, cfg Config) *Rig {
	errProb := cfg.ValueErrProb
	if errProb < 0 {
		if tool.Quality == diagtool.QualityLow {
			errProb = ocr.LowQualityValueErr
		} else {
			errProb = ocr.HighQualityValueErr
		}
	}
	r := &Rig{
		cfg:      cfg,
		tool:     tool,
		veh:      veh,
		clock:    veh.Clock,
		clicker:  NewClicker(veh.Clock, 400),
		analyzer: NewAnalyzer(),
		camA:     ocr.NewEngine(errProb, cfg.Seed*2+1),
		camB:     ocr.NewEngine(errProb, cfg.Seed*2+2),
	}
	r.capture = Capture{
		Car: veh.Profile.Car, Model: veh.Profile.Model,
		ToolName: tool.Name, Protocol: veh.Profile.Protocol,
	}
	r.sniffer = can.NewSniffer(veh.Bus, nil)
	return r
}

// Close detaches the sniffer.
func (r *Rig) Close() {
	if r.sniffer != nil {
		r.sniffer.Close()
	}
}

// Capture finalises and returns the session capture.
func (r *Rig) Capture() Capture {
	r.capture.Frames = r.sniffer.Frames()
	r.capture.Clicks = r.clicker.Log()
	return r.capture
}

// CameraB exposes the recording OCR engine (Table 4 reads its stats).
func (r *Rig) CameraB() *ocr.Engine { return r.camB }

// Clicker exposes the stylus (the planner experiment reads its odometry).
func (r *Rig) Clicker() *Clicker { return r.clicker }

// screenshotA captures camera a's OCR view of the current screen.
func (r *Rig) screenshotA() ocr.Frame {
	return r.camA.Recognize(r.tool.Screen(), r.clock.Now())
}

// recordB captures one camera-b video frame with the camera clock skew.
func (r *Rig) recordB() {
	f := r.camB.Recognize(r.tool.Screen(), r.clock.Now()+r.cfg.CameraOffset)
	r.capture.UIFrames = append(r.capture.UIFrames, f)
}

// click resolves and taps one target.
func (r *Rig) click(t Target) bool {
	hit := r.clicker.Click(t.X, t.Y, t.Text, r.tool.Click)
	r.clock.Advance(settleTime)
	return hit
}

// clickText finds a keyword on screen and clicks it. A fresh screenshot is
// taken on each attempt, so transient OCR noise on the target caption is
// retried away.
func (r *Rig) clickText(keyword string) error {
	for attempt := 0; attempt < 3; attempt++ {
		f := r.screenshotA()
		t, ok := r.analyzer.FindText(f, keyword)
		if !ok {
			continue
		}
		if r.click(t) {
			return nil
		}
	}
	return fmt.Errorf("rig: %q not found on screen %q", keyword, r.tool.ScreenName())
}

// clickBack uses the icon-similarity path.
func (r *Rig) clickBack() error {
	t, ok := r.analyzer.FindIcon(r.tool.Screen(), "back-arrow")
	if !ok {
		return fmt.Errorf("rig: back icon not found on %q", r.tool.ScreenName())
	}
	if !r.click(t) {
		return fmt.Errorf("rig: back click missed")
	}
	return nil
}

// recordLiveData polls and films the current live screen for d.
func (r *Rig) recordLiveData(d time.Duration) {
	deadline := r.clock.Now() + d
	for r.clock.Now() < deadline {
		r.tool.Poll()
		// The camera films mid-interval: displayed values lag the traffic
		// by half a poll period, like a real screen refresh.
		r.clock.Advance(pollInterval / 2)
		r.recordB()
		r.clock.Advance(pollInterval / 2)
	}
}

// CollectAlignment records the OBD-II phase used by §9.4's alignment: the
// tool reads well-documented PIDs while both the traffic and the screen
// are recorded.
func (r *Rig) CollectAlignment() error {
	if err := r.navigateHome(); err != nil {
		return err
	}
	if err := r.clickText("Diagnostics"); err != nil {
		return err
	}
	ecus := r.analyzer.MenuTargets(r.screenshotA())
	if len(ecus) == 0 {
		return fmt.Errorf("rig: no ECUs listed")
	}
	if !r.click(ecus[0]) {
		return fmt.Errorf("rig: ECU click missed")
	}
	if err := r.clickText("OBD-II Live Data"); err != nil {
		return err
	}
	r.recordLiveData(r.cfg.AlignDuration)
	// Return to the ECU list.
	if err := r.clickBack(); err != nil {
		return err
	}
	if err := r.clickBack(); err != nil {
		return err
	}
	return nil
}

// CollectReadSessions walks every ECU's data-stream list, selects every
// item (planning click order with the nearest-neighbour heuristic), and
// records the live screen.
func (r *Rig) CollectReadSessions() error {
	if err := r.navigateECUList(); err != nil {
		return err
	}
	ecus := r.analyzer.MenuTargets(r.screenshotA())
	for _, ecuTarget := range ecus {
		if !r.click(ecuTarget) {
			continue
		}
		if err := r.clickText("Read Data Stream"); err != nil {
			return err
		}
		if err := r.selectAllStreamItems(); err != nil {
			return err
		}
		if err := r.clickText("OK"); err != nil {
			return err
		}
		r.recordLiveData(r.cfg.ReadDuration)
		// live-data -> stream-select -> func-menu -> ecu-list.
		for i := 0; i < 3; i++ {
			if err := r.clickBack(); err != nil {
				return err
			}
		}
	}
	return nil
}

// selectAllStreamItems pages through the selection list clicking every
// unselected item, ordering each page's clicks with the TSP heuristic.
func (r *Rig) selectAllStreamItems() error {
	prevPage := ""
	for page := 0; page < 64; page++ {
		f := r.screenshotA()
		unselected, selected := r.analyzer.StreamItems(f)
		signature := pageSignature(unselected, selected)
		if signature == prevPage {
			return nil // paging stopped advancing: last page done
		}
		prevPage = signature

		points := make([]Point, len(unselected))
		for i, t := range unselected {
			points[i] = Point{X: t.X, Y: t.Y}
		}
		cx, cy := r.clicker.Position()
		order := NearestNeighbor(Point{X: cx, Y: cy}, points)
		for _, p := range order {
			// Find the target at this point to carry its text into the log.
			var tgt Target
			for _, t := range unselected {
				if t.X == p.X && t.Y == p.Y {
					tgt = t
					break
				}
			}
			r.click(tgt)
		}
		// Advance to the next page if there is one.
		next, ok := r.analyzer.FindText(r.screenshotA(), "Next Page")
		if !ok {
			return nil
		}
		r.click(next)
	}
	return fmt.Errorf("rig: selection paging did not terminate")
}

func pageSignature(unselected, selected []Target) string {
	sig := ""
	for _, t := range unselected {
		sig += "u" + t.Text
	}
	for _, t := range selected {
		sig += "s" + t.Text
	}
	return sig
}

// CollectActiveTests runs every active test on every ECU, filming the
// status screen while each actuator is driven.
func (r *Rig) CollectActiveTests() error {
	if err := r.navigateECUList(); err != nil {
		return err
	}
	ecus := r.analyzer.MenuTargets(r.screenshotA())
	for _, ecuTarget := range ecus {
		if !r.click(ecuTarget) {
			continue
		}
		if err := r.clickText("Active Test"); err != nil {
			return err
		}
		tests := r.analyzer.MenuTargets(r.screenshotA())
		for _, test := range tests {
			if !r.click(test) {
				continue
			}
			// Film the running test.
			deadline := r.clock.Now() + r.cfg.TestDuration
			for r.clock.Now() < deadline {
				r.recordB()
				r.clock.Advance(pollInterval)
			}
			if err := r.clickText("Stop"); err != nil {
				return err
			}
			if err := r.clickBack(); err != nil {
				return err
			}
		}
		// active-list -> func-menu -> ecu-list.
		if err := r.clickBack(); err != nil {
			return err
		}
		if err := r.clickBack(); err != nil {
			return err
		}
	}
	return nil
}

// RunFull performs the complete session: alignment, reads, active tests.
func (r *Rig) RunFull() (Capture, error) {
	if err := r.CollectAlignment(); err != nil {
		return Capture{}, fmt.Errorf("alignment phase: %w", err)
	}
	if err := r.CollectReadSessions(); err != nil {
		return Capture{}, fmt.Errorf("read phase: %w", err)
	}
	if err := r.CollectActiveTests(); err != nil {
		return Capture{}, fmt.Errorf("active-test phase: %w", err)
	}
	return r.Capture(), nil
}

// navigateHome backs out to the home screen from anywhere.
func (r *Rig) navigateHome() error {
	for i := 0; i < 8 && r.tool.ScreenName() != "home"; i++ {
		if err := r.clickBack(); err != nil {
			return err
		}
	}
	if r.tool.ScreenName() != "home" {
		return fmt.Errorf("rig: could not reach home screen")
	}
	return nil
}

// navigateECUList reaches the ECU list from wherever the tool is.
func (r *Rig) navigateECUList() error {
	if r.tool.ScreenName() == "ecu-list" {
		return nil
	}
	if r.tool.ScreenName() == "home" {
		return r.clickText("Diagnostics")
	}
	for i := 0; i < 8 && r.tool.ScreenName() != "ecu-list"; i++ {
		if err := r.clickBack(); err != nil {
			return err
		}
		if r.tool.ScreenName() == "home" {
			return r.clickText("Diagnostics")
		}
	}
	if r.tool.ScreenName() != "ecu-list" {
		return fmt.Errorf("rig: could not reach ECU list (stuck on %q)", r.tool.ScreenName())
	}
	return nil
}
