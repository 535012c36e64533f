// Package rig implements the cyber-physical data-collection system of
// §3.1: a robotic clicker (stylus on an XY gantry), two cameras, the UI
// analyzer that decides what to click, the travelling-salesman click
// planner, and the session runner that produces the captures (CAN frames
// + OCR'd UI video + click log) the reverse-engineering pipeline
// consumes.
package rig

import (
	"time"

	"dpreverser/internal/sim"
)

// ClickEvent is one logged stylus tap (§3.1 "logs the timestamp of each UI
// clicking so that we can split the captured CAN frames and recorded video
// into multiple parts").
type ClickEvent struct {
	At   time.Duration
	X, Y int
	// Text is what the UI analyzer believed it was clicking (from OCR).
	Text string
	// Hit reports whether the tool reacted.
	Hit bool
}

// Clicker models the robotic stylus: it moves along one axis at a time at
// a fixed speed, so travel time between clicks is the Manhattan distance
// divided by the speed — the cost model the planner minimises.
type Clicker struct {
	clock *sim.Clock
	// SpeedPxPerSec is the stylus travel speed.
	SpeedPxPerSec float64
	// DwellTime is the press duration per click.
	DwellTime time.Duration

	x, y          int
	traveled      float64
	travelElapsed time.Duration
	log           []ClickEvent
}

// NewClicker parks the stylus at the origin.
func NewClicker(clock *sim.Clock, speedPxPerSec float64) *Clicker {
	if speedPxPerSec <= 0 {
		speedPxPerSec = 400
	}
	return &Clicker{clock: clock, SpeedPxPerSec: speedPxPerSec, DwellTime: 150 * time.Millisecond}
}

// Position reports the stylus location.
func (c *Clicker) Position() (x, y int) { return c.x, c.y }

// Traveled reports the cumulative Manhattan distance moved, in pixels.
func (c *Clicker) Traveled() float64 { return c.traveled }

// TravelTime reports the cumulative time spent moving.
func (c *Clicker) TravelTime() time.Duration { return c.travelElapsed }

// Log returns the click log.
func (c *Clicker) Log() []ClickEvent { return append([]ClickEvent(nil), c.log...) }

// MoveTo drives the stylus to (x, y), advancing the virtual clock by the
// travel time.
func (c *Clicker) MoveTo(x, y int) {
	dist := manhattan(c.x, c.y, x, y)
	d := time.Duration(dist / c.SpeedPxPerSec * float64(time.Second))
	c.clock.Advance(d)
	c.traveled += dist
	c.travelElapsed += d
	c.x, c.y = x, y
}

// Click moves to the point and taps it, reporting the tap to tap (the
// tool's Click entry point) and logging the event.
func (c *Clicker) Click(x, y int, text string, tap func(x, y int) bool) bool {
	c.MoveTo(x, y)
	c.clock.Advance(c.DwellTime)
	hit := tap(x, y)
	c.log = append(c.log, ClickEvent{At: c.clock.Now(), X: x, Y: y, Text: text, Hit: hit})
	return hit
}

func manhattan(x0, y0, x1, y1 int) float64 {
	return float64(abs(x1-x0) + abs(y1-y0))
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
