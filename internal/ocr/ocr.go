// Package ocr models the camera + optical-character-recognition leg of the
// cyber-physical rig (§3.1, §3.3). A camera observes a tool screen and the
// OCR engine converts it into timestamped text — imperfectly: following the
// failure modes the paper reports, recognised values occasionally lose
// their decimal point ("25.00" → "2500"), swap a digit ("3.7" → "8.0"), or
// drop leading characters ("11.4" → "4"). Error probability depends on the
// screen class, reproducing Table 4's AUTEL-vs-LAUNCH precision split.
//
// The package also implements §3.3's two-stage incorrect-ESV filtering:
// a per-quantity plausible-range check, then windowed median/MAD outlier
// rejection ("during a short period of time, the measured ESVs cannot
// change greatly").
package ocr

import (
	"math/rand"
	"time"

	"dpreverser/internal/ui"
)

// Text is one OCR-recognised text region with its bounding box (the
// output shape of an EAST-style text detector).
type Text struct {
	Content    string
	X, Y, W, H int
}

// Center reports the midpoint of the region — where the clicker aims.
func (t Text) Center() (x, y int) { return t.X + t.W/2, t.Y + t.H/2 }

// Row is a (label, value) pair laid out from a live-data screen's texts
// (Layout).
type Row struct {
	// Index is the on-screen row number (stable pairing key: row k on the
	// screen corresponds to the k-th identifier in the tool's request).
	Index int
	Label string
	Unit  string
	// Value is the raw recognised value text.
	Value string
	// Parsed is the numeric interpretation; ParseOK is false when the
	// text is not a number (or the value cell was empty).
	Parsed  float64
	ParseOK bool
}

// Frame is one OCR'd video frame: the recognised text regions and
// nothing a camera could not see.
type Frame struct {
	At         time.Duration
	ScreenName string
	Title      string
	Texts      []Text
}

// Engine is the OCR model.
type Engine struct {
	rng *rand.Rand
	// ValueErrProb is the per-value corruption probability.
	ValueErrProb float64
	// LabelErrProb is the per-label corruption probability (labels are
	// larger glyphs; they fail less).
	LabelErrProb float64

	frames    int
	corrupted int
}

// Engine presets reproducing Table 4's two screen classes. With ~10 values
// per frame, a 0.24% per-value error yields ≈97.6% clean frames (AUTEL
// 919) and 1.6% yields ≈85% (LAUNCH X431).
const (
	HighQualityValueErr = 0.0024
	LowQualityValueErr  = 0.016
)

// NewEngine builds an OCR engine with the given per-value error rate.
func NewEngine(valueErrProb float64, seed int64) *Engine {
	return &Engine{
		rng:          rand.New(rand.NewSource(seed)),
		ValueErrProb: valueErrProb,
		LabelErrProb: valueErrProb / 4,
	}
}

// Stats reports how many frames were processed and how many carried at
// least one injected error.
func (e *Engine) Stats() (frames, corrupted int) { return e.frames, e.corrupted }

// Recognize converts a rendered screen into an OCR frame.
func (e *Engine) Recognize(s ui.Screen, at time.Duration) Frame {
	f := Frame{At: at, ScreenName: s.Name, Title: s.Title}
	corrupted := false
	for _, w := range s.Widgets {
		if w.Text == "" {
			continue
		}
		text := w.Text
		switch w.Kind {
		case ui.Value:
			if e.rng.Float64() < e.ValueErrProb {
				text = e.corruptValue(text)
				corrupted = true
			}
		default:
			if e.rng.Float64() < e.LabelErrProb {
				text = e.corruptLabel(text)
				corrupted = true
			}
		}
		f.Texts = append(f.Texts, Text{Content: text, X: w.X, Y: w.Y, W: w.W, H: w.H})
	}
	e.frames++
	if corrupted {
		e.corrupted++
	}
	return f
}

// corruptValue applies one of the paper's observed OCR failure modes
// (the shared helpers in noise.go, drawn with this engine's RNG).
func (e *Engine) corruptValue(text string) string {
	mode := e.rng.Intn(3)
	switch mode {
	case 0:
		// Decimal point loss: "25.00" -> "2500".
		if out, ok := DropDecimal(text); ok {
			return out
		}
		fallthrough
	case 1:
		// Digit substitution: "3.7" -> "8.7".
		out, _ := SubstituteDigit(e.rng, text)
		return out
	default:
		// Leading truncation: "11.4" -> "4".
		out, _ := TruncateLeading(text)
		return out
	}
}

// corruptLabel swaps one character for a visually similar one.
func (e *Engine) corruptLabel(text string) string {
	if text == "" {
		return text
	}
	subs := map[byte]byte{'O': '0', '0': 'O', 'l': '1', '1': 'l', 'S': '5', '5': 'S', 'e': 'c'}
	b := []byte(text)
	i := e.rng.Intn(len(b))
	if s, ok := subs[b[i]]; ok {
		b[i] = s
	} else {
		b[i] = '#'
	}
	return string(b)
}
