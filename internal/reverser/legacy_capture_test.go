package reverser

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"testing"
	"time"

	"dpreverser/internal/can"
	"dpreverser/internal/ocr"
	"dpreverser/internal/rig"
	"dpreverser/internal/vehicle"
)

// legacyRow, legacyUIFrame and legacyCapture are ocr.Row, ocr.Frame and
// rig.Capture as the v1 capture format carried them before a UI frame
// was reduced to its texts: each frame also held its laid-out rows (with
// their Y) and the OCR engine's Corrupted flag.
type legacyRow struct {
	Index   int
	Label   string
	Unit    string
	Value   string
	Parsed  float64
	ParseOK bool
	Y       int
}

type legacyUIFrame struct {
	At         time.Duration
	ScreenName string
	Title      string
	Rows       []legacyRow
	Texts      []ocr.Text
	Corrupted  bool
}

type legacyCapture struct {
	Car      string
	Model    string
	ToolName string
	Protocol vehicle.Protocol
	Frames   []can.Frame
	UIFrames []legacyUIFrame
	Clicks   []rig.ClickEvent
}

// legacyBody encodes c as the older Save wrote it: the same v1
// envelope, with Rows and Corrupted in every UI frame. Rows were only
// ever laid out on the live screens (null elsewhere). Corrupted was the
// engine's ground truth, which the capture no longer keeps; every third
// frame sets it, since a reader must skip either value.
func legacyBody(t *testing.T, c rig.Capture) []byte {
	t.Helper()
	lc := legacyCapture{
		Car: c.Car, Model: c.Model, ToolName: c.ToolName, Protocol: c.Protocol,
		Frames: c.Frames, Clicks: c.Clicks,
	}
	for i, f := range c.UIFrames {
		lf := legacyUIFrame{At: f.At, ScreenName: f.ScreenName, Title: f.Title, Texts: f.Texts, Corrupted: i%3 == 0}
		if f.ScreenName == "live-data" || f.ScreenName == "obd-live" {
			ys := rowYs(f.Texts)
			for _, r := range ocr.Layout(f.Texts, nil) {
				lf.Rows = append(lf.Rows, legacyRow{
					Index: r.Index, Label: r.Label, Unit: r.Unit, Value: r.Value,
					Parsed: r.Parsed, ParseOK: r.ParseOK, Y: ys[r.Index],
				})
			}
		}
		lc.UIFrames = append(lc.UIFrames, lf)
	}
	var buf bytes.Buffer
	env := struct {
		Version int           `json:"version"`
		Capture legacyCapture `json:"capture"`
	}{1, lc}
	if err := json.NewEncoder(&buf).Encode(env); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rowYs returns the distinct Ys below the title band, in order: row k's Y
// is rowYs[k].
func rowYs(texts []ocr.Text) []int {
	var ys []int
	for _, t := range texts {
		ys = append(ys, t.Y)
	}
	slices.Sort(ys)
	ys = slices.Compact(ys)
	if len(ys) == 0 {
		return nil
	}
	return ys[1:]
}

// A capture saved in the older format, with Rows and Corrupted in every
// UI frame, decodes to the capture a current save does and reverses to
// the same result bytes.
func TestLegacyCaptureReversesIdentically(t *testing.T) {
	cars := vehicle.Fleet()
	if testing.Short() {
		cars = cars[:3]
	}
	cfg := goldenBudget("quick")
	for _, p := range cars {
		c := collectSeeded(t, p.Car, 1)
		var cur bytes.Buffer
		if err := c.Save(&cur); err != nil {
			t.Fatal(err)
		}
		legacy := legacyBody(t, c)
		if bytes.Contains(cur.Bytes(), []byte(`"Rows"`)) || bytes.Contains(cur.Bytes(), []byte(`"Corrupted"`)) {
			t.Fatalf("%s: a current save still writes Rows or Corrupted", p.Car)
		}
		if !bytes.Contains(legacy, []byte(`"Rows":[{"Index":0,`)) {
			t.Fatalf("%s: the legacy body lays out no rows", p.Car)
		}
		want, err := rig.ReadCapture(&cur)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rig.ReadCapture(bytes.NewReader(legacy))
		if err != nil {
			t.Fatalf("%s: legacy capture: %v", p.Car, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the legacy capture decodes to a different capture", p.Car)
		}
		reverse := func(c rig.Capture) []byte {
			res, err := New(WithConfig(cfg), WithParallelism(2)).Reverse(context.Background(), c)
			if err != nil {
				t.Fatalf("%s: %v", p.Car, err)
			}
			return indentJSON(t, res)
		}
		if !bytes.Equal(reverse(got), reverse(c)) {
			t.Fatalf("%s: the legacy capture reverses to different result bytes", p.Car)
		}
	}
}
