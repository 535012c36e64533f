package ocr

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"dpreverser/internal/ui"
)

func liveScreen(values []string) ui.Screen {
	s := ui.Screen{Name: "live-data", Title: "Data Stream", Width: 1024, Height: 768}
	s.Widgets = append(s.Widgets, ui.Widget{ID: "title", Kind: ui.Label, Text: s.Title, X: 40, Y: 16, W: 360, H: 40})
	labels := []string{"Engine speed", "Vehicle speed", "Coolant temperature"}
	for i, v := range values {
		y := 60 + 44*i
		s.Widgets = append(s.Widgets,
			ui.Widget{ID: sprintf("row.label.%d", i), Kind: ui.Label, Text: labels[i%len(labels)], X: 40, Y: y, W: 360, H: 40},
			ui.Widget{ID: sprintf("row.val.%d", i), Kind: ui.Value, Text: v, X: 420, Y: y, W: 160, H: 40},
			ui.Widget{ID: sprintf("row.unit.%d", i), Kind: ui.Label, Text: "rpm", X: 600, Y: y, W: 120, H: 40},
		)
	}
	return s
}

func sprintf(format string, args ...any) string {
	return strings.NewReplacer("%d", itoa(args[0].(int))).Replace(format)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestRecognizePerfectEngine(t *testing.T) {
	e := NewEngine(0, 1)
	f := e.Recognize(liveScreen([]string{"771.20", "33.00"}), 5*time.Second)
	if _, corrupted := e.Stats(); corrupted != 0 {
		t.Fatal("zero-error engine corrupted a frame")
	}
	if f.At != 5*time.Second || f.ScreenName != "live-data" || f.Title != "Data Stream" {
		t.Fatalf("frame meta = %+v", f)
	}
	if len(f.Texts) != 7 || f.Texts[2].Content != "771.20" {
		t.Fatalf("texts = %+v", f.Texts)
	}
	rows := Layout(f.Texts, nil)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Label != "Engine speed" || !r.ParseOK || r.Parsed != 771.2 || r.Unit != "rpm" {
		t.Fatalf("row = %+v", r)
	}
	if rows[1].Index != 1 {
		t.Fatalf("row order: %+v", rows)
	}
}

func TestRecognizeEmptyValueNotParsed(t *testing.T) {
	e := NewEngine(0, 1)
	f := e.Recognize(liveScreen([]string{"12.00", ""}), 0)
	rows := Layout(f.Texts, nil)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].ParseOK || rows[1].Value != "" || rows[1].Unit != "rpm" {
		t.Fatalf("empty value cell = %+v", rows[1])
	}
}

func TestRecognizeInjectsErrorsAtConfiguredRate(t *testing.T) {
	e := NewEngine(0.5, 7)
	for i := 0; i < 200; i++ {
		e.Recognize(liveScreen([]string{"25.00", "33.10"}), time.Duration(i)*time.Second)
	}
	frames, corrupted := e.Stats()
	if frames != 200 {
		t.Fatalf("frames = %d", frames)
	}
	// With 2 values at 50% each plus labels, nearly every frame should be
	// corrupted; certainly more than half.
	if corrupted < 100 {
		t.Fatalf("corrupted = %d/200, expected most frames", corrupted)
	}
}

func TestQualityPresetsProduceTable4Split(t *testing.T) {
	high := NewEngine(HighQualityValueErr, 11)
	low := NewEngine(LowQualityValueErr, 12)
	screen := liveScreen([]string{"771.20", "33.00", "88.50", "13.80", "42.00", "101.00", "64.00", "5.50", "97.00", "12.00"})
	for i := 0; i < 500; i++ {
		high.Recognize(screen, time.Duration(i)*time.Second)
		low.Recognize(screen, time.Duration(i)*time.Second)
	}
	_, hc := high.Stats()
	_, lc := low.Stats()
	highPrec := 1 - float64(hc)/500
	lowPrec := 1 - float64(lc)/500
	if highPrec < 0.94 || highPrec > 1.0 {
		t.Fatalf("high-quality precision = %v, want ≈0.976", highPrec)
	}
	if lowPrec < 0.70 || lowPrec > 0.95 {
		t.Fatalf("low-quality precision = %v, want ≈0.85", lowPrec)
	}
	if highPrec <= lowPrec {
		t.Fatalf("quality split inverted: %v vs %v", highPrec, lowPrec)
	}
}

func TestCorruptValueModes(t *testing.T) {
	e := NewEngine(1, 3)
	sawDecimalLoss := false
	for i := 0; i < 100; i++ {
		got := e.corruptValue("25.00")
		if got == "2500" {
			sawDecimalLoss = true
		}
		if got == "25.00" && i > 50 {
			continue // substitution may pick the same digit occasionally
		}
	}
	if !sawDecimalLoss {
		t.Fatal("decimal-point loss never produced")
	}
}

func TestRecognizeDeterministic(t *testing.T) {
	s := liveScreen([]string{"25.00", "33.10", "88.00"})
	a, b := NewEngine(0.3, 42), NewEngine(0.3, 42)
	for i := 0; i < 50; i++ {
		fa := a.Recognize(s, time.Duration(i))
		fb := b.Recognize(s, time.Duration(i))
		if !slices.Equal(fa.Texts, fb.Texts) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestFilterRange(t *testing.T) {
	in := []Sample{{0, 50}, {1, 2500}, {2, 52}, {3, -10}, {4, 55}}
	out := FilterRange(in, 0, 255, nil)
	if len(out) != 3 {
		t.Fatalf("kept %d samples: %+v", len(out), out)
	}
	for _, s := range out {
		if s.Value < 0 || s.Value > 255 {
			t.Fatalf("out-of-range survived: %v", s.Value)
		}
	}
}

func TestFilterOutliersRejectsDecimalLoss(t *testing.T) {
	// A plausible-in-range but locally impossible jump: 25.0 → 250 (one
	// lost decimal within an otherwise smooth series).
	var in []Sample
	for i := 0; i < 20; i++ {
		v := 25.0 + 0.2*float64(i)
		if i == 10 {
			v = 250
		}
		in = append(in, Sample{At: time.Duration(i) * time.Second, Value: v})
	}
	out := FilterOutliers(in, nil)
	for _, s := range out {
		if s.Value == 250 {
			t.Fatal("decimal-loss outlier survived")
		}
	}
	if len(out) < 17 {
		t.Fatalf("filter too aggressive: kept %d/20", len(out))
	}
}

func TestFilterOutliersKeepsGenuineDrift(t *testing.T) {
	// Engine RPM ramping 800 → 3000 must survive intact.
	var in []Sample
	for i := 0; i < 40; i++ {
		in = append(in, Sample{At: time.Duration(i) * 500 * time.Millisecond, Value: 800 + 55*float64(i)})
	}
	out := FilterOutliers(in, nil)
	if len(out) != len(in) {
		t.Fatalf("genuine drift filtered: kept %d/%d", len(out), len(in))
	}
}

func TestFilterOutliersSmallSeriesUntouched(t *testing.T) {
	in := []Sample{{0, 1}, {1, 9999}}
	out := FilterOutliers(in, nil)
	if len(out) != 2 {
		t.Fatal("short series must pass through")
	}
}

func TestFilterChained(t *testing.T) {
	var in []Sample
	for i := 0; i < 30; i++ {
		in = append(in, Sample{At: time.Duration(i), Value: 30 + math.Sin(float64(i)/3)*2})
	}
	in[5].Value = 3000  // out of range
	in[15].Value = 90.0 // in range but locally impossible
	out := Filter(in, 0, 255)
	for _, s := range out {
		if s.Value == 3000 || s.Value == 90 {
			t.Fatalf("outlier survived: %v", s.Value)
		}
	}
	if len(out) < 25 {
		t.Fatalf("kept %d/30", len(out))
	}
}

func TestMedianHelpers(t *testing.T) {
	if MedianInPlace(nil) != 0 {
		t.Fatal("MedianInPlace(nil)")
	}
	if MedianInPlace([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if MedianInPlace([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("even median")
	}
	if medianAbsDevInPlace([]float64{1, 2, 3}, 2) != 1 {
		t.Fatal("MAD")
	}
	if medianAbsDevInPlace(nil, 0) != 0 {
		t.Fatal("MAD(nil)")
	}
}
