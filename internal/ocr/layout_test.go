package ocr

import (
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"dpreverser/internal/diagtool"
	"dpreverser/internal/sim"
	"dpreverser/internal/ui"
	"dpreverser/internal/vehicle"
)

// widgetRows is the reference layout: it reads the rows off the
// simulator's widget IDs ("row.val.3"), which a camera never sees, and
// takes each widget's text from the frame Recognize made of s.
func widgetRows(t *testing.T, s ui.Screen, f Frame) []Row {
	t.Helper()
	rows := map[int]*Row{}
	var order []int
	k := 0
	for _, w := range s.Widgets {
		if w.Text == "" {
			continue
		}
		text := f.Texts[k].Content
		k++
		idx, part, ok := rowID(w.ID)
		if !ok {
			continue
		}
		r, exists := rows[idx]
		if !exists {
			r = &Row{Index: idx}
			rows[idx] = r
			order = append(order, idx)
		}
		switch part {
		case "label":
			r.Label = text
		case "unit":
			r.Unit = text
		case "val":
			r.Value = text
			if v, err := strconv.ParseFloat(strings.TrimSpace(text), 64); err == nil {
				r.Parsed = v
				r.ParseOK = true
			}
		}
	}
	if k != len(f.Texts) {
		t.Fatalf("frame has %d texts for %d text widgets", len(f.Texts), k)
	}
	sort.Ints(order)
	var out []Row
	for _, idx := range order {
		out = append(out, *rows[idx])
	}
	return out
}

// rowID parses widget IDs of the form "row.val.3" / "obd.label.0".
func rowID(id string) (idx int, part string, ok bool) {
	parts := strings.Split(id, ".")
	if len(parts) != 3 {
		return 0, "", false
	}
	if parts[0] != "row" && parts[0] != "obd" {
		return 0, "", false
	}
	n, err := strconv.Atoi(parts[2])
	if err != nil {
		return 0, "", false
	}
	return n, parts[1], true
}

func TestRowIDParsing(t *testing.T) {
	cases := []struct {
		id   string
		idx  int
		part string
		ok   bool
	}{
		{"row.val.3", 3, "val", true},
		{"obd.label.0", 0, "label", true},
		{"sel.item.2", 0, "", false},
		{"title", 0, "", false},
		{"row.val.x", 0, "", false},
	}
	for _, c := range cases {
		idx, part, ok := rowID(c.id)
		if ok != c.ok || (ok && (idx != c.idx || part != c.part)) {
			t.Fatalf("rowID(%q) = %d %q %v", c.id, idx, part, ok)
		}
	}
}

// TestLayoutMatchesWidgetRows films every fleet car's live-data screen
// (every ECU, all streams selected) and its OBD screen on both screen
// geometries and at both engine error rates, and checks that Layout reads
// each frame's texts into the rows the widget IDs name.
func TestLayoutMatchesWidgetRows(t *testing.T) {
	const polls = 3
	frames, rowCount := 0, 0
	for _, p := range vehicle.Fleet() {
		for _, q := range []diagtool.Quality{diagtool.QualityHigh, diagtool.QualityLow} {
			for ei, errProb := range []float64{HighQualityValueErr, LowQualityValueErr} {
				clock := sim.NewClock(0)
				tool, veh, err := diagtool.ForProfile(p, clock)
				if err != nil {
					t.Fatal(err)
				}
				tool.Quality = q
				engine := NewEngine(errProb, int64(ei)*31+int64(q)+7)
				film := func(screen string) {
					for i := 0; i < polls; i++ {
						tool.Poll()
						clock.Advance(500 * time.Millisecond)
						s := tool.Screen()
						if s.Name != screen {
							t.Fatalf("%s: on %q, want %q", p.Car, s.Name, screen)
						}
						f := engine.Recognize(s, clock.Now())
						want := widgetRows(t, s, f)
						if got := Layout(f.Texts, nil); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %s quality %d: Layout = %+v\nwidget rows = %+v", p.Car, screen, q, got, want)
						}
						frames++
						rowCount += len(want)
					}
				}
				tool.ClickWidget("home.diag")
				for ecu := range veh.Bindings() {
					tool.ClickWidget("ecu." + strconv.Itoa(ecu))
					tool.ClickWidget("func.stream")
					tool.SelectAllOnECU()
					tool.ClickWidget("sel.ok")
					film("live-data")
					tool.ClickWidget("nav.back")
					tool.ClickWidget("nav.back")
					if ecu == 0 {
						tool.ClickWidget("func.obd")
						film("obd-live")
						tool.ClickWidget("nav.back")
					}
					tool.ClickWidget("nav.back")
				}
				tool.Close()
				veh.Close()
			}
		}
	}
	if frames == 0 || rowCount < 5*frames {
		t.Fatalf("filmed %d frames with %d rows", frames, rowCount)
	}
}

// screenTexts lays out rows of (label, value, unit) texts under a title
// on the large screen geometry; an empty string leaves its cell out.
func screenTexts(rows ...[3]string) []Text {
	texts := []Text{{Content: "Data Stream", X: 40, Y: 16}}
	for i, r := range rows {
		y := 60 + 44*i
		for c, x := range []int{40, 420, 600} {
			if r[c] != "" {
				texts = append(texts, Text{Content: r[c], X: x, Y: y})
			}
		}
	}
	return texts
}

func TestLayoutHandCases(t *testing.T) {
	rows := screenTexts(
		[3]string{"Engine speed", "771.20", "rpm"},
		[3]string{"Coolant", "", "°C"},
		[3]string{"Gear", "D", ""},
		[3]string{"Battery", " 13.8 ", "V"},
	)
	want := []Row{
		{Index: 0, Label: "Engine speed", Value: "771.20", Unit: "rpm", Parsed: 771.2, ParseOK: true},
		// An empty value cell leaves Value empty; the unit stays a unit.
		{Index: 1, Label: "Coolant", Unit: "°C"},
		// An empty unit; a non-numeric value does not parse.
		{Index: 2, Label: "Gear", Value: "D"},
		{Index: 3, Label: "Battery", Value: " 13.8 ", Unit: "V", Parsed: 13.8, ParseOK: true},
	}
	if got := Layout(rows, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("Layout = %+v\nwant %+v", got, want)
	}

	// Texts out of Y order lay out as if sorted, and the input is left
	// as it was.
	shuffled := append([]Text(nil), rows...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	before := append([]Text(nil), shuffled...)
	if got := Layout(shuffled, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("shuffled texts: Layout = %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(shuffled, before) {
		t.Fatal("Layout reordered its input")
	}

	// Every text in the title band is skipped, not only the title.
	banded := append([]Text{{Content: "42", X: 420, Y: 16}, {Content: "12:00", X: 600, Y: 16}}, rows...)
	if got := Layout(banded, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("title band texts: Layout = %+v\nwant %+v", got, want)
	}
	if got, want := ValueTexts(banded, nil), []int{4, 9, 11}; !reflect.DeepEqual(got, want) {
		t.Fatalf("title band texts: ValueTexts = %v, want %v", got, want)
	}

	// Layout appends after what dst holds, numbering from 0.
	dst := Layout(rows[:4], []Row{{Label: "kept"}})
	if len(dst) != 2 || dst[0].Label != "kept" || dst[1].Index != 0 || dst[1].Label != "Engine speed" {
		t.Fatalf("append to dst = %+v", dst)
	}
}

// TestLayoutUnitsWithoutValues pins the rule's one known ambiguity: when
// no row shows a value text, the unit column is the leftmost other column
// and reads as the values.
func TestLayoutUnitsWithoutValues(t *testing.T) {
	texts := screenTexts(
		[3]string{"Engine speed", "", "rpm"},
		[3]string{"Coolant", "", "°C"},
	)
	want := []Row{
		{Index: 0, Label: "Engine speed", Value: "rpm"},
		{Index: 1, Label: "Coolant", Value: "°C"},
	}
	if got := Layout(texts, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("Layout = %+v\nwant %+v", got, want)
	}
}

func TestValueTexts(t *testing.T) {
	texts := screenTexts(
		[3]string{"Engine speed", "771.20", "rpm"},
		[3]string{"Coolant", "", "°C"},
		[3]string{"Gear", "D", ""},
	)
	if got, want := ValueTexts(texts, nil), []int{2, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ValueTexts = %v, want %v", got, want)
	}
	if got := ValueTexts(texts[:1], nil); len(got) != 0 {
		t.Fatalf("title only: ValueTexts = %v", got)
	}
	if got := Layout(nil, nil); len(got) != 0 {
		t.Fatalf("no texts: Layout = %+v", got)
	}
}

// ParseValue skips ParseFloat only for texts it would reject.
func TestParseValueMatchesParseFloat(t *testing.T) {
	for _, s := range []string{
		"", " ", "12.50", " -4.00 ", "+1", ".5", "-.5", "1e3", "0x1p-2", "0x_1p0", "1_000",
		"inf", "+Inf", "-infinity", "NaN", "nan", "nope", "Infinite", "On", "Off", "e5", "D", "∞", " 12",
	} {
		v, ok := ParseValue(s)
		want, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if ok != (err == nil) || ok && !(v == want || v != v && want != want) {
			t.Fatalf("ParseValue(%q) = %v, %v; ParseFloat gives %v, %v", s, v, ok, want, err)
		}
	}
}
