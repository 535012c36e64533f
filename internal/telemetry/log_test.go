package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLoggerLevelsAndAttrs(t *testing.T) {
	clock := NewManualClock(0)
	ring := NewRingSink(16)
	log := NewLogger(clock, ring)

	log.Debug("dropped-below-threshold")
	log.Info("hello", String("k", "v"))
	clock.Advance(time.Millisecond)
	log.Warn("uh-oh")
	log.Error("boom", Int("code", 7))

	recs, dropped := ring.Snapshot()
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3 (debug filtered at default level): %+v", len(recs), recs)
	}
	if recs[0].Msg != "hello" || recs[0].Level != LevelInfo || recs[0].At != 0 {
		t.Errorf("first record = %+v", recs[0])
	}
	if recs[1].At != time.Millisecond {
		t.Errorf("second record At = %v, want 1ms", recs[1].At)
	}
	if got := recs[2].Attrs; len(got) != 1 || got[0].Key != "code" || got[0].Value != "7" {
		t.Errorf("error record attrs = %+v", got)
	}

	dbg := log.WithLevel(LevelDebug)
	dbg.Debug("now-visible")
	if recs, _ := ring.Snapshot(); len(recs) != 4 {
		t.Fatalf("debug record not emitted after WithLevel: %d records", len(recs))
	}
}

func TestLoggerWithBindsCorrelationContext(t *testing.T) {
	clock := NewManualClock(0)
	ring := NewRingSink(8)
	base := NewLogger(clock, ring)
	job := base.With(String("tenant", "acme"), String("job", "j-1"))
	stream := job.With(String("stream", "0x7E8"))

	stream.Info("stage-done", String("stage", "align"))
	job.Info("job-finished")

	recs, _ := ring.Snapshot()
	wantFirst := []Attr{
		{Key: "tenant", Value: "acme"}, {Key: "job", Value: "j-1"},
		{Key: "stream", Value: "0x7E8"}, {Key: "stage", Value: "align"},
	}
	if fmt.Sprint(recs[0].Attrs) != fmt.Sprint(wantFirst) {
		t.Errorf("bound attrs out of order: %+v", recs[0].Attrs)
	}
	// Deriving stream must not have mutated the parent job logger.
	if fmt.Sprint(recs[1].Attrs) != fmt.Sprint([]Attr{{Key: "tenant", Value: "acme"}, {Key: "job", Value: "j-1"}}) {
		t.Errorf("parent logger contaminated by child With: %+v", recs[1].Attrs)
	}
}

func TestLoggerTeeFansOut(t *testing.T) {
	clock := NewManualClock(0)
	var buf bytes.Buffer
	ring := NewRingSink(4)
	log := NewLogger(clock, NewJSONSink(&buf)).Tee(ring)
	log.Info("fan-out", String("k", "v"))

	want := `{"at_us":0,"level":"info","msg":"fan-out","k":"v"}` + "\n"
	if buf.String() != want {
		t.Errorf("json sink line = %q, want %q", buf.String(), want)
	}
	if recs, _ := ring.Snapshot(); len(recs) != 1 {
		t.Errorf("ring missed teed record")
	}
}

func TestNilLoggerIsSafe(t *testing.T) {
	var l *Logger
	l.Info("ignored", String("k", "v"))
	l = l.With(String("a", "b")).Tee(NewRingSink(1)).WithLevel(LevelDebug)
	if l != nil {
		t.Fatalf("nil logger derivations should stay nil")
	}
	l.Error("still ignored")
}

func TestTextRendering(t *testing.T) {
	r := Record{At: 1500 * time.Millisecond, Level: LevelWarn, Msg: "odd values",
		Attrs: []Attr{{Key: "plain", Value: "x"}, {Key: "spaced", Value: "a b"}, {Key: "empty", Value: ""}}}
	got := r.Text()
	want := `[1.500000] warn odd values plain=x spaced="a b" empty=""`
	if got != want {
		t.Errorf("Text() = %q, want %q", got, want)
	}
}

func TestRingSinkEvictionOrder(t *testing.T) {
	ring := NewRingSink(3)
	for i := 0; i < 5; i++ {
		ring.Emit(Record{At: time.Duration(i), Msg: fmt.Sprintf("m%d", i)})
	}
	recs, dropped := ring.Snapshot()
	if dropped != 2 {
		t.Errorf("dropped = %d, want 2", dropped)
	}
	var msgs []string
	for _, r := range recs {
		msgs = append(msgs, r.Msg)
	}
	if got := strings.Join(msgs, ","); got != "m2,m3,m4" {
		t.Errorf("retained = %s, want m2,m3,m4 (oldest evicted first)", got)
	}
}

func TestRingSinkDumpJSONCanonicalOrder(t *testing.T) {
	// Two rings receive the same record multiset in different arrival
	// orders; their dumps must be byte-identical.
	recs := []Record{
		{At: 2 * time.Millisecond, Level: LevelInfo, Msg: "b"},
		{At: time.Millisecond, Level: LevelWarn, Msg: "c", Attrs: []Attr{{Key: "k", Value: "1"}}},
		{At: time.Millisecond, Level: LevelInfo, Msg: "a"},
		{At: time.Millisecond, Level: LevelWarn, Msg: "c", Attrs: []Attr{{Key: "k", Value: "0"}}},
	}
	a, b := NewRingSink(8), NewRingSink(8)
	for _, r := range recs {
		a.Emit(r)
	}
	for i := len(recs) - 1; i >= 0; i-- {
		b.Emit(recs[i])
	}
	var da, db bytes.Buffer
	if err := a.DumpJSON(&da); err != nil {
		t.Fatal(err)
	}
	if err := b.DumpJSON(&db); err != nil {
		t.Fatal(err)
	}
	if da.String() != db.String() {
		t.Errorf("dumps differ:\n%s\nvs\n%s", da.String(), db.String())
	}
	wantFirst := `{"at_us":1000,"level":"info","msg":"a"}`
	if !strings.HasPrefix(da.String(), wantFirst) {
		t.Errorf("dump not canonically sorted; starts %q, want %q", da.String()[:50], wantFirst)
	}
}

func TestWriterSinkConcurrentLines(t *testing.T) {
	var buf bytes.Buffer
	sink := NewTextSink(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sink.Emit(Record{Msg: fmt.Sprintf("w%d-%d", i, j)})
			}
		}(i)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "[0.000000] debug w") {
			t.Fatalf("mangled line %q", l)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{"debug": LevelDebug, "": LevelInfo, "warn": LevelWarn, "error": LevelError} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted junk")
	}
}

func TestMillisAttr(t *testing.T) {
	if a := Millis("ms", 1234567*time.Microsecond); a.Value != "1234.567" {
		t.Errorf("Millis = %q, want 1234.567", a.Value)
	}
}
