package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// This file is the repo's structured event log: slog-shaped (leveled
// records with key/value attributes) but clock-injected, so two runs
// under a frozen ManualClock emit byte-identical records. A Logger is an
// immutable value — With / Tee / WithLevel derive new loggers instead of
// mutating — which is what lets the job server hand every job a logger
// that carries the job's correlation context (tenant, job ID, shard,
// span) plus a private flight-recorder ring, while all of them share the
// process-wide stderr sink.
//
// Records render deterministically: attributes keep their declared order
// (bound attributes first, call-site attributes after), JSON is emitted
// by a hand-rolled renderer rather than a map, and RingSink.DumpJSON
// sorts records canonically so equal record multisets dump to equal
// bytes regardless of goroutine interleaving.

// Level is a log record's severity.
type Level int

// Log levels, in increasing severity.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String implements fmt.Stringer with the wire names the JSON sink uses.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "unknown"
	}
}

// ParseLevel reads a level name ("debug", "info", "warn", "error").
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	default:
		return LevelInfo, fmt.Errorf("telemetry: unknown log level %q (want debug, info, warn or error)", s)
	}
}

// Int64 builds a 64-bit integer attribute (job-span IDs).
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: strconv.FormatInt(v, 10)} }

// Millis renders a duration as fixed three-decimal milliseconds — the
// one duration shape every log record and flight record uses, so grep
// and jq see consistent values.
func Millis(k string, d time.Duration) Attr {
	return Attr{Key: k, Value: strconv.FormatFloat(float64(d.Microseconds())/1e3, 'f', 3, 64)}
}

// Record is one structured log event. Attrs hold the logger's bound
// correlation attributes first, then the call site's, in declared order.
type Record struct {
	// At is the injected-clock instant of the record.
	At time.Duration
	// Level is the record severity.
	Level Level
	// Msg is the stable event name ("job-start", "stage-done", ...).
	Msg string
	// Attrs are the key/value annotations, correlation context included.
	Attrs []Attr
}

// appendJSON renders the record as a single JSON object. Keys appear in
// a fixed order and attributes keep their declared order (duplicates are
// emitted as-is), so the bytes are a pure function of the record.
func (r Record) appendJSON(b []byte) []byte {
	b = append(b, `{"at_us":`...)
	b = strconv.AppendInt(b, r.At.Microseconds(), 10)
	b = append(b, `,"level":`...)
	b = strconv.AppendQuote(b, r.Level.String())
	b = append(b, `,"msg":`...)
	b = strconv.AppendQuote(b, r.Msg)
	for _, a := range r.Attrs {
		b = append(b, ',')
		b = strconv.AppendQuote(b, a.Key)
		b = append(b, ':')
		b = strconv.AppendQuote(b, a.Value)
	}
	return append(b, '}')
}

// MarshalJSON implements json.Marshaler with the deterministic renderer,
// so flight records and JSON dumps embed records byte-stably.
func (r Record) MarshalJSON() ([]byte, error) { return r.appendJSON(nil), nil }

// Text renders the record in the human-readable stderr shape:
// [seconds] LEVEL msg key=value ...
func (r Record) Text() string {
	b := make([]byte, 0, 64)
	b = append(b, '[')
	b = strconv.AppendFloat(b, r.At.Seconds(), 'f', 6, 64)
	b = append(b, "] "...)
	b = append(b, r.Level.String()...)
	b = append(b, ' ')
	b = append(b, r.Msg...)
	for _, a := range r.Attrs {
		b = append(b, ' ')
		b = append(b, a.Key...)
		b = append(b, '=')
		if needsQuote(a.Value) {
			b = strconv.AppendQuote(b, a.Value)
		} else {
			b = append(b, a.Value...)
		}
	}
	return string(b)
}

// needsQuote reports whether a text-format value must be quoted.
func needsQuote(v string) bool {
	if v == "" {
		return true
	}
	for i := 0; i < len(v); i++ {
		if v[i] <= ' ' || v[i] == '"' || v[i] == '=' {
			return true
		}
	}
	return false
}

// compareRecords orders records canonically: by instant, then severity,
// then message, then rendered attributes. Equal multisets of records
// sort into identical sequences, which is what makes ring dumps
// byte-identical across worker counts.
func compareRecords(a, b Record) int {
	switch {
	case a.At != b.At:
		if a.At < b.At {
			return -1
		}
		return 1
	case a.Level != b.Level:
		if a.Level < b.Level {
			return -1
		}
		return 1
	case a.Msg != b.Msg:
		if a.Msg < b.Msg {
			return -1
		}
		return 1
	}
	aj, bj := string(a.appendJSON(nil)), string(b.appendJSON(nil))
	switch {
	case aj < bj:
		return -1
	case aj > bj:
		return 1
	default:
		return 0
	}
}

// Sink receives finished records. Implementations must be safe for
// concurrent Emit calls; the Logger does not serialise them.
type Sink interface {
	Emit(Record)
}

// WriterSink writes one line per record to an io.Writer, in text or JSON
// form. A mutex keeps concurrent records on separate lines.
type WriterSink struct {
	mu   sync.Mutex
	w    io.Writer
	json bool
}

// NewTextSink returns a sink emitting the human-readable line format.
func NewTextSink(w io.Writer) *WriterSink { return &WriterSink{w: w} }

// NewJSONSink returns a sink emitting one JSON object per line.
func NewJSONSink(w io.Writer) *WriterSink { return &WriterSink{w: w, json: true} }

// Emit implements Sink.
func (s *WriterSink) Emit(r Record) {
	if s == nil {
		return
	}
	var line []byte
	if s.json {
		line = append(r.appendJSON(nil), '\n')
	} else {
		line = append([]byte(r.Text()), '\n')
	}
	s.mu.Lock()
	s.w.Write(line) //nolint:errcheck // logging best-effort; nothing to do about a dead writer
	s.mu.Unlock()
}

// RingSink retains the most recent records in a fixed-size ring — the
// flight recorder's storage. Overflow evicts the oldest record and
// counts it, so a dump always says how much history it lost.
type RingSink struct {
	mu      sync.Mutex
	cap     int
	recs    []Record
	start   int // index of the oldest record
	dropped uint64
}

// DefaultRingCapacity sizes a flight-recorder ring when the caller does
// not choose one.
const DefaultRingCapacity = 256

// NewRingSink returns a ring retaining the last capacity records
// (DefaultRingCapacity when capacity < 1).
func NewRingSink(capacity int) *RingSink {
	if capacity < 1 {
		capacity = DefaultRingCapacity
	}
	return &RingSink{cap: capacity}
}

// Emit implements Sink: append, evicting the oldest record when full.
func (s *RingSink) Emit(r Record) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if len(s.recs) < s.cap {
		s.recs = append(s.recs, r)
	} else {
		s.recs[s.start] = r
		s.start = (s.start + 1) % s.cap
		s.dropped++
	}
	s.mu.Unlock()
}

// Snapshot returns the retained records in arrival order (oldest first)
// plus the count of records evicted by overflow.
func (s *RingSink) Snapshot() ([]Record, uint64) {
	if s == nil {
		return nil, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.recs))
	for i := 0; i < len(s.recs); i++ {
		out = append(out, s.recs[(s.start+i)%len(s.recs)])
	}
	return out, s.dropped
}

// DumpJSON writes the retained records as one JSON object per line, in
// canonical order (instant, severity, message, attributes) rather than
// arrival order — so two rings holding the same record multiset dump
// byte-identically even when goroutine scheduling interleaved their
// arrivals differently.
func (s *RingSink) DumpJSON(w io.Writer) error {
	recs, _ := s.Snapshot()
	sort.SliceStable(recs, func(i, j int) bool { return compareRecords(recs[i], recs[j]) < 0 })
	var b []byte
	for _, r := range recs {
		b = append(r.appendJSON(b), '\n')
	}
	_, err := w.Write(b)
	return err
}

// Logger emits leveled, attributed records to its sinks, stamping each
// with the injected clock. Loggers are immutable values: With binds
// correlation attributes, Tee adds sinks, WithLevel changes the
// threshold — each returns a derived logger sharing everything else.
// All methods are nil-receiver safe no-ops.
type Logger struct {
	clock Clock
	min   Level
	sinks []Sink
	attrs []Attr
}

// NewLogger builds a logger reading time from clock (nil = wall clock)
// and writing to the given sinks, at LevelInfo. A logger with no sinks
// is still useful: Tee later attaches a flight-recorder ring.
func NewLogger(clock Clock, sinks ...Sink) *Logger {
	if clock == nil {
		clock = NewWallClock()
	}
	return &Logger{clock: clock, min: LevelInfo, sinks: sinks}
}

// With returns a logger whose every record carries the given attributes
// (before any call-site attributes) — the correlation-context primitive.
func (l *Logger) With(attrs ...Attr) *Logger {
	if l == nil || len(attrs) == 0 {
		return l
	}
	d := *l
	// Copy-on-write: the parent's slice is shared by siblings, so bind into
	// a fresh slice.
	d.attrs = append(append(make([]Attr, 0, len(l.attrs)+len(attrs)), l.attrs...), attrs...)
	return &d
}

// Tee returns a logger that additionally writes to the given sinks.
func (l *Logger) Tee(sinks ...Sink) *Logger {
	if l == nil || len(sinks) == 0 {
		return l
	}
	d := *l
	d.sinks = append(append(make([]Sink, 0, len(l.sinks)+len(sinks)), l.sinks...), sinks...)
	return &d
}

// WithLevel returns a logger with the given minimum level.
func (l *Logger) WithLevel(min Level) *Logger {
	if l == nil {
		return nil
	}
	d := *l
	d.min = min
	return &d
}

// Log emits one record at the given level.
func (l *Logger) Log(level Level, msg string, attrs ...Attr) {
	if l == nil || level < l.min || len(l.sinks) == 0 {
		return
	}
	r := Record{At: l.clock.Now(), Level: level, Msg: msg}
	r.Attrs = append(append(make([]Attr, 0, len(l.attrs)+len(attrs)), l.attrs...), attrs...)
	for _, s := range l.sinks {
		s.Emit(r)
	}
}

// Debug emits a LevelDebug record.
func (l *Logger) Debug(msg string, attrs ...Attr) { l.Log(LevelDebug, msg, attrs...) }

// Info emits a LevelInfo record.
func (l *Logger) Info(msg string, attrs ...Attr) { l.Log(LevelInfo, msg, attrs...) }

// Warn emits a LevelWarn record.
func (l *Logger) Warn(msg string, attrs ...Attr) { l.Log(LevelWarn, msg, attrs...) }

// Error emits a LevelError record.
func (l *Logger) Error(msg string, attrs ...Attr) { l.Log(LevelError, msg, attrs...) }
