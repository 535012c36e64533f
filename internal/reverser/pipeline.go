package reverser

import (
	"fmt"
	"strings"
	"time"

	"dpreverser/internal/gp"
	"dpreverser/internal/ocr"
)

// Config tunes the pipeline.
type Config struct {
	// GP configures the symbolic-regression engine.
	GP gp.Config
}

// DefaultConfig mirrors the paper's settings (1000 programs, 30
// generations).
func DefaultConfig() Config {
	return Config{GP: gp.DefaultConfig()}
}

// ReversedESV is one recovered readable quantity.
type ReversedESV struct {
	Key StreamKey
	// Label is the semantic information recovered from the UI (§3.4).
	Label string
	// Unit is the displayed unit text, when one was recognised.
	Unit string
	// Enum marks state quantities for which no formula exists.
	Enum bool
	// Formula is the recovered decode formula over the stream's byte
	// variables (nil for enums and under-sampled streams).
	Formula *gp.Node
	// Fitness is the formula's trimmed MAE on the paired data.
	Fitness float64
	// Pairs is the (X, Y) dataset size the inference ran on.
	Pairs int
	// Generations the GP ran (0 when no inference happened).
	Generations int
	// Evaluations counts the GP fitness evaluations requested for this
	// stream; CacheHits of them were served by the engine's
	// cross-generation fitness cache and CacheMisses were not
	// (Evaluations = CacheHits + CacheMisses; each miss ran the compiled
	// VM once).
	Evaluations int
	CacheHits   int
	CacheMisses int
}

// FormulaString renders the recovered formula.
func (r ReversedESV) FormulaString() string {
	if r.Formula == nil {
		return ""
	}
	return r.Formula.String()
}

// ReversedECR is one recovered actuator-control record (§4.5).
type ReversedECR struct {
	// Service is 0x2F or 0x30.
	Service byte
	// ID is the DID (0x2F) or local identifier (0x30).
	ID uint16
	// State is the proprietary control-state bytes of the short-term
	// adjustment.
	State []byte
	// Label is the component name recovered from the active-test screen.
	Label string
	// SawFreeze / SawAdjust / SawReturn record which of the three-message
	// pattern's steps were observed answered positively.
	SawFreeze, SawAdjust, SawReturn bool
}

// PatternComplete reports whether the §4.5 control procedure was fully
// observed: the adjustment plus return-control always, and the freeze
// prologue for the UDS IO-control service.
func (r ReversedECR) PatternComplete() bool {
	if !r.SawAdjust || !r.SawReturn {
		return false
	}
	if r.Service == 0x2F {
		return r.SawFreeze
	}
	return true
}

// Result is the full output of reverse engineering one capture.
type Result struct {
	Car      string
	Model    string
	ToolName string

	// Offset is the estimated camera-to-CAN clock offset.
	Offset time.Duration
	// Stats is the Table 9 frame mix.
	Stats TrafficStats
	// ESVs are the recovered readable quantities (sorted by key).
	ESVs []ReversedESV
	// ECRs are the recovered control records.
	ECRs []ReversedECR
	// Messages is the assembled application-message count.
	Messages int
	// Evaluations, CacheHits and CacheMisses aggregate the per-stream GP
	// scoring counters over the whole run (Evaluations = CacheHits +
	// CacheMisses). They match the telemetry registry's
	// dpreverser_gp_* counters for a single-run registry exactly.
	Evaluations int
	CacheHits   int
	CacheMisses int
	// Streams holds the prepared per-stream inference inputs the ESVs were
	// recovered from, in extraction order. The experiment harness scores
	// alternative algorithms on exactly these datasets (§4.4) without
	// re-walking the capture.
	Streams []StreamData
	// Degraded reports every stream the pipeline salvaged around rather
	// than recovered cleanly: transport damage attributed by CAN ID,
	// pairing outliers rejected, and contained inference panics — in
	// deterministic order (assemble, pairing, then infer by stream index).
	// Empty on a clean capture. Under WithFaultPolicy(Strict), a non-empty
	// report fails the run with a *DegradedError instead.
	Degraded []StreamError
}

// session is one contiguous live-data recording (one ECU's data-stream
// screen, or the OBD screen).
type session struct {
	screenName string
	start, end time.Duration
	frames     []ocr.Frame
}

// splitSessions groups UI frames into contiguous recordings: a new session
// starts when the screen changes or the video gaps for more than two
// seconds (menu navigation between recordings). A session's frames are a
// run of consecutive frames, so each is a subslice of frames.
func splitSessions(frames []ocr.Frame) []session {
	const gap = 2 * time.Second
	var out []session
	var cur *session
	for i := range frames {
		f := &frames[i]
		if f.ScreenName != "live-data" && f.ScreenName != "obd-live" {
			cur = nil
			continue
		}
		if cur == nil || f.ScreenName != cur.screenName || f.At-cur.end > gap {
			out = append(out, session{screenName: f.ScreenName, start: f.At, end: f.At, frames: frames[i:i]})
			cur = &out[len(out)-1]
		}
		cur.frames = cur.frames[:len(cur.frames)+1]
		cur.end = f.At
	}
	return out
}

// rangeForLabel supplies the stage-one plausibility range from public
// knowledge about the recovered quantity name. Unknown quantities get a
// generous default and rely on the outlier stage.
func rangeForLabel(label string) (min, max float64) {
	l := strings.ToLower(label)
	type entry struct {
		substr   string
		min, max float64
	}
	table := []entry{
		{"engine speed", 0, 12000},
		{"engine load", 0, 110},
		{"fuel tank", 0, 110},
		{"vehicle speed", 0, 400},
		{"coolant", -60, 250},
		{"temperature", -60, 300},
		{"voltage", 0, 50},
		{"throttle", 0, 120},
		{"fuel level", 0, 110},
		{"pressure", 0, 10000},
		{"accelerator", 0, 120},
		{"duty", 0, 110},
		{"lambda", -150, 150},
		{"torque", -50, 50},
		{"acceleration", -30, 30},
		{"mass flow", 0, 1000},
		{"injection", 0, 1000},
		{"power", -500, 500},
		{"angle", -800, 800},
	}
	for _, e := range table {
		if strings.Contains(l, e.substr) {
			return e.min, e.max
		}
	}
	return -1e6, 1e6
}

// reverseECRs groups IO-control observations into per-actuator records and
// recovers their semantics from the active-test screens, whose camera
// clock is off ahead of the traffic clock.
func reverseECRs(obs []ECRObservation, uiFrames []ocr.Frame, off time.Duration) []ReversedECR {
	type ecrKey struct {
		service byte
		id      uint16
	}
	recs := map[ecrKey]*ReversedECR{}
	var order []ecrKey
	adjustAt := map[ecrKey]time.Duration{}
	for _, o := range obs {
		if !o.Positive {
			continue
		}
		k := ecrKey{service: o.Service, id: o.ID}
		r, ok := recs[k]
		if !ok {
			r = &ReversedECR{Service: o.Service, ID: o.ID}
			recs[k] = r
			order = append(order, k)
		}
		switch o.Param {
		case 0x02:
			r.SawFreeze = true
		case 0x03:
			r.SawAdjust = true
			r.State = append([]byte(nil), o.State...)
			adjustAt[k] = o.At
		case 0x00:
			r.SawReturn = true
		default:
			// Direct one-shot controls count as adjustments.
			r.SawAdjust = true
			r.State = append([]byte{o.Param}, o.State...)
			adjustAt[k] = o.At
		}
	}

	// Semantic labels: the active-run screen shows "Testing <name>"; the
	// record whose adjustment is nearest in time gets the name.
	type testingFrame struct {
		at   time.Duration
		name string
	}
	var testing []testingFrame
	for _, f := range uiFrames {
		if f.ScreenName != "active-run" {
			continue
		}
		for _, t := range f.Texts {
			if strings.HasPrefix(t.Content, "Testing ") {
				testing = append(testing, testingFrame{at: f.At - off, name: strings.TrimPrefix(t.Content, "Testing ")})
			}
		}
	}
	var out []ReversedECR
	for _, k := range order {
		r := recs[k]
		if at, ok := adjustAt[k]; ok {
			best := time.Duration(1 << 62)
			for _, tf := range testing {
				gap := tf.at - at
				if gap < 0 {
					gap = -gap
				}
				if gap < best {
					best = gap
					r.Label = tf.name
				}
			}
		}
		out = append(out, *r)
	}
	return out
}

// Summary renders a human-readable digest of the result.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s) via %s\n", r.Car, r.Model, r.ToolName)
	fmt.Fprintf(&b, "  %d messages assembled, clock offset %v\n", r.Messages, r.Offset)
	formulas, enums := 0, 0
	for _, e := range r.ESVs {
		if e.Enum {
			enums++
		} else if e.Formula != nil {
			formulas++
		}
	}
	fmt.Fprintf(&b, "  %d streams reversed (%d formulas, %d enums), %d control records\n",
		len(r.ESVs), formulas, enums, len(r.ECRs))
	return b.String()
}
