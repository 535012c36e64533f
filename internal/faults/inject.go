package faults

import (
	"math/rand"
	"slices"
	"time"

	"dpreverser/internal/can"
	"dpreverser/internal/isotp"
	"dpreverser/internal/ocr"
	"dpreverser/internal/sim"
	"dpreverser/internal/telemetry"
)

// Stats counts every injected fault, as ground truth for the degradation
// experiments and for the telemetry fault-rate counters.
type Stats struct {
	// FramesIn / FramesOut bracket the frame-path throughput.
	FramesIn, FramesOut int
	// Per-class frame fault counts.
	Dropped, Duplicated, Reordered, BitFlipped, Jittered int
	// TruncatedTransfers counts transfers cut off; TruncatedFrames the
	// consecutive frames suppressed for them.
	TruncatedTransfers, TruncatedFrames int
	// AbortedTransfers counts first frames re-injected mid-transfer.
	AbortedTransfers int
	// Values / CorruptedValues bracket the OCR path; the three fields
	// below break corruption down by failure mode.
	Values, CorruptedValues            int
	DigitSubs, DecimalDrops, SignFlips int

	// Adversarial attack counts: transfers answered with hostile
	// flow-control bursts, forged first-frame floods, forged transfers
	// interleaved into real ones, first frames replayed mid-session, and
	// transfers dripped dry (plus the consecutive frames withheld).
	FCStarveBursts, FFFloods, InterleavedFFs, ReplayedFFs int
	DrippedTransfers, DrippedFrames                       int
}

// Counts maps stable kind labels to fault counts, the shape the
// telemetry counter consumes.
func (s Stats) Counts() map[string]int {
	return map[string]int{
		"drop":        s.Dropped,
		"dup":         s.Duplicated,
		"reorder":     s.Reordered,
		"bit-flip":    s.BitFlipped,
		"jitter":      s.Jittered,
		"truncate":    s.TruncatedFrames,
		"abort":       s.AbortedTransfers,
		"ocr-digit":   s.DigitSubs,
		"ocr-decimal": s.DecimalDrops,
		"ocr-sign":    s.SignFlips,

		"fc-starve":      s.FCStarveBursts,
		"ff-flood":       s.FFFloods,
		"interleave":     s.InterleavedFFs,
		"session-replay": s.ReplayedFFs,
		"slow-drip":      s.DrippedFrames,
	}
}

// Total sums every injected fault event.
func (s Stats) Total() int {
	n := 0
	for _, v := range s.Counts() {
		n += v
	}
	return n
}

// held is one frame parked in the delay queue: a reordered original or a
// re-injected first frame, emitted after `after` more input frames.
type held struct {
	frame can.Frame
	after int
}

// Injector applies a Spec to captures. It is deterministic: one RNG,
// seeded at construction, consumed sequentially over the input. An
// Injector is stateful (reorder queue, per-ID truncation state) and not
// safe for concurrent use; wrap it in a mutex for streaming fan-out.
type Injector struct {
	spec  Spec
	rng   *rand.Rand
	stats Stats

	queue    []held
	truncate map[uint32]int
	adv      advState
}

// New builds an injector for spec with a deterministic seed.
func New(spec Spec, seed int64) *Injector {
	if spec.ReorderWindow < 1 {
		spec.ReorderWindow = 4
	}
	return &Injector{
		spec:     spec,
		rng:      sim.NewRand(seed),
		truncate: map[uint32]int{},
		adv:      newAdvState(),
	}
}

// Stats returns a snapshot of the fault counters.
func (in *Injector) Stats() Stats { return in.stats }

// Frames perturbs a whole capture's frame slice: Stream over every frame,
// then Flush. The input is not modified.
func (in *Injector) Frames(frames []can.Frame) []can.Frame {
	out := make([]can.Frame, 0, len(frames))
	for _, f := range frames {
		out = append(out, in.Stream(f)...)
	}
	return append(out, in.Flush()...)
}

// Stream feeds one frame through the injector and returns the frames to
// deliver now: zero (dropped, reordered, truncated), one, or several
// (duplicates, delayed frames coming due). canbridge uses this form to
// perturb live traffic; Frames uses it for recorded captures.
func (in *Injector) Stream(f can.Frame) []can.Frame {
	var out []can.Frame
	in.stream(f, func(g can.Frame) { out = append(out, g) })
	return out
}

// stream is the emit-callback core of Stream: frames due now are handed
// to emit in delivery order.
func (in *Injector) stream(f can.Frame, emit func(can.Frame)) {
	in.stats.FramesIn++
	data := f.Payload()
	in.learnVWTP(f.ID, data)

	emitted := true
	switch {
	case in.suppressDripped(f.ID, data):
		emitted = false
	case in.suppressTruncated(f.ID, data):
		emitted = false
	case in.spec.Drop > 0 && in.rng.Float64() < in.spec.Drop:
		in.stats.Dropped++
		emitted = false
	default:
		if in.spec.BitFlip > 0 && f.Len > 0 && in.rng.Float64() < in.spec.BitFlip {
			i := in.rng.Intn(f.Len)
			f.Data[i] ^= 1 << in.rng.Intn(8)
			in.stats.BitFlipped++
			data = f.Payload()
		}
		if in.spec.Jitter > 0 {
			span := int64(2*in.spec.Jitter) + 1
			off := time.Duration(in.rng.Int63n(span)) - in.spec.Jitter
			if off != 0 {
				ts := f.Timestamp + off
				if ts < 0 {
					ts = 0
				}
				f.Timestamp = ts
				in.stats.Jittered++
			}
		}
	}

	var reinject *can.Frame
	reorderAfter := 0
	if emitted {
		if startsTransfer(data) {
			// Transfer-level faults key off the first frame.
			in.truncate[f.ID] = 0
			if in.spec.Truncate > 0 && in.rng.Float64() < in.spec.Truncate {
				in.truncate[f.ID] = 1 + in.rng.Intn(3)
				in.stats.TruncatedTransfers++
			}
			if in.spec.Abort > 0 && in.rng.Float64() < in.spec.Abort {
				copyFF := f
				reinject = &copyFF
				in.stats.AbortedTransfers++
			}
		}
		dup := in.spec.Dup > 0 && in.rng.Float64() < in.spec.Dup
		if in.spec.Reorder > 0 && in.rng.Float64() < in.spec.Reorder {
			reorderAfter = 1 + in.rng.Intn(in.spec.ReorderWindow)
			in.stats.Reordered++
		} else {
			in.stats.FramesOut++
			emit(f)
			if dup {
				in.stats.FramesOut++
				emit(f)
				in.stats.Duplicated++
			}
			if in.spec.Adversarial() {
				in.injectAdversarial(f, data, emit)
			}
		}
	}

	// Advance the delay queue by one input frame and release what is due.
	rest := in.queue[:0]
	for _, h := range in.queue {
		h.after--
		if h.after <= 0 {
			in.stats.FramesOut++
			emit(h.frame)
		} else {
			rest = append(rest, h)
		}
	}
	in.queue = rest
	if reorderAfter > 0 {
		in.queue = append(in.queue, held{frame: f, after: reorderAfter})
	}
	if reinject != nil {
		in.queue = append(in.queue, held{frame: *reinject, after: 1})
	}
}

// Flush releases every frame still parked in the delay queue, in queue
// order. Call it after the last Stream of a capture.
func (in *Injector) Flush() []can.Frame {
	out := make([]can.Frame, 0, len(in.queue))
	in.flush(func(g can.Frame) { out = append(out, g) })
	return out
}

// flush is the emit-callback core of Flush.
func (in *Injector) flush(emit func(can.Frame)) {
	for _, h := range in.queue {
		in.stats.FramesOut++
		emit(h.frame)
	}
	in.queue = in.queue[:0]
}

// suppressTruncated drops the consecutive frames of a transfer marked for
// truncation. Any non-consecutive frame on the ID ends the suppression.
func (in *Injector) suppressTruncated(id uint32, data []byte) bool {
	left := in.truncate[id]
	if left <= 0 {
		return false
	}
	if !continuesTransfer(data) {
		in.truncate[id] = 0
		return false
	}
	in.truncate[id] = left - 1
	in.stats.TruncatedFrames++
	return true
}

// startsTransfer recognises a multi-frame transfer's opening frame under
// normal or extended (BMW) addressing. The injector sees raw frames with
// no per-ID transport knowledge, so this is a heuristic — which is fine:
// a misclassified frame just receives a different flavour of noise.
func startsTransfer(data []byte) bool {
	if isotp.Classify(data) == isotp.FirstFrame {
		return true
	}
	return len(data) >= 3 && isotp.Classify(data[1:]) == isotp.FirstFrame
}

// continuesTransfer recognises consecutive frames the same way.
func continuesTransfer(data []byte) bool {
	if isotp.Classify(data) == isotp.ConsecutiveFrame {
		return true
	}
	return len(data) >= 2 && isotp.Classify(data[1:]) == isotp.ConsecutiveFrame
}

// UIFrames perturbs OCR'd video frames: each numeric displayed value
// (a value-column text, ocr.ValueTexts) suffers the spec's OCR failure
// modes (decimal-point loss, digit substitution, sign misread), replayed
// through the same helpers the OCR engine uses. Values are visited in
// text order. The input is not modified.
func (in *Injector) UIFrames(frames []ocr.Frame) []ocr.Frame {
	out := make([]ocr.Frame, len(frames))
	var values []int
	for i, f := range frames {
		f.Texts = slices.Clone(f.Texts)
		values = ocr.ValueTexts(f.Texts, values[:0])
		for _, j := range values {
			t := &f.Texts[j]
			if _, ok := ocr.ParseValue(t.Content); !ok {
				continue
			}
			in.stats.Values++
			if text, changed := in.corruptValue(t.Content); changed {
				t.Content = text
				in.stats.CorruptedValues++
			}
		}
		out[i] = f
	}
	return out
}

// corruptValue draws each OCR failure mode independently for one value.
func (in *Injector) corruptValue(text string) (string, bool) {
	changed := false
	if in.spec.OCRDecimal > 0 && in.rng.Float64() < in.spec.OCRDecimal {
		if out, ok := ocr.DropDecimal(text); ok {
			text, changed = out, true
			in.stats.DecimalDrops++
		}
	}
	if in.spec.OCRDigit > 0 && in.rng.Float64() < in.spec.OCRDigit {
		if out, ok := ocr.SubstituteDigit(in.rng, text); ok {
			text, changed = out, true
			in.stats.DigitSubs++
		}
	}
	if in.spec.OCRSign > 0 && in.rng.Float64() < in.spec.OCRSign {
		if out, ok := ocr.FlipSign(text); ok {
			text, changed = out, true
			in.stats.SignFlips++
		}
	}
	return text, changed
}

// Publish adds the injector's fault counters to a telemetry registry
// under the dpreverser_faults_injected_total family (label: kind). A nil
// registry is a no-op.
func (in *Injector) Publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	cv := reg.CounterVec(telemetry.MetricFaultsInjected,
		"faults injected into the capture by class", "kind")
	for kind, n := range in.stats.Counts() {
		if n > 0 {
			cv.With(kind).Add(float64(n))
		}
	}
}
