package faults

import (
	"sort"

	"dpreverser/internal/can"
	"dpreverser/internal/isotp"
	"dpreverser/internal/vwtp"
)

// Canonical attack-class labels. They double as the detector's
// degraded-stream Reason strings and the metric label values of
// dpreverser_attack_signatures_total, so they must stay stable (the
// reverser package declares the same set for classification).
const (
	ClassFCStarvation      = "flow-control-starvation"
	ClassFirstFrameFlood   = "first-frame-flood"
	ClassInterleave        = "interleaved-transfer"
	ClassSessionStarvation = "session-starvation"
	ClassSlowDrip          = "slow-drip"
)

// floodLength is the payload length forged first-frame floods announce:
// near the 12-bit ISO-TP maximum, so every flood frame pins a
// near-maximum reassembly buffer.
const floodLength = 0xFFF

// advState is the per-Injector adversarial bookkeeping.
type advState struct {
	drip     map[uint32]bool
	vwtpIDs  map[uint32]bool
	vwtpMsg  map[uint32]bool // a VW TP message is currently in flight
	attacked map[uint32]map[string]bool
	seq      int // varies forged-frame bytes between injections
}

func newAdvState() advState {
	return advState{
		drip:     map[uint32]bool{},
		vwtpIDs:  map[uint32]bool{},
		vwtpMsg:  map[uint32]bool{},
		attacked: map[uint32]map[string]bool{},
	}
}

// AttackedIDs is the injector's ground truth: every CAN ID that received
// at least one adversarial injection, with its attack classes sorted.
// Under a saturating single-class spec (probability 1) the reverser's
// detector attributes exactly these IDs; at partial probabilities a
// lone under-threshold injection may stay below the signature floor.
func (in *Injector) AttackedIDs() map[uint32][]string {
	out := make(map[uint32][]string, len(in.adv.attacked))
	for id, classes := range in.adv.attacked {
		list := make([]string, 0, len(classes))
		for c := range classes {
			list = append(list, c)
		}
		sort.Strings(list)
		out[id] = list
	}
	return out
}

// mark records ground truth for one attacked ID.
func (in *Injector) mark(id uint32, class string) {
	m := in.adv.attacked[id]
	if m == nil {
		m = map[string]bool{}
		in.adv.attacked[id] = m
	}
	m[class] = true
}

// learnVWTP watches channel-setup traffic the same way the assembler
// does, so adversarial injections use VW TP frame shapes on negotiated
// data IDs instead of ISO-TP ones.
func (in *Injector) learnVWTP(id uint32, data []byte) {
	if !in.spec.Adversarial() {
		return
	}
	if id < vwtp.BroadcastID || id >= vwtp.BroadcastID+0x100 {
		return
	}
	if ecuRx, ecuTx, ok := vwtp.SetupIDs(data); ok {
		in.adv.vwtpIDs[ecuRx] = true
		in.adv.vwtpIDs[ecuTx] = true
	}
}

// suppressDripped withholds the consecutive frames of a transfer marked
// for slow-drip: the first frame went out, nothing follows it. Any
// non-consecutive frame on the ID ends the drip.
func (in *Injector) suppressDripped(id uint32, data []byte) bool {
	if !in.adv.drip[id] {
		return false
	}
	if !continuesTransfer(id, data) {
		delete(in.adv.drip, id)
		return false
	}
	in.stats.DrippedFrames++
	return true
}

// injectAdversarial runs after a real frame is emitted in place: every
// opening (first) frame rolls each attack class, and a firing class
// injects its forgeries immediately — racing the real sender, so the
// forged frames land mid-transfer regardless of how many consecutive
// frames the victim transfer carries.
func (in *Injector) injectAdversarial(f can.Frame, data []byte, emit func(can.Frame)) {
	if in.adv.vwtpIDs[f.ID] {
		in.adversarialVWTP(f, data, emit)
		return
	}
	if !startsTransfer(f.ID, data) {
		return
	}
	prefixed, addr := isotp.ExtendedID(f.ID), data[0]
	if p := in.spec.FCStarve; p > 0 && in.rng.Float64() < p {
		in.emitFCStarve(f, prefixed, addr, emit)
	}
	if p := in.spec.FFFlood; p > 0 && in.rng.Float64() < p {
		in.emitFFFlood(f, prefixed, addr, emit)
	}
	if p := in.spec.Interleave; p > 0 && in.rng.Float64() < p {
		in.emitInterleave(f, prefixed, addr, emit)
	}
	if p := in.spec.SessionReplay; p > 0 && in.rng.Float64() < p {
		// Twice back to back: the first lands mid-transfer and restarts
		// the session, the second restarts the restart — back-to-back
		// identical first frames before any data flowed, a shape no
		// benign re-poll produces.
		in.stats.FramesOut += 2
		emit(f)
		emit(f)
		in.stats.ReplayedFFs += 2
		in.mark(f.ID, ClassSessionStarvation)
	}
	if p := in.spec.SlowDrip; p > 0 && in.rng.Float64() < p {
		in.adv.drip[f.ID] = true
		in.stats.DrippedTransfers++
		in.mark(f.ID, ClassSlowDrip)
	}
}

// adversarialVWTP attacks a negotiated VW TP 2.0 data ID. Only
// flow-control starvation applies: bursts of receiver-not-ready ACKs,
// the TP 2.0 wait state a hostile peer floods to stall the sender.
func (in *Injector) adversarialVWTP(f can.Frame, data []byte, emit func(can.Frame)) {
	if vwtp.Classify(data) != vwtp.KindData {
		return
	}
	start := !in.adv.vwtpMsg[f.ID]
	in.adv.vwtpMsg[f.ID] = !vwtp.IsLastData(data)
	if !start {
		return
	}
	if p := in.spec.FCStarve; p > 0 && in.rng.Float64() < p {
		next := (vwtp.Seq(data) + 1) & 0x0F
		for i := 0; i < 3; i++ {
			in.emitForged(f, vwtp.EncodeACK(next, false), emit)
		}
		in.stats.FCStarveBursts++
		in.mark(f.ID, ClassFCStarvation)
	}
}

// emitFCStarve injects the hostile flow-control burst: three wait
// states, one zero-block-size maximum-STmin lockup, one overflow abort.
func (in *Injector) emitFCStarve(f can.Frame, prefixed bool, addr byte, emit func(can.Frame)) {
	fc := func(status isotp.FlowStatus, bs, stMin byte) []byte {
		return extend(prefixed, addr, isotp.EncodeFlowControl(status, bs, stMin))
	}
	for i := 0; i < 3; i++ {
		in.emitForged(f, fc(isotp.Wait, 0, 0), emit)
	}
	in.emitForged(f, fc(isotp.ContinueToSend, 0, 0x7F), emit)
	in.emitForged(f, fc(isotp.Overflow, 0, 0), emit)
	in.stats.FCStarveBursts++
	in.mark(f.ID, ClassFCStarvation)
}

// emitInterleave injects one competing session mid-transfer: a forged
// first frame announcing a foreign length, immediately followed by a
// consecutive frame whose sequence number cannot continue it — the frame
// mix two interleaved transfers on one ID produce, which no single
// well-formed transfer can.
func (in *Injector) emitInterleave(f can.Frame, prefixed bool, addr byte, emit func(can.Frame)) {
	in.emitForged(f, forgeFF(prefixed, addr, 0x20+in.adv.seq%0x20, byte(in.adv.seq)), emit)
	cf := []byte{0x23, 0xAD, byte(in.adv.seq), 0xAD, byte(in.adv.seq), 0xAD, 0xAD, 0xAD}
	in.emitForged(f, extend(prefixed, addr, cf), emit)
	in.adv.seq++
	in.stats.InterleavedFFs++
	in.mark(f.ID, ClassInterleave)
}

// emitFFFlood injects three forged first frames announcing near-maximum
// transfer lengths, each one restarting reassembly on the ID with a
// large pending buffer.
func (in *Injector) emitFFFlood(f can.Frame, prefixed bool, addr byte, emit func(can.Frame)) {
	for i := 0; i < 3; i++ {
		in.emitForged(f, forgeFF(prefixed, addr, floodLength, byte(in.adv.seq)), emit)
		in.adv.seq++
	}
	in.stats.FFFloods++
	in.mark(f.ID, ClassFirstFrameFlood)
}

// emitForged delivers one forged frame on the trigger frame's ID and
// timestamp, so the forgery lands adjacent to its trigger even if the
// capture is later re-sorted by time.
func (in *Injector) emitForged(f can.Frame, data []byte, emit func(can.Frame)) {
	g := can.Frame{ID: f.ID, Extended: f.Extended, Timestamp: f.Timestamp, Len: len(data)}
	copy(g.Data[:], data)
	in.stats.FramesOut++
	emit(g)
}

// forgeFF builds a forged ISO-TP first frame announcing `length` bytes,
// with a varying filler byte so successive forgeries are distinguishable
// from genuine session replays. prefixed adds the extended-addressing
// byte BMW IDs carry.
func forgeFF(prefixed bool, addr byte, length int, filler byte) []byte {
	ff := []byte{0x10 | byte(length>>8)&0x0F, byte(length), 0xAD, filler, 0xAD, filler, 0xAD, filler}
	return extend(prefixed, addr, ff)
}

// extend puts the extended-addressing byte addr in front of an 8-byte
// ISO-TP frame when prefixed, dropping the frame's last byte so it still
// fits one CAN frame.
func extend(prefixed bool, addr byte, frame []byte) []byte {
	if !prefixed {
		return frame
	}
	return append([]byte{addr}, frame[:7]...)
}
