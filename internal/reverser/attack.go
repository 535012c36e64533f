package reverser

import (
	"fmt"
	"sort"

	"dpreverser/internal/can"
)

// Attack-class labels, shared with the adversarial injector in
// internal/faults. They are stable API: each doubles as the Reason of
// the StreamError attributing an attacked stream and as the "class"
// label of the dpreverser_attack_signatures_total metric family.
const (
	AttackFCStarvation      = "flow-control-starvation"
	AttackFirstFrameFlood   = "first-frame-flood"
	AttackInterleave        = "interleaved-transfer"
	AttackSessionStarvation = "session-starvation"
	AttackSlowDrip          = "slow-drip"
)

// StageAttack is the StreamError stage the detector reports under.
const StageAttack = "attack"

// floodLengthFloor is the announced first-frame length at which a
// transfer counts as memory-exhaustion-sized: no diagnostic response in
// this pipeline approaches half the 12-bit ISO-TP maximum.
const floodLengthFloor = 0x800

// maxPendingTransfers bounds how many multi-frame transfers the
// assembler will hold in flight at once. Beyond it the oldest pending
// transfer is evicted (reported as a "pending-overflow" assembly
// error), so a first-frame flood across many IDs cannot grow
// reassembly state without limit.
const maxPendingTransfers = 64

// AttackProfile accumulates per-CAN-ID transport behaviour that only
// hostile traffic exhibits. The assembler fills one per ID alongside
// TrafficStats; DetectAttacks turns them into classified findings.
type AttackProfile struct {
	// HostileFC counts hostile flow-control frames: ISO-TP wait states,
	// overflow aborts, maximum-STmin lockups, and VW TP 2.0
	// receiver-not-ready ACKs.
	HostileFC int
	// MaxLenFF counts first frames announcing >= floodLengthFloor bytes.
	MaxLenFF int
	// RestartsIdentical counts first frames that arrived mid-transfer and
	// were byte-identical to the in-flight transfer's first frame.
	// RestartsIdenticalFed is the subset where at least one consecutive
	// frame had already been consumed (a session genuinely restarted);
	// RestartsIdenticalBarren the subset where none had — back-to-back
	// identical first frames, the shape only a replay injector produces
	// (a benign re-poll of a constant value after a dropped final
	// consecutive frame always restarts fed).
	RestartsIdentical, RestartsIdenticalFed, RestartsIdenticalBarren int
	// RestartsNewLength counts mid-transfer first frames announcing a
	// different payload length than the transfer they displaced — the
	// shape of a competing interleaved session.
	RestartsNewLength int
	// RestartsBarren counts mid-transfer first frames that arrived before
	// any consecutive frame was consumed: the displaced transfer opened
	// and then delivered nothing.
	RestartsBarren int
	// SeqErrors counts consecutive-frame reassembly errors on the ID.
	SeqErrors int
	// MFStarted / MFCompleted bracket multi-frame transfers on the ID.
	MFStarted, MFCompleted int
	// InFlightAtEnd marks a transfer still pending when the capture ended.
	InFlightAtEnd bool
	// Evicted counts transfers evicted by the pending-transfer cap.
	Evicted int

	// tracker state, maintained by the assembler while feeding.
	lastFF  []byte
	cfSince int
}

// ffLength reads the announced length of a stored first frame (plain
// ISO-TP shape; BMW profiles store the address-stripped frame).
func ffLength(ff []byte) int {
	if len(ff) < 2 {
		return -1
	}
	return int(ff[0]&0x0F)<<8 | int(ff[1])
}

// AttackFinding is one classified attack signature on one CAN ID.
type AttackFinding struct {
	// ID is the attacked arbitration ID.
	ID uint32
	// Class is one of the Attack* labels.
	Class string
	// Detail summarises the evidence behind the classification.
	Detail string
}

// classify applies the signature rules to one profile, most specific
// first, and returns the matched class ("" when the profile is benign).
// Thresholds are calibrated so that the "default" random-fault preset
// never fires while a saturating adversarial injector always does: each
// rule requires a conjunction of behaviours random damage does not
// produce together.
func (p *AttackProfile) classify() (class, detail string) {
	restarts := p.RestartsIdentical + p.RestartsNewLength
	switch {
	case p.HostileFC >= 3:
		return AttackFCStarvation,
			fmt.Sprintf("%d hostile flow-control frames (wait states, overflow aborts or lockup STmin)", p.HostileFC)
	case p.MaxLenFF >= 2:
		return AttackFirstFrameFlood,
			fmt.Sprintf("%d first frames announcing >=%d bytes (%d restarts, %d evicted)",
				p.MaxLenFF, floodLengthFloor, restarts, p.Evicted)
	case p.RestartsIdenticalBarren >= 4:
		return AttackSessionStarvation,
			fmt.Sprintf("%d byte-identical first-frame replays before any data flowed (%d identical restarts total, %d sequence errors)",
				p.RestartsIdenticalBarren, p.RestartsIdentical, p.SeqErrors)
	case p.RestartsNewLength >= 2 && p.SeqErrors >= 2:
		return AttackInterleave,
			fmt.Sprintf("%d competing first frames with foreign lengths mid-transfer, %d sequence errors",
				p.RestartsNewLength, p.SeqErrors)
	case p.RestartsBarren >= 2 || (p.MFStarted >= 4 && p.MFCompleted == 0) ||
		(p.InFlightAtEnd && p.MFStarted >= 1 && p.MFCompleted == 0):
		return AttackSlowDrip,
			fmt.Sprintf("%d transfers opened, %d completed, %d restarted before any data (in flight at capture end: %v)",
				p.MFStarted, p.MFCompleted, p.RestartsBarren, p.InFlightAtEnd)
	}
	return "", ""
}

// DetectAttacks scores the assembly-layer attack profiles gathered in
// stats and returns one classified finding per attacked ID, in ID
// order. It is pure: same stats, same findings, at any Parallelism.
func DetectAttacks(stats TrafficStats) []AttackFinding {
	if len(stats.AttackProfiles) == 0 {
		return nil
	}
	ids := make([]uint32, 0, len(stats.AttackProfiles))
	for id := range stats.AttackProfiles {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []AttackFinding
	for _, id := range ids {
		if class, detail := stats.AttackProfiles[id].classify(); class != "" {
			out = append(out, AttackFinding{ID: id, Class: class, Detail: detail})
		}
	}
	return out
}

// ScreenFrames runs assembly-layer attack detection over a raw frame
// slice without running the rest of the pipeline. The jobserver uses it
// at stream admission: a flagged capture is rejected before it can
// occupy a worker.
func ScreenFrames(frames []can.Frame) []AttackFinding {
	a := newAssembler(0, 0)
	for i := range frames {
		a.feed(frames[i].Timestamp, frames[i].ID, frames[i].Payload())
	}
	a.finish()
	return DetectAttacks(a.stats)
}

// attackDegraded attributes attack findings to the streams riding the
// attacked IDs, mirroring assembleDegraded: findings on IDs that
// yielded no stream are reported with a zero key so nothing disappears
// silently. The finding's class is the StreamError Reason.
func attackDegraded(findings []AttackFinding, streams []StreamData) []StreamError {
	var out []StreamError
	for _, f := range findings {
		attributed := false
		for _, sd := range streams {
			if sd.Key.RespID != f.ID {
				continue
			}
			attributed = true
			out = append(out, StreamError{
				Key: sd.Key, Label: sd.Label, Stage: StageAttack, Reason: f.Class,
				Detail: fmt.Sprintf("ID %03X: %s", f.ID, f.Detail),
			})
		}
		if !attributed {
			out = append(out, StreamError{
				Stage: StageAttack, Reason: f.Class,
				Detail: fmt.Sprintf("ID %03X: %s (no recovered stream)", f.ID, f.Detail),
			})
		}
	}
	return out
}
