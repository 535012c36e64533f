// Package reverser implements DP-Reverser's analysis pipeline (§3.2-§3.5):
// diagnostic-frames analysis (screening, payload assembly, field
// extraction), screenshot analysis, request-message semantics recovery, and
// response-message formula inference. Its only inputs are the artifacts the
// cyber-physical rig captures — CAN frames, OCR'd UI video, and the click
// log. It never touches the simulated tools' or ECUs' proprietary tables;
// those exist solely as ground truth for the experiment harness.
package reverser

import (
	"bytes"
	"context"
	"time"

	"dpreverser/internal/can"
	"dpreverser/internal/colstore"
	"dpreverser/internal/isotp"
	"dpreverser/internal/vwtp"
)

// TransportKind classifies the transport carrying a CAN ID's traffic.
type TransportKind int

// Transport kinds discovered from traffic.
const (
	TransportISOTP TransportKind = iota
	TransportVWTP
	TransportBMW
)

// String implements fmt.Stringer.
func (t TransportKind) String() string {
	switch t {
	case TransportVWTP:
		return "VW TP 2.0"
	case TransportBMW:
		return "BMW extended"
	default:
		return "ISO 15765-2"
	}
}

// TrafficStats reproduces Table 9's frame-mix measurements.
type TrafficStats struct {
	// ISO-TP frame counts (single, first, consecutive, flow control).
	ISOTPSingle, ISOTPFirst, ISOTPConsecutive, ISOTPFlowControl int
	// VW TP 2.0 data-frame counts: frames that must wait for more frames
	// vs. final frames of a message (the paper's 75.2% / 24.8% split), and
	// the non-data frames the screening step removes.
	VWTPWaiting, VWTPLast, VWTPControl int
	// Total frames seen.
	Total int
	// AssemblyErrors counts malformed or out-of-order transport frames
	// across all transports; the three fields below break it down
	// (AssemblyErrors = ISOTPErrors + VWTPErrors + BMWErrors).
	AssemblyErrors int
	ISOTPErrors    int
	VWTPErrors     int
	BMWErrors      int
	// ErrorsByID maps each CAN ID to its reassembly failure count, so the
	// degradation report can attribute damage to the streams riding that
	// ID. Nil until the first error; excluded from the JSON report (the
	// attribution lands on Result.Degraded instead).
	ErrorsByID map[uint32]int `json:"-"`
	// AttackProfiles accumulates per-ID attack-signature features for
	// DetectAttacks. Nil until the first multi-frame or flow-control
	// event; excluded from the JSON report (classified findings land on
	// Result.Degraded instead).
	AttackProfiles map[uint32]*AttackProfile `json:"-"`
}

// bumpID records one reassembly failure against a CAN ID.
func (s *TrafficStats) bumpID(id uint32) {
	if s.ErrorsByID == nil {
		s.ErrorsByID = map[uint32]int{}
	}
	s.ErrorsByID[id]++
}

// ISOTPMulti reports first+consecutive frames (Table 9's "Multi Frames").
func (s TrafficStats) ISOTPMulti() int { return s.ISOTPFirst + s.ISOTPConsecutive }

// AssemblyObserver receives one call per reassembly failure with the
// transport label ("isotp", "vwtp", or "bmwtp" for ISO-TP under BMW
// extended addressing) and the stable reason label from isotp.Reason or
// vwtp.Reason. The telemetry wiring feeds these into the
// dpreverser_transport_errors_total counter.
type AssemblyObserver func(transport, reason string)

// assembler reconstructs application messages from a raw capture. It
// appends completed messages straight into a columnar store: the
// reassemblers hand back zero-copy views of their pooled scratch, and the
// store's Append is the single copy each payload costs.
type assembler struct {
	stats   TrafficStats
	onError AssemblyObserver
	// vwtpIDs marks CAN IDs negotiated through observed channel setup.
	vwtpIDs map[uint32]bool
	// reassembly state per (transport-specific) stream key.
	isotp map[uint32]*isotp.Reassembler
	vw    map[uint32]*vwtp.Reassembler
	bmw   map[uint32]map[byte]*isotp.Reassembler

	// pending bounds in-flight multi-frame state: pendingSet is
	// authoritative, pending remembers insertion order (it may hold
	// stale entries, skipped at eviction time).
	pending    []pendingKey
	pendingSet map[pendingKey]bool

	ms *colstore.Messages
}

// pendingKey names one in-flight transfer for the pending-state cap.
type pendingKey struct {
	id   uint32
	addr byte
	kind uint8 // a TransportKind
}

// newAssembler returns an assembler whose message store is presized for
// the given message count and payload bytes.
func newAssembler(messages, payloadBytes int) *assembler {
	return &assembler{
		vwtpIDs:    map[uint32]bool{},
		isotp:      map[uint32]*isotp.Reassembler{},
		vw:         map[uint32]*vwtp.Reassembler{},
		bmw:        map[uint32]map[byte]*isotp.Reassembler{},
		pendingSet: map[pendingKey]bool{},
		ms:         colstore.NewMessages(messages, payloadBytes),
	}
}

// prof returns the attack profile for id, creating it lazily.
//
//dplint:hotpath assemble-feed
func (a *assembler) prof(id uint32) *AttackProfile {
	p := a.stats.AttackProfiles[id]
	if p == nil {
		if a.stats.AttackProfiles == nil {
			a.stats.AttackProfiles = map[uint32]*AttackProfile{}
		}
		p = &AttackProfile{}
		a.stats.AttackProfiles[id] = p
	}
	return p
}

// FramesColumnar transposes a raw capture into a columnar frame store —
// the one array-of-structs → column-major copy the pipeline performs,
// after which every stage reads slab views.
func FramesColumnar(frames []can.Frame) *colstore.Frames {
	total := 0
	for i := range frames {
		total += frames[i].Len
	}
	fr := colstore.NewFrames(len(frames), total)
	for i := range frames {
		fr.Append(frames[i].ID, frames[i].Timestamp, frames[i].Payload())
	}
	return fr
}

// assembleCheckEvery is how often the assembly loop polls ctx: captures run
// to millions of frames, so the loop must notice cancellation without
// paying a ctx.Err() per frame.
const assembleCheckEvery = 1024

// AssembleColumnar is the pipeline's assembly entry: it screens and
// reassembles a columnar frame store into a columnar message store,
// sorted stably by completion time. No per-message []byte is
// materialised — payload bytes move straight from the reassemblers'
// pooled scratch into the message slab, and every downstream consumer
// reads zero-copy views.
func AssembleColumnar(ctx context.Context, frames *colstore.Frames, obs AssemblyObserver) (*colstore.Messages, TrafficStats, error) {
	// Assembly only strips transport headers, so the frames bound the
	// messages and their payload bytes.
	a := newAssembler(frames.Len(), frames.PayloadBytes())
	a.onError = obs
	for i, n := 0, frames.Len(); i < n; i++ {
		if i%assembleCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, a.stats, err
			}
		}
		a.feed(frames.At(i), frames.ID(i), frames.Payload(i))
	}
	a.finish()
	a.ms.SortStableByTime()
	return a.ms, a.stats, nil
}

//dplint:hotpath assemble-feed
func (a *assembler) feed(at time.Duration, id uint32, data []byte) {
	a.stats.Total++
	if len(data) == 0 {
		return
	}
	// VW TP 2.0 channel setup on the broadcast range teaches us the
	// negotiated data IDs (§3.2: screening removes these control frames).
	if id >= vwtp.BroadcastID && id < vwtp.BroadcastID+0x100 {
		a.stats.VWTPControl++
		if ecuRx, ecuTx, ok := vwtp.SetupIDs(data); ok {
			a.vwtpIDs[ecuRx] = true
			a.vwtpIDs[ecuTx] = true
		}
		return
	}
	switch {
	case a.vwtpIDs[id]:
		a.feedVWTP(at, id, data)
	case isotp.ExtendedID(id):
		a.feedBMW(at, id, data)
	default:
		a.feedISOTP(at, id, data)
	}
}

//dplint:hotpath assemble-feed
func (a *assembler) feedISOTP(at time.Duration, id uint32, data []byte) {
	kind, ok := a.screenISOTP(id, data)
	if !ok {
		return
	}
	r := a.isotp[id]
	if r == nil {
		r = &isotp.Reassembler{}
		a.isotp[id] = r
	}
	a.feedISOTPInner(at, id, 0, uint8(TransportISOTP), kind, r, data)
}

// screenISOTP classifies one ISO-TP frame (address-stripped under BMW
// extended addressing) and counts it in the frame mix. Flow control is
// screened for attack shapes and, like invalid frames, reports ok false:
// neither carries payload.
//
//dplint:hotpath assemble-feed
func (a *assembler) screenISOTP(id uint32, data []byte) (kind isotp.FrameType, ok bool) {
	kind = isotp.Classify(data)
	switch kind {
	case isotp.SingleFrame:
		a.stats.ISOTPSingle++
	case isotp.FirstFrame:
		a.stats.ISOTPFirst++
	case isotp.ConsecutiveFrame:
		a.stats.ISOTPConsecutive++
	case isotp.FlowControlFrame:
		a.stats.ISOTPFlowControl++
		a.observeFC(id, data)
		return kind, false
	default:
		return kind, false
	}
	return kind, true
}

// feedISOTPInner drives one ISO-TP state machine (plain or under a BMW
// address prefix) and maintains the ID's attack profile around it.
//
//dplint:hotpath assemble-feed
func (a *assembler) feedISOTPInner(at time.Duration, id uint32, addr byte, transport uint8, kind isotp.FrameType, r *isotp.Reassembler, data []byte) {
	if kind == isotp.FirstFrame {
		p := a.prof(id)
		if ffLength(data) >= floodLengthFloor {
			p.MaxLenFF++
		}
		if r.InFlight() {
			p.observeRestart(data)
		}
	}
	res, err := r.FeedView(data)
	switch {
	case err != nil:
		a.stats.AssemblyErrors++
		a.stats.bumpID(id)
		if transport == uint8(TransportBMW) {
			a.stats.BMWErrors++
			a.reportError("bmwtp", isotp.Reason(err))
		} else {
			a.stats.ISOTPErrors++
			a.reportError("isotp", isotp.Reason(err))
		}
		if kind == isotp.ConsecutiveFrame {
			a.prof(id).SeqErrors++
		}
	case res.Message != nil:
		a.ms.Append(at, id, addr, transport, res.Message)
		if kind == isotp.ConsecutiveFrame {
			p := a.prof(id)
			p.MFCompleted++
			p.cfSince = 0
		}
	default:
		if kind == isotp.ConsecutiveFrame {
			a.prof(id).cfSince++
		}
	}
	if kind == isotp.FirstFrame && err == nil {
		p := a.prof(id)
		p.MFStarted++
		p.cfSince = 0
		p.lastFF = append(p.lastFF[:0], data...)
	}
	a.syncPending(pendingKey{id: id, addr: addr, kind: transport}, r.InFlight())
}

// observeRestart classifies one first frame that arrived while a
// transfer was already in flight on the ID.
//
//dplint:hotpath assemble-feed
func (p *AttackProfile) observeRestart(ff []byte) {
	if len(p.lastFF) > 0 && bytes.Equal(p.lastFF, ff) {
		p.RestartsIdentical++
		if p.cfSince > 0 {
			p.RestartsIdenticalFed++
		} else {
			p.RestartsIdenticalBarren++
		}
	} else if ffLength(ff) != ffLength(p.lastFF) {
		p.RestartsNewLength++
	}
	if p.cfSince == 0 {
		p.RestartsBarren++
	}
}

// observeFC screens one ISO-TP flow-control frame for hostile shapes:
// wait states, overflow aborts, and maximum/reserved-STmin throttles —
// the frames a flow-control starvation attack floods.
//
//dplint:hotpath assemble-feed
func (a *assembler) observeFC(id uint32, data []byte) {
	fc, err := isotp.DecodeFlowControl(data)
	if err != nil {
		return
	}
	if fc.Status == isotp.Wait || fc.Status == isotp.Overflow || fc.STmin >= 127*time.Millisecond {
		a.prof(id).HostileFC++
	}
}

//dplint:hotpath assemble-feed
func (a *assembler) feedVWTP(at time.Duration, id uint32, data []byte) {
	switch vwtp.Classify(data) {
	case vwtp.KindData:
		if vwtp.IsLastData(data) {
			a.stats.VWTPLast++
		} else {
			a.stats.VWTPWaiting++
		}
	case vwtp.KindACK:
		a.stats.VWTPControl++
		if vwtp.IsNotReady(data) {
			// Receiver-not-ready is TP 2.0's wait state: a hostile peer
			// floods it to stall the sender (flow-control starvation).
			a.prof(id).HostileFC++
		}
		return
	case vwtp.KindChannelParams, vwtp.KindDisconnect, vwtp.KindChannelSetup:
		a.stats.VWTPControl++
		return
	default:
		return
	}
	r := a.vw[id]
	if r == nil {
		r = &vwtp.Reassembler{}
		a.vw[id] = r
	}
	if !r.InFlight() {
		a.prof(id).MFStarted++
	}
	res, err := r.FeedView(data)
	switch {
	case err != nil:
		a.stats.AssemblyErrors++
		a.stats.VWTPErrors++
		a.stats.bumpID(id)
		a.reportError("vwtp", vwtp.Reason(err))
		a.prof(id).SeqErrors++
	case res.Message != nil:
		a.ms.Append(at, id, 0, uint8(TransportVWTP), res.Message)
		a.prof(id).MFCompleted++
	}
	a.syncPending(pendingKey{id: id, kind: uint8(TransportVWTP)}, r.InFlight())
}

//dplint:hotpath assemble-feed
func (a *assembler) feedBMW(at time.Duration, id uint32, data []byte) {
	// feed drops empty frames; an address byte alone screens as invalid.
	addr := data[0]
	kind, ok := a.screenISOTP(id, data[1:])
	if !ok {
		return
	}
	byAddr := a.bmw[id]
	if byAddr == nil {
		byAddr = map[byte]*isotp.Reassembler{}
		a.bmw[id] = byAddr
	}
	r := byAddr[addr]
	if r == nil {
		// Extended addressing shrinks single frames to 6 bytes.
		r = &isotp.Reassembler{MinMultiFrameLen: 7}
		byAddr[addr] = r
	}
	a.feedISOTPInner(at, id, addr, uint8(TransportBMW), kind, r, data[1:])
}

// syncPending keeps the in-flight transfer set consistent with one
// reassembler's state after a feed, evicting the oldest pending
// transfer when hostile traffic pushes the set past the cap.
//
//dplint:hotpath assemble-feed
func (a *assembler) syncPending(key pendingKey, inFlight bool) {
	if !inFlight {
		if a.pendingSet[key] {
			delete(a.pendingSet, key)
		}
		return
	}
	if a.pendingSet[key] {
		return
	}
	a.pendingSet[key] = true
	a.pending = append(a.pending, key)
	for len(a.pendingSet) > maxPendingTransfers {
		a.evictOldestPending()
	}
}

// evictOldestPending resets the longest-pending in-flight transfer and
// records the eviction as an assembly error with the stable reason
// "pending-overflow", attributed to the evicted ID.
func (a *assembler) evictOldestPending() {
	for len(a.pending) > 0 {
		key := a.pending[0]
		a.pending = a.pending[1:]
		if !a.pendingSet[key] {
			continue // stale: the transfer completed or aborted earlier
		}
		delete(a.pendingSet, key)
		transport := "isotp"
		switch TransportKind(key.kind) {
		case TransportVWTP:
			transport = "vwtp"
			if r := a.vw[key.id]; r != nil {
				r.Reset()
			}
			a.stats.VWTPErrors++
		case TransportBMW:
			transport = "bmwtp"
			if r := a.bmw[key.id][key.addr]; r != nil {
				r.Reset()
			}
			a.stats.BMWErrors++
		default:
			if r := a.isotp[key.id]; r != nil {
				r.Reset()
			}
			a.stats.ISOTPErrors++
		}
		a.stats.AssemblyErrors++
		a.stats.bumpID(key.id)
		a.prof(key.id).Evicted++
		a.reportError(transport, "pending-overflow")
		return
	}
}

// finish marks transfers still pending when the capture ended — the
// no-completion tail a slow-drip attack leaves behind.
func (a *assembler) finish() {
	for id, r := range a.isotp {
		if r.InFlight() {
			a.prof(id).InFlightAtEnd = true
		}
	}
	for id, r := range a.vw {
		if r.InFlight() {
			a.prof(id).InFlightAtEnd = true
		}
	}
	for id, byAddr := range a.bmw {
		for _, r := range byAddr {
			if r.InFlight() {
				a.prof(id).InFlightAtEnd = true
			}
		}
	}
}

// reportError forwards one reassembly failure to the observer, if any.
func (a *assembler) reportError(transport, reason string) {
	if a.onError != nil {
		a.onError(transport, reason)
	}
}
