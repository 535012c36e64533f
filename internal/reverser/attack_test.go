package reverser

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dpreverser/internal/can"
	"dpreverser/internal/faults"
	"dpreverser/internal/isotp"
	"dpreverser/internal/telemetry"
	"dpreverser/internal/vwtp"
)

// attackedTransfer runs two clean 40-byte ISO-TP transfers on id through
// the adversarial injector with the given class spec saturated. Two
// transfers, because real attack traffic recurs: the interleave signature
// deliberately requires more than one competing session.
func attackedTransfer(t *testing.T, id uint32, spec faults.Spec) []can.Frame {
	t.Helper()
	var in []can.Frame
	at := time.Duration(0)
	for rep := 0; rep < 2; rep++ {
		payload := make([]byte, 40)
		for i := range payload {
			payload[i] = byte(i + rep)
		}
		chunks, err := isotp.Segment(payload, 0xAA)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range chunks {
			f := can.MustFrame(id, d)
			f.Timestamp = at
			at += time.Millisecond
			in = append(in, f)
		}
	}
	return faults.New(spec, 7).Frames(in)
}

// TestScreenFramesPerClass: every attack class, saturated on a single
// transfer, yields exactly one finding with its canonical class label.
func TestScreenFramesPerClass(t *testing.T) {
	cases := []struct {
		class string
		spec  faults.Spec
	}{
		{AttackFCStarvation, faults.Spec{FCStarve: 1}},
		{AttackFirstFrameFlood, faults.Spec{FFFlood: 1}},
		{AttackInterleave, faults.Spec{Interleave: 1}},
		{AttackSessionStarvation, faults.Spec{SessionReplay: 1}},
		{AttackSlowDrip, faults.Spec{SlowDrip: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.class, func(t *testing.T) {
			findings := ScreenFrames(attackedTransfer(t, 0x7E8, tc.spec))
			if len(findings) != 1 {
				t.Fatalf("findings = %+v, want exactly one", findings)
			}
			f := findings[0]
			if f.ID != 0x7E8 || f.Class != tc.class || f.Detail == "" {
				t.Fatalf("finding = %+v, want class %s on 7E8 with detail", f, tc.class)
			}
		})
	}
}

// TestScreenFramesBMWFlood: the detector sees through extended
// addressing — address-prefixed forgeries classify the same way.
func TestScreenFramesBMWFlood(t *testing.T) {
	payload := make([]byte, 40)
	chunks, err := isotp.SegmentExtended(0x12, payload, 0xFF)
	if err != nil {
		t.Fatal(err)
	}
	var in []can.Frame
	for _, d := range chunks {
		in = append(in, can.MustFrame(0x612, d))
	}
	out := faults.New(faults.Spec{FFFlood: 1}, 7).Frames(in)
	findings := ScreenFrames(out)
	if len(findings) != 1 || findings[0].ID != 0x612 || findings[0].Class != AttackFirstFrameFlood {
		t.Fatalf("findings = %+v, want first-frame-flood on 612", findings)
	}
}

// TestScreenFramesVWTPStarvation: receiver-not-ready ACK bursts on a
// negotiated VW TP channel classify as flow-control starvation.
func TestScreenFramesVWTPStarvation(t *testing.T) {
	payload := make([]byte, 40)
	chunks, err := vwtp.Segment(payload, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	setup := can.MustFrame(vwtp.BroadcastID+0x01, []byte{0x00, 0xD0, 0x40, 0x07, 0x40, 0x07, 0x01})
	in := []can.Frame{setup}
	for _, d := range chunks {
		in = append(in, can.MustFrame(0x740, d))
	}
	out := faults.New(faults.Spec{FCStarve: 1}, 9).Frames(in)
	findings := ScreenFrames(out)
	if len(findings) != 1 || findings[0].ID != 0x740 || findings[0].Class != AttackFCStarvation {
		t.Fatalf("findings = %+v, want flow-control-starvation on 740", findings)
	}
}

// TestScreenFramesCleanTraffic: undamaged captures — single frames,
// completed multi-frame transfers, genuine flow control — never fire.
func TestScreenFramesCleanTraffic(t *testing.T) {
	var in []can.Frame
	payload := make([]byte, 40)
	chunks, err := isotp.Segment(payload, 0xAA)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 5; rep++ {
		in = append(in, can.MustFrame(0x7E0, []byte{0x02, 0x10, byte(rep), 0xAA, 0xAA, 0xAA, 0xAA, 0xAA}))
		for i, d := range chunks {
			in = append(in, can.MustFrame(0x7E8, d))
			if i == 0 {
				// The tester's genuine continue-to-send flow control.
				in = append(in, can.MustFrame(0x7E0, isotp.EncodeFlowControl(isotp.ContinueToSend, 8, 10)))
			}
		}
	}
	if findings := ScreenFrames(in); findings != nil {
		t.Fatalf("clean capture flagged: %+v", findings)
	}
}

// TestDetectAttacksDefaultFaultsCalibration is the false-positive gate:
// the default random-fault preset (drops, bit flips) over repeated
// multi-frame traffic must never classify as an attack, across seeds.
func TestDetectAttacksDefaultFaultsCalibration(t *testing.T) {
	payload := make([]byte, 40)
	for i := range payload {
		payload[i] = byte(i)
	}
	chunks, err := isotp.Segment(payload, 0xAA)
	if err != nil {
		t.Fatal(err)
	}
	var in []can.Frame
	at := time.Duration(0)
	for rep := 0; rep < 50; rep++ {
		in = append(in, can.MustFrame(0x7E0, []byte{0x02, 0x10, byte(rep), 0xAA, 0xAA, 0xAA, 0xAA, 0xAA}))
		for _, d := range chunks {
			f := can.MustFrame(0x7E8, d)
			f.Timestamp = at
			at += time.Millisecond
			in = append(in, f)
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		out := faults.New(faults.DefaultSpec(), seed).Frames(in)
		if findings := ScreenFrames(out); findings != nil {
			t.Errorf("seed %d: default faults misclassified as attack: %+v", seed, findings)
		}
	}
}

// TestPendingTransferCapEvicts: opening more simultaneous transfers than
// maxPendingTransfers evicts the oldest with a pending-overflow error,
// keeps pending state bounded, and still assembles later transfers.
func TestPendingTransferCapEvicts(t *testing.T) {
	a := newAssembler(0, 0)
	var reasons []string
	a.onError = func(transport, reason string) {
		reasons = append(reasons, transport+"/"+reason)
	}
	// One first frame each on 100 distinct IDs: a cross-ID flood.
	n := maxPendingTransfers + 36
	for i := 0; i < n; i++ {
		a.feed(0, uint32(0x700+i), []byte{0x10, 40, 0, 1, 2, 3, 4, 5})
	}
	if got := len(a.pendingSet); got > maxPendingTransfers {
		t.Fatalf("pending transfers = %d, cap is %d", got, maxPendingTransfers)
	}
	evicted := n - maxPendingTransfers
	if a.stats.AssemblyErrors != evicted || a.stats.ISOTPErrors != evicted {
		t.Fatalf("stats = %+v, want %d eviction errors", a.stats, evicted)
	}
	if len(reasons) != evicted {
		t.Fatalf("observer saw %d errors, want %d", len(reasons), evicted)
	}
	for _, r := range reasons {
		if r != "isotp/pending-overflow" {
			t.Fatalf("unexpected error report %q", r)
		}
	}
	// The newest transfers survived the cap: finish one of them.
	last := uint32(0x700 + n - 1)
	payload := make([]byte, 40)
	for i := range payload {
		payload[i] = byte(i)
	}
	chunks, err := isotp.Segment(payload, 0xAA)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range chunks[1:] {
		a.feed(0, last, d)
	}
	assembled := func(id uint32) bool {
		for i := 0; i < a.ms.Len(); i++ {
			if a.ms.ID(i) == id && len(a.ms.Payload(i)) == 40 {
				return true
			}
		}
		return false
	}
	if !assembled(last) {
		t.Fatal("transfer under the cap no longer assembles")
	}
	// Evicted IDs resynchronise: a fresh transfer on the first (evicted)
	// ID assembles from idle.
	for _, d := range chunks {
		a.feed(0, 0x700, d)
	}
	if !assembled(0x700) {
		t.Fatal("evicted ID did not resynchronise")
	}
}

// TestStrictPolicyPreservesAttackAttribution: a strict-policy run over an
// attacked capture fails with *DegradedError whose partial result carries
// the per-stream attack attribution (Stage "attack", the class as Reason,
// the attacked ID in the detail), and the attack-signature metric family
// records the classification. Flow-control starvation leaves the victim
// payloads assembling, so the findings must attribute to real streams.
func TestStrictPolicyPreservesAttackAttribution(t *testing.T) {
	cap, _ := collect(t, "Car M")
	inj := faults.New(faults.Spec{FCStarve: 1}, 5)
	cap.Frames = inj.Frames(cap.Frames)
	attacked := inj.AttackedIDs()
	if len(attacked) == 0 {
		t.Fatal("saturated fc-starve attacked nothing; capture has no multi-frame transfers")
	}
	tel := telemetry.New(telemetry.NewManualClock(0))
	rv := New(WithConfig(testConfig()), WithFaultPolicy(Strict), WithTelemetry(tel))
	res, err := rv.Reverse(context.Background(), cap)
	if res != nil {
		t.Fatal("strict run returned a result alongside the error")
	}
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DegradedError", err)
	}
	if de.Result == nil {
		t.Fatal("DegradedError lost the partial result")
	}
	var attackEntries []StreamError
	for _, se := range de.Result.Degraded {
		if se.Stage == StageAttack {
			attackEntries = append(attackEntries, se)
		}
	}
	if len(attackEntries) == 0 {
		t.Fatal("no attack-stage entries on the strict partial result")
	}
	for id := range attacked {
		covered := false
		for _, se := range attackEntries {
			if se.Reason != AttackFCStarvation {
				t.Fatalf("attack entry with reason %q, want %q", se.Reason, AttackFCStarvation)
			}
			if se.Key.RespID == id || strings.Contains(se.Detail, fmt.Sprintf("%03X", id)) {
				covered = true
			}
		}
		if !covered {
			t.Errorf("attacked ID %03X missing from the attack attribution", id)
		}
	}
	// At least one finding must have attributed to a recovered stream —
	// hostile flow control does not cost the victim its payloads.
	onStream := false
	for _, se := range attackEntries {
		if se.Key != (StreamKey{}) {
			onStream = true
		}
	}
	if !onStream {
		t.Error("no attack entry attributed to a recovered stream")
	}
	cv := tel.Metrics.CounterVec(telemetry.MetricAttackSignatures, "", "class")
	if got := cv.With(AttackFCStarvation).Value(); got < 1 {
		t.Errorf("attack-signature metric = %v, want >= 1", got)
	}
}

// TestAttackDegradedAttribution: findings map onto the streams riding
// the attacked IDs; orphan findings surface with a zero key.
func TestAttackDegradedAttribution(t *testing.T) {
	findings := []AttackFinding{
		{ID: 0x7E8, Class: AttackSlowDrip, Detail: "1 transfer opened, 0 completed"},
		{ID: 0x7F1, Class: AttackFirstFrameFlood, Detail: "3 first frames"},
	}
	streams := []StreamData{
		{Key: StreamKey{Proto: "UDS", RespID: 0x7E8, DID: 1}, Label: "esv-1"},
		{Key: StreamKey{Proto: "UDS", RespID: 0x7E8, DID: 2}, Label: "esv-2"},
	}
	out := attackDegraded(findings, streams)
	if len(out) != 3 {
		t.Fatalf("degraded = %+v, want 3 entries", out)
	}
	for _, se := range out[:2] {
		if se.Stage != StageAttack || se.Reason != AttackSlowDrip || se.Key.RespID != 0x7E8 {
			t.Fatalf("attributed entry = %+v", se)
		}
	}
	orphan := out[2]
	if orphan.Key != (StreamKey{}) || orphan.Reason != AttackFirstFrameFlood {
		t.Fatalf("orphan entry = %+v", orphan)
	}
	if want := fmt.Sprintf("ID %03X", 0x7F1); !strings.Contains(orphan.Detail, want) {
		t.Fatalf("orphan detail %q missing %q", orphan.Detail, want)
	}
}
