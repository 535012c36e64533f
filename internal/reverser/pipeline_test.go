package reverser

import (
	"bytes"
	"context"
	"testing"
	"time"

	"dpreverser/internal/diagtool"
	"dpreverser/internal/ecu"
	"dpreverser/internal/ocr"
	"dpreverser/internal/oracle"
	"dpreverser/internal/rig"
	"dpreverser/internal/sim"
	"dpreverser/internal/vehicle"
)

// collect runs a full rig session on a car and returns the capture plus the
// vehicle (the vehicle is the experiment's ground-truth oracle, never an
// input to the pipeline).
func collect(t *testing.T, car string) (rig.Capture, *vehicle.Vehicle) {
	t.Helper()
	p, ok := vehicle.ProfileByCar(car)
	if !ok {
		t.Fatalf("unknown car %q", car)
	}
	clock := sim.NewClock(0)
	tool, veh, err := diagtool.ForProfile(p, clock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tool.Close(); veh.Close() })
	cfg := rig.DefaultConfig()
	cfg.ReadDuration = 20 * time.Second
	cfg.AlignDuration = 6 * time.Second
	cfg.TestDuration = time.Second
	r := rig.New(tool, veh, cfg)
	t.Cleanup(r.Close)
	cap, err := r.RunFull()
	if err != nil {
		t.Fatal(err)
	}
	return cap, veh
}

// testConfig shrinks GP for unit-test speed; the experiments use the
// paper's full budget.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.GP.PopulationSize = 250
	cfg.GP.Generations = 20
	cfg.GP.Seed = 7
	return cfg
}

// truthFor resolves the ground-truth spec behind a reversed UDS stream.
func truthFor(veh *vehicle.Vehicle, key StreamKey) (ecu.DIDSpec, bool) {
	for _, b := range veh.Bindings() {
		if b.RespID != key.RespID {
			continue
		}
		return b.ECU.DIDSpecFor(key.DID)
	}
	return ecu.DIDSpec{}, false
}

func TestReverseCarMEndToEnd(t *testing.T) {
	// Car M (Peugeot 308): 4 formula + 14 enum ESVs — a small full run.
	cap, veh := collect(t, "Car M")
	res, err := New(WithConfig(testConfig())).Reverse(context.Background(), cap)
	if err != nil {
		t.Fatal(err)
	}
	p := veh.Profile

	var udsESVs []ReversedESV
	for _, e := range res.ESVs {
		if e.Key.Proto == "UDS" {
			udsESVs = append(udsESVs, e)
		}
	}
	if len(udsESVs) != p.NumFormulaESVs+p.NumEnumESVs {
		t.Fatalf("reversed %d UDS streams, want %d", len(udsESVs), p.NumFormulaESVs+p.NumEnumESVs)
	}

	formulas, enums := 0, 0
	for _, e := range udsESVs {
		spec, ok := truthFor(veh, e.Key)
		if !ok {
			t.Fatalf("stream %v has no ground truth", e.Key)
		}
		// §3.4 semantics: the recovered label must match the tool's
		// display name (modulo rare OCR noise on the majority vote).
		if e.Label != spec.Name {
			t.Errorf("stream %v label = %q, want %q", e.Key, e.Label, spec.Name)
		}
		if e.Enum != spec.Enum {
			t.Errorf("stream %v enum = %v, want %v (label %q)", e.Key, e.Enum, spec.Enum, e.Label)
			continue
		}
		if spec.Enum {
			enums++
			continue
		}
		if e.Formula == nil {
			t.Errorf("stream %v (%s): no formula (pairs %d)", e.Key, e.Label, e.Pairs)
			continue
		}
		formulas++
		// The inferred formula must agree with the proprietary decode over
		// the byte values actually observed in traffic — the paper's
		// functional-equivalence criterion.
		decode := func(vars []float64) float64 { return spec.Codec.Decode(uint64(vars[0])) }
		if !oracle.Correct(e.Formula, decode, observedVars(cap, e.Key)) {
			t.Errorf("stream %v (%s): formula %q diverges from truth %q over observed domain",
				e.Key, e.Label, e.Formula, spec.Codec.Expr)
		}
	}
	if formulas != p.NumFormulaESVs || enums != p.NumEnumESVs {
		t.Fatalf("recovered %d formulas / %d enums, want %d / %d",
			formulas, enums, p.NumFormulaESVs, p.NumEnumESVs)
	}
}

// extractCapture runs the pipeline's assembly and field extraction over a
// capture.
func extractCapture(cap rig.Capture) *Extraction {
	msgs, _, _ := AssembleColumnar(context.Background(), FramesColumnar(cap.Frames), nil)
	return ExtractFieldsColumnar(msgs)
}

// observedVars re-extracts the capture's observations for one stream and
// returns their variables: the domain over which the paper scores formula
// equivalence.
func observedVars(cap rig.Capture, key StreamKey) [][]float64 {
	var domain [][]float64
	for _, o := range extractCapture(cap).ESVs {
		if o.Key != key {
			continue
		}
		if vars, ok := o.appendVariables(nil); ok {
			domain = append(domain, vars)
		}
	}
	return domain
}

func TestReverseRecoversECRsWithSemantics(t *testing.T) {
	cap, veh := collect(t, "Car E") // Mini R56: 3 ECRs via service 0x30
	res, err := New(WithConfig(testConfig())).Reverse(context.Background(), cap)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ECRs) != veh.Profile.NumECRs {
		t.Fatalf("reversed %d ECRs, want %d", len(res.ECRs), veh.Profile.NumECRs)
	}
	truthNames := map[string]bool{}
	for _, b := range veh.Bindings() {
		for _, a := range b.ECU.Actuators() {
			truthNames[a.Name] = true
		}
	}
	for _, e := range res.ECRs {
		if e.Service != 0x30 {
			t.Errorf("ECR service = %#x, want 0x30", e.Service)
		}
		if !e.PatternComplete() {
			t.Errorf("ECR %04X pattern incomplete: %+v", e.ID, e)
		}
		if !truthNames[e.Label] {
			t.Errorf("ECR %04X label %q not an actuator name", e.ID, e.Label)
		}
		if len(e.State) == 0 {
			t.Errorf("ECR %04X has no control state", e.ID)
		}
	}
}

func TestReverseUDSECRsIncludeFreeze(t *testing.T) {
	cap, veh := collect(t, "Car H") // MARVEL X: 6 ECRs via 0x2F
	res, err := New(WithConfig(testConfig())).Reverse(context.Background(), cap)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ECRs) != veh.Profile.NumECRs {
		t.Fatalf("reversed %d ECRs, want %d", len(res.ECRs), veh.Profile.NumECRs)
	}
	for _, e := range res.ECRs {
		if e.Service != 0x2F {
			t.Errorf("service = %#x", e.Service)
		}
		if !e.SawFreeze || !e.SawAdjust || !e.SawReturn {
			t.Errorf("ECR %04X missing pattern steps: %+v", e.ID, e)
		}
	}
}

func TestReverseKWPCar(t *testing.T) {
	cap, veh := collect(t, "Car C") // Lavida: 5 KWP formula ESVs
	res, err := New(WithConfig(testConfig())).Reverse(context.Background(), cap)
	if err != nil {
		t.Fatal(err)
	}
	kwpStreams := 0
	withFormula := 0
	for _, e := range res.ESVs {
		if e.Key.Proto != "KWP" {
			continue
		}
		kwpStreams++
		if e.Formula != nil {
			withFormula++
		}
	}
	if kwpStreams != veh.Profile.NumFormulaESVs {
		t.Fatalf("KWP streams = %d, want %d", kwpStreams, veh.Profile.NumFormulaESVs)
	}
	if withFormula < kwpStreams-1 {
		t.Fatalf("formulas inferred for %d/%d KWP streams", withFormula, kwpStreams)
	}
	// Table 9 shape: KWP traffic is mostly multi-frame ("waiting") because
	// TP 2.0 prefixes a length and splits early.
	if res.Stats.VWTPWaiting == 0 || res.Stats.VWTPLast == 0 {
		t.Fatalf("VWTP stats empty: %+v", res.Stats)
	}
}

func TestReverseOBDStreamsAgainstStandard(t *testing.T) {
	cap, _ := collect(t, "Car M")
	res, err := New(WithConfig(testConfig())).Reverse(context.Background(), cap)
	if err != nil {
		t.Fatal(err)
	}
	obdStreams := 0
	for _, e := range res.ESVs {
		if e.Key.Proto == "OBD" {
			obdStreams++
			if e.Enum {
				t.Errorf("OBD PID %02X classified enum", e.Key.DID)
			}
		}
	}
	if obdStreams != 7 {
		t.Fatalf("OBD streams = %d, want 7", obdStreams)
	}
}

func TestReverseOffsetEstimated(t *testing.T) {
	cap, _ := collect(t, "Car M")
	res, err := New(WithConfig(testConfig())).Reverse(context.Background(), cap)
	if err != nil {
		t.Fatal(err)
	}
	// The rig default camera offset is 120ms; the estimate includes
	// display lag of up to one poll interval.
	if res.Offset < 100*time.Millisecond || res.Offset > 800*time.Millisecond {
		t.Fatalf("offset = %v", res.Offset)
	}
}

func TestSummaryRenders(t *testing.T) {
	cap, _ := collect(t, "Car M")
	res, err := New(WithConfig(testConfig())).Reverse(context.Background(), cap)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary()
	if s == "" || res.Messages == 0 {
		t.Fatal("empty summary")
	}
}

func TestSplitSessions(t *testing.T) {
	mk := func(name string, at time.Duration) ocr.Frame {
		return ocr.Frame{ScreenName: name, At: at}
	}
	frames := []ocr.Frame{
		mk("obd-live", 0), mk("obd-live", 500*time.Millisecond),
		mk("live-data", 10*time.Second), mk("live-data", 10500*time.Millisecond),
		// Gap > 2s: new session on the same screen type.
		mk("live-data", 20*time.Second),
		// Non-recording screens break sessions.
		mk("active-run", 30*time.Second),
		mk("live-data", 31*time.Second),
	}
	sessions := splitSessions(frames)
	if len(sessions) != 4 {
		t.Fatalf("sessions = %d, want 4", len(sessions))
	}
	if sessions[0].screenName != "obd-live" || len(sessions[0].frames) != 2 {
		t.Fatalf("session 0 = %+v", sessions[0])
	}
	if sessions[2].start != 20*time.Second {
		t.Fatalf("session 2 start = %v", sessions[2].start)
	}
}

func TestRangeForLabel(t *testing.T) {
	if min, max := rangeForLabel("Engine speed #2"); min != 0 || max != 12000 {
		t.Fatalf("engine speed range = %v..%v", min, max)
	}
	if min, max := rangeForLabel("Mystery quantity"); min != -1e6 || max != 1e6 {
		t.Fatalf("default range = %v..%v", min, max)
	}
	if min, _ := rangeForLabel("Coolant temperature"); min != -60 {
		t.Fatalf("coolant min = %v", min)
	}
}

// A persisted-and-reloaded capture must reverse engineer identically to the
// live one (the collect-then-analyse workflow).
func TestReverseFromPersistedCapture(t *testing.T) {
	cap, _ := collect(t, "Car M")
	var buf bytes.Buffer
	if err := cap.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := rig.ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	live, err := New(WithConfig(cfg)).Reverse(context.Background(), cap)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := New(WithConfig(cfg)).Reverse(context.Background(), loaded)
	if err != nil {
		t.Fatal(err)
	}
	if len(live.ESVs) != len(replayed.ESVs) || live.Offset != replayed.Offset {
		t.Fatalf("live %d ESVs offset %v; replayed %d ESVs offset %v",
			len(live.ESVs), live.Offset, len(replayed.ESVs), replayed.Offset)
	}
	for i := range live.ESVs {
		if live.ESVs[i].FormulaString() != replayed.ESVs[i].FormulaString() {
			t.Fatalf("ESV %d formula differs after persistence", i)
		}
	}
}

// KWP captures include readECUIdentification prologues; the extraction
// must classify them as requests and not let them disturb ESV streams.
func TestKWPIdentificationTrafficScreened(t *testing.T) {
	cap, _ := collect(t, "Car B")
	ext := extractCapture(cap)
	if ext.Requests[0x1A] == 0 {
		t.Fatal("no readECUIdentification requests in the capture")
	}
	for _, o := range ext.ESVs {
		if o.Key.Proto == "KWP" && len(o.Bytes) != 3 {
			t.Fatalf("malformed KWP ESV observation: % X", o.Bytes)
		}
	}
}
