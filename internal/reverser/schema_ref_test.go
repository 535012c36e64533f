package reverser

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"

	"dpreverser/internal/faults"
	"dpreverser/internal/gp"
	"dpreverser/internal/vehicle"
)

// The reference below is the result schema as encoding/json renders it
// from tagged structs, the way schema.go wrote it before it became one
// append pass. The one-pass writer must give the same bytes.

// refKeyString is StreamKey.String as fmt renders it.
func refKeyString(k StreamKey) string {
	switch k.Proto {
	case "UDS":
		return fmt.Sprintf("UDS DID %04X @%03X", k.DID, k.RespID)
	case "KWP":
		return fmt.Sprintf("KWP local %02X[%d] ftype %02X @%03X", k.LocalID, k.Index, k.FType, k.RespID)
	default:
		return fmt.Sprintf("OBD PID %02X", k.DID)
	}
}

type refESV ReversedESV

func (r refESV) MarshalJSON() ([]byte, error) {
	out := struct {
		ID          string   `json:"id"`
		Key         refKey   `json:"key"`
		Label       string   `json:"label,omitempty"`
		Unit        string   `json:"unit,omitempty"`
		Kind        string   `json:"kind"`
		Formula     string   `json:"formula,omitempty"`
		Fitness     *float64 `json:"fitness,omitempty"`
		Pairs       int      `json:"pairs"`
		Generations int      `json:"generations,omitempty"`
		Evaluations int      `json:"evaluations,omitempty"`
		CacheHits   int      `json:"cache_hits,omitempty"`
	}{
		ID:          refKeyString(r.Key),
		Key:         refKey(r.Key),
		Label:       r.Label,
		Unit:        r.Unit,
		Kind:        ReversedESV(r).Kind(),
		Formula:     ReversedESV(r).FormulaString(),
		Pairs:       r.Pairs,
		Generations: r.Generations,
		Evaluations: r.Evaluations,
		CacheHits:   r.CacheHits,
	}
	if r.Formula != nil && !math.IsNaN(r.Fitness) && !math.IsInf(r.Fitness, 0) {
		f := r.Fitness
		out.Fitness = &f
	}
	return json.Marshal(out)
}

type refKey StreamKey

func (k refKey) MarshalJSON() ([]byte, error) {
	out := struct {
		Proto   string `json:"proto"`
		RespID  string `json:"resp_id,omitempty"`
		Addr    string `json:"addr,omitempty"`
		DID     string `json:"did,omitempty"`
		LocalID string `json:"local_id,omitempty"`
		Index   int    `json:"index,omitempty"`
		FType   string `json:"ftype,omitempty"`
	}{Proto: k.Proto, Index: k.Index}
	if k.RespID != 0 {
		out.RespID = fmt.Sprintf("%03X", k.RespID)
	}
	if k.Addr != 0 {
		out.Addr = fmt.Sprintf("%02X", k.Addr)
	}
	switch k.Proto {
	case "KWP":
		out.LocalID = fmt.Sprintf("%02X", k.LocalID)
		out.FType = fmt.Sprintf("%02X", k.FType)
	case "UDS":
		out.DID = fmt.Sprintf("%04X", k.DID)
	default:
		out.DID = fmt.Sprintf("%02X", k.DID)
	}
	return json.Marshal(out)
}

type refECR ReversedECR

func (r refECR) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Service         string `json:"service"`
		ID              string `json:"id"`
		Label           string `json:"label,omitempty"`
		State           string `json:"state,omitempty"`
		SawFreeze       bool   `json:"saw_freeze"`
		SawAdjust       bool   `json:"saw_adjust"`
		SawReturn       bool   `json:"saw_return"`
		PatternComplete bool   `json:"pattern_complete"`
	}{
		Service:         fmt.Sprintf("%02X", r.Service),
		ID:              fmt.Sprintf("%04X", r.ID),
		Label:           r.Label,
		State:           fmt.Sprintf("% X", r.State),
		SawFreeze:       r.SawFreeze,
		SawAdjust:       r.SawAdjust,
		SawReturn:       r.SawReturn,
		PatternComplete: ReversedECR(r).PatternComplete(),
	})
}

type refStreamError StreamError

func (e refStreamError) MarshalJSON() ([]byte, error) {
	out := struct {
		ID     string `json:"id,omitempty"`
		Label  string `json:"label,omitempty"`
		Stage  string `json:"stage"`
		Reason string `json:"reason"`
		Detail string `json:"detail,omitempty"`
	}{Label: e.Label, Stage: e.Stage, Reason: e.Reason, Detail: e.Detail}
	if e.Key != (StreamKey{}) {
		out.ID = refKeyString(e.Key)
	}
	return json.Marshal(out)
}

// refConvert converts a slice to the reference's element type, keeping
// a nil slice nil.
func refConvert[R, T any](in []T, conv func(T) R) []R {
	if in == nil {
		return nil
	}
	out := make([]R, len(in))
	for i, v := range in {
		out[i] = conv(v)
	}
	return out
}

func refMarshalResult(r *Result) ([]byte, error) {
	return json.Marshal(struct {
		Schema      int              `json:"schema"`
		Car         string           `json:"car"`
		Model       string           `json:"model,omitempty"`
		Tool        string           `json:"tool,omitempty"`
		OffsetMS    float64          `json:"offset_ms"`
		Messages    int              `json:"messages"`
		Evaluations int              `json:"evaluations"`
		CacheHits   int              `json:"cache_hits"`
		CacheMisses int              `json:"cache_misses"`
		Stats       TrafficStats     `json:"stats"`
		ESVs        []refESV         `json:"esvs"`
		ECRs        []refECR         `json:"ecrs,omitempty"`
		Degraded    []refStreamError `json:"degraded,omitempty"`
	}{
		Schema:      ResultSchemaVersion,
		Car:         r.Car,
		Model:       r.Model,
		Tool:        r.ToolName,
		OffsetMS:    float64(r.Offset.Microseconds()) / 1e3,
		Messages:    r.Messages,
		Evaluations: r.Evaluations,
		CacheHits:   r.CacheHits,
		CacheMisses: r.CacheMisses,
		Stats:       r.Stats,
		ESVs:        refConvert(r.ESVs, func(e ReversedESV) refESV { return refESV(e) }),
		ECRs:        refConvert(r.ECRs, func(e ReversedECR) refECR { return refECR(e) }),
		Degraded:    refConvert(r.Degraded, func(e StreamError) refStreamError { return refStreamError(e) }),
	})
}

// indented encodes v as the job server and `dpreverse -json` do.
func indented(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkSchemaMatchesReference requires the one-pass writer's bytes for r,
// and for each of its parts, to equal the reference's, compact and
// indented.
func checkSchemaMatchesReference(t *testing.T, name string, r *Result) {
	t.Helper()
	same := func(part string, got, want any) {
		t.Helper()
		g, gerr := json.Marshal(got)
		w, werr := json.Marshal(want)
		if gerr != nil || werr != nil {
			t.Fatalf("%s %s: errors %v, reference %v", name, part, gerr, werr)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s %s:\n got %s\nwant %s", name, part, g, w)
		}
	}
	got, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := refMarshalResult(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: document\n got %s\nwant %s", name, got, want)
	}
	if !json.Valid(got) {
		t.Fatalf("%s: invalid JSON %s", name, got)
	}
	if g, w := indented(t, r), indented(t, json.RawMessage(want)); !bytes.Equal(g, w) {
		t.Fatalf("%s: indented document differs", name)
	}
	for i, e := range r.ESVs {
		same(fmt.Sprintf("esv %d", i), e, refESV(e))
		same(fmt.Sprintf("esv %d key", i), ReversedESVKey(e.Key), refKey(e.Key))
	}
	for i, e := range r.ECRs {
		same(fmt.Sprintf("ecr %d", i), e, refECR(e))
	}
	for i, e := range r.Degraded {
		same(fmt.Sprintf("degraded %d", i), e, refStreamError(e))
	}
}

// The one-pass writer must match the reference on every fleet car's
// result, clean and with heavy faults (whose results carry degradation
// entries).
func TestSchemaWriterMatchesReferenceFleet(t *testing.T) {
	spec, err := faults.ParseSpec("heavy")
	if err != nil {
		t.Fatal(err)
	}
	rv := New(WithConfig(testConfig()), WithParallelism(2))
	for _, p := range vehicle.Fleet() {
		cap := collectSeeded(t, p.Car, 1)
		res, err := rv.Reverse(context.Background(), cap)
		if err != nil {
			t.Fatalf("%s: %v", p.Car, err)
		}
		checkSchemaMatchesReference(t, p.Car, res)
		inj := faults.New(spec, 1)
		cap.Frames = inj.Frames(cap.Frames)
		cap.UIFrames = inj.UIFrames(cap.UIFrames)
		if res, err = rv.Reverse(context.Background(), cap); err != nil {
			t.Fatalf("%s heavy: %v", p.Car, err)
		}
		checkSchemaMatchesReference(t, p.Car+" heavy", res)
	}
	checkSchemaMatchesReference(t, "golden", goldenResult())
	checkSchemaMatchesReference(t, "empty", &Result{})
	checkSchemaMatchesReference(t, "no streams", &Result{Car: "Car Z", ESVs: []ReversedESV{}, ECRs: []ReversedECR{}})
}

// FuzzSchemaWriter checks the one-pass writer against the reference on
// the golden result with fuzzed text, numbers and identifiers in every
// member that carries them.
func FuzzSchemaWriter(f *testing.F) {
	f.Add("Coolant temperature", "°C", "Car A", int64(123456789), 0.25, 1e-7, uint32(0x7E8), uint16(0xF405), -1, []byte{1, 0xFF})
	f.Add("Injection quantity", "mm³/st", "Car K", int64(-2500000), 1e21, -3.5e-9, uint32(0x300), uint16(0x12), 3, []byte{})
	f.Add("bad \ufffd label", "<b>&amp;</b>", "\"quoted\"\\", int64(-1), math.NaN(), 12.5, uint32(0), uint16(0), 0, []byte(nil))
	f.Add("\xff\xfe invalid", "\u2028\u2029\x00\x1f\x7f", "tab\tnew\nline\r\b\f", int64(999), math.Inf(1), math.Inf(-1), uint32(0x1FFFFFFF), uint16(0xFFFF), 1<<40, []byte{0})
	f.Add("", "", "", int64(0), -0.0, 5e-324, uint32(1), uint16(1), -7, []byte{0xAB, 0xCD, 0xEF})
	f.Fuzz(func(t *testing.T, label, unit, car string, offsetNS int64, fitness, konst float64, respID uint32, did uint16, index int, state []byte) {
		r := goldenResult()
		r.Car, r.Model, r.ToolName = car, unit, label
		r.Offset = time.Duration(offsetNS)
		for i := range r.ESVs {
			e := &r.ESVs[i]
			e.Label, e.Unit = label, unit
			e.Key.RespID, e.Key.DID, e.Key.Index = respID, did, index
			e.Key.Addr, e.Key.LocalID, e.Key.FType = byte(did), byte(did>>8), byte(respID)
			e.Fitness = fitness
		}
		if !math.IsNaN(konst) && !math.IsInf(konst, 0) {
			r.ESVs[0].Formula = gp.NewBinary(gp.OpMul, gp.NewVar(0), gp.NewConst(konst))
		}
		r.ESVs[1].Formula = gp.NewConst(1) // an enum with a formula still reports it
		r.ECRs[0].Label, r.ECRs[0].State, r.ECRs[0].ID = label, state, did
		r.Degraded[0].Detail, r.Degraded[1].Label = label, unit
		r.Degraded[0].Key.Proto = unit
		if key := r.Degraded[0].Key; key.String() != refKeyString(key) {
			t.Fatalf("key %+v renders %q, fmt %q", key, key.String(), refKeyString(key))
		}
		checkSchemaMatchesReference(t, "fuzzed", r)
	})
}
