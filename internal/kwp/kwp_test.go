package kwp

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestPaperRPMExample(t *testing.T) {
	// Paper §2.3.1: ESV "01 F1 10" decodes with X0*X1/5.
	// (The paper's prose computes 242*16/5 with a typo; 0xF1 is 241.)
	e := ESV{FType: 0x01, X0: 0xF1, X1: 0x10}
	v, ok := e.Decode()
	if !ok {
		t.Fatal("formula type 0x01 not found")
	}
	want := 241.0 * 16.0 / 5.0
	if math.Abs(v-want) > 1e-9 {
		t.Fatalf("decode = %v, want %v", v, want)
	}
}

func TestDecodeEnumAndUnknown(t *testing.T) {
	if _, ok := (ESV{FType: 0x10, X0: 1, X1: 2}).Decode(); ok {
		t.Fatal("bitfield type decoded as formula")
	}
	if _, ok := (ESV{FType: 0xEE}).Decode(); ok {
		t.Fatal("unknown formula type decoded")
	}
}

func TestFormulaTableEncodeDecodeRoundTrip(t *testing.T) {
	// For every non-enum formula type, encoding a physical value and
	// decoding it back must land within the type's quantisation error.
	cases := []struct {
		ftype byte
		scale byte
		y     float64
		tol   float64
	}{
		{0x01, 0xF1, 771.2, 50},  // rpm, coarse quantisation X0/5 per count
		{0x02, 100, 42.0, 0.5},   // %
		{0x03, 50, 12.4, 0.2},    // deg
		{0x04, 10, -3.5, 0.2},    // signed deg
		{0x04, 10, 3.5, 0.2},     // signed deg positive
		{0x05, 10, 88.0, 1.0},    // °C
		{0x05, 10, -20.0, 1.0},   // °C negative
		{0x06, 60, 13.8, 0.1},    // V
		{0x07, 100, 33.0, 1.0},   // km/h — paper's X0=0x64 speed shape
		{0x08, 10, 57.0, 1.0},    //
		{0x0F, 25, 14.2, 0.3},    // ms
		{0x12, 100, 990.0, 4.0},  // mbar (0.04*100 = 4 per count)
		{0x14, 100, -25.0, 1.0},  // signed %
		{0x17, 100, 44.0, 0.5},   // duty
		{0x19, 182, 7.3, 1.0},    // g/s
		{0x22, 80, -12.0, 1.0},   // kW signed
		{0x24, 0, -0.2, 0.01},    // torque assistance (sign in X1, range ±0.255)
		{0x24, 0, 0.2, 0.01},     // torque assistance positive
		{0x25, 0, 0.95, 0.01},    // lateral acceleration
		{0x25, 0, -0.95, 0.01},   // lateral acceleration negative
		{0x31, 40, 55.0, 1.5},    // g/s
		{0x35, 200, 0.04, 0.005}, // quadratic
	}
	for _, c := range cases {
		ft, ok := LookupFormula(c.ftype)
		if !ok {
			t.Fatalf("formula type %#02x missing", c.ftype)
		}
		x0, x1 := ft.Encode(c.scale, c.y)
		got := ft.Eval(float64(x0), float64(x1))
		if math.Abs(got-c.y) > c.tol {
			t.Errorf("type %#02x (%s): encode(%v) -> (%d,%d) -> %v, tol %v",
				c.ftype, ft.Name, c.y, x0, x1, got, c.tol)
		}
	}
}

func TestTorqueAssistanceSignSelector(t *testing.T) {
	// Paper §4.3: X1 takes 0x7F (negative) or 0x81 (positive).
	ft, _ := LookupFormula(0x24)
	_, x1 := ft.Encode(0, -2.0)
	if x1 != 0x7F {
		t.Fatalf("negative torque X1 = %#x, want 0x7F", x1)
	}
	_, x1 = ft.Encode(0, 2.0)
	if x1 != 0x81 {
		t.Fatalf("positive torque X1 = %#x, want 0x81", x1)
	}
}

func TestLateralAccelerationX0AlwaysZeroInRange(t *testing.T) {
	// Paper §4.3 "Cause of inconsistency": X0 is 0x00 in all captured
	// frames, so the inferred formula uses only X1.
	ft, _ := LookupFormula(0x25)
	for _, y := range []float64{-1.2, -0.5, 0, 0.5, 1.2} {
		x0, _ := ft.Encode(0, y)
		if x0 != 0 {
			t.Fatalf("lateral acceleration y=%v produced X0=%d, want 0", y, x0)
		}
	}
}

func TestReadRequestRoundTrip(t *testing.T) {
	req := BuildReadRequest(0x07)
	if !bytes.Equal(req, []byte{0x21, 0x07}) {
		t.Fatalf("request = % X", req)
	}
	id, err := ParseReadRequest(req)
	if err != nil || id != 0x07 {
		t.Fatalf("parsed = %#x, %v", id, err)
	}
	if _, err := ParseReadRequest([]byte{0x22, 0x01}); !errors.Is(err, ErrNotService) {
		t.Fatalf("wrong sid err = %v", err)
	}
	if _, err := ParseReadRequest([]byte{0x21}); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short err = %v", err)
	}
}

func TestReadResponseRoundTrip(t *testing.T) {
	esvs := []ESV{
		{FType: 0x01, X0: 0xF1, X1: 0x10},
		{FType: 0x05, X0: 0x0A, X1: 0xBE},
		{FType: 0x10, X0: 0x00, X1: 0x01},
	}
	resp := BuildReadResponse(0x07, esvs)
	if resp[0] != 0x61 || resp[1] != 0x07 || len(resp) != 2+9 {
		t.Fatalf("response = % X", resp)
	}
	id, got, err := ParseReadResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if id != 0x07 || len(got) != 3 {
		t.Fatalf("parsed id=%#x esvs=%d", id, len(got))
	}
	for i := range esvs {
		if got[i] != esvs[i] {
			t.Fatalf("esv %d = %+v, want %+v", i, got[i], esvs[i])
		}
	}
}

func TestParseReadResponseErrors(t *testing.T) {
	if _, _, err := ParseReadResponse([]byte{0x61}); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short: %v", err)
	}
	if _, _, err := ParseReadResponse([]byte{0x62, 0x07, 1, 2, 3}); !errors.Is(err, ErrNotService) {
		t.Fatalf("wrong sid: %v", err)
	}
	if _, _, err := ParseReadResponse([]byte{0x61, 0x07, 1, 2}); !errors.Is(err, ErrBadESVBlock) {
		t.Fatalf("ragged block: %v", err)
	}
}

func TestIOControlLocalRoundTrip(t *testing.T) {
	// Paper example: "30 15 00 40 00" turns on the light.
	req := IOControlRequest{LocalID: 0x15, ECR: []byte{0x00, 0x40, 0x00}}
	raw := BuildIOControlRequest(req)
	if !bytes.Equal(raw, []byte{0x30, 0x15, 0x00, 0x40, 0x00}) {
		t.Fatalf("raw = % X", raw)
	}
	got, err := ParseIOControlRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.LocalID != 0x15 || got.Common || !bytes.Equal(got.ECR, req.ECR) {
		t.Fatalf("parsed = %+v", got)
	}
	resp := BuildIOControlResponse(got, []byte{0x40})
	if !bytes.Equal(resp, []byte{0x70, 0x15, 0x40}) {
		t.Fatalf("resp = % X", resp)
	}
}

func TestIOControlCommonRoundTrip(t *testing.T) {
	req := IOControlRequest{Common: true, CommonID: 0xB003, ECR: []byte{0x03}}
	raw := BuildIOControlRequest(req)
	if !bytes.Equal(raw, []byte{0x2F, 0xB0, 0x03, 0x03}) {
		t.Fatalf("raw = % X", raw)
	}
	got, err := ParseIOControlRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Common || got.CommonID != 0xB003 || !bytes.Equal(got.ECR, []byte{0x03}) {
		t.Fatalf("parsed = %+v", got)
	}
	resp := BuildIOControlResponse(got, nil)
	if !bytes.Equal(resp, []byte{0x6F, 0xB0, 0x03}) {
		t.Fatalf("resp = % X", resp)
	}
}

func TestParseIOControlErrors(t *testing.T) {
	if _, err := ParseIOControlRequest([]byte{0x30}); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short: %v", err)
	}
	if _, err := ParseIOControlRequest([]byte{0x2F, 0xB0}); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short common: %v", err)
	}
	if _, err := ParseIOControlRequest([]byte{0x21, 0x07}); !errors.Is(err, ErrNotService) {
		t.Fatalf("wrong sid: %v", err)
	}
}

func TestNegativeResponse(t *testing.T) {
	raw := BuildNegativeResponse(SIDReadDataByLocalIdentifier, RCRequestOutOfRange)
	sid, rc, ok := ParseNegativeResponse(raw)
	if !ok || sid != 0x21 || rc != RCRequestOutOfRange {
		t.Fatalf("parsed = %#x %#x %v", sid, rc, ok)
	}
}

func TestServerReadAndIOControl(t *testing.T) {
	s := NewServer()
	s.ReadLocal = func(localID byte) ([]ESV, bool) {
		if localID == 0x07 {
			return []ESV{{FType: 0x01, X0: 0xF1, X1: 0x10}}, true
		}
		return nil, false
	}
	s.IOControl = func(req IOControlRequest) ([]byte, byte) {
		if req.LocalID == 0x15 {
			return []byte{req.ECR[1]}, 0
		}
		return nil, RCRequestOutOfRange
	}
	resp := s.Handle([]byte{0x21, 0x07})
	if !bytes.Equal(resp, []byte{0x61, 0x07, 0x01, 0xF1, 0x10}) {
		t.Fatalf("read resp = % X", resp)
	}
	resp = s.Handle([]byte{0x21, 0x99})
	if _, rc, ok := ParseNegativeResponse(resp); !ok || rc != RCRequestOutOfRange {
		t.Fatalf("bad local id resp = % X", resp)
	}
	resp = s.Handle([]byte{0x30, 0x15, 0x00, 0x40, 0x00})
	if !bytes.Equal(resp, []byte{0x70, 0x15, 0x40}) {
		t.Fatalf("io resp = % X", resp)
	}
	resp = s.Handle([]byte{0x30, 0x77, 0x00})
	if _, rc, ok := ParseNegativeResponse(resp); !ok || rc != RCRequestOutOfRange {
		t.Fatalf("bad io resp = % X", resp)
	}
}

func TestServerSessionAndMisc(t *testing.T) {
	s := NewServer()
	if s.Session() != 0x81 {
		t.Fatalf("default session = %#x", s.Session())
	}
	resp := s.Handle([]byte{0x10, 0x89})
	if !bytes.Equal(resp, []byte{0x50, 0x89}) {
		t.Fatalf("session resp = % X", resp)
	}
	if s.Session() != 0x89 {
		t.Fatalf("session = %#x", s.Session())
	}
	if !bytes.Equal(s.Handle([]byte{0x3E}), []byte{0x7E}) {
		t.Fatal("tester present failed")
	}
	if !bytes.Equal(s.Handle([]byte{0x11}), []byte{0x51}) {
		t.Fatal("reset failed")
	}
	if s.Session() != 0x81 {
		t.Fatal("reset did not restore default session")
	}
	if _, rc, ok := ParseNegativeResponse(s.Handle([]byte{0x99})); !ok || rc != RCServiceNotSupported {
		t.Fatal("unknown service not rejected")
	}
	if _, rc, ok := ParseNegativeResponse(s.Handle(nil)); !ok || rc != RCIncorrectMessageLength {
		t.Fatal("empty request not rejected")
	}
}

func TestRequestName(t *testing.T) {
	if RequestName([]byte{0x21, 0x07}) != "readDataByLocalIdentifier" {
		t.Fatal("name mismatch")
	}
	if RequestName([]byte{0x30, 0x15}) != "inputOutputControlByLocalIdentifier" {
		t.Fatal("name mismatch")
	}
	if RequestName(nil) != "empty" {
		t.Fatal("nil name mismatch")
	}
}

func TestIdentificationService(t *testing.T) {
	s := NewServer()
	// Without a handler the service is unsupported.
	resp := s.Handle(BuildIdentRequest(IdentOptionECUIdent))
	if _, rc, ok := ParseNegativeResponse(resp); !ok || rc != RCServiceNotSupported {
		t.Fatalf("no-handler resp = % X", resp)
	}
	s.Identification = func(option byte) string {
		if option == IdentOptionECUIdent {
			return "1K0 907 115 AD  Engine  Coding 01234"
		}
		return ""
	}
	resp = s.Handle(BuildIdentRequest(IdentOptionECUIdent))
	opt, ident, err := ParseIdentResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if opt != IdentOptionECUIdent || ident != "1K0 907 115 AD  Engine  Coding 01234" {
		t.Fatalf("ident = %q (opt %#x)", ident, opt)
	}
	// Unsupported option.
	resp = s.Handle(BuildIdentRequest(0x77))
	if _, rc, ok := ParseNegativeResponse(resp); !ok || rc != RCRequestOutOfRange {
		t.Fatalf("bad option resp = % X", resp)
	}
	// Length error.
	resp = s.Handle([]byte{0x1A})
	if _, rc, ok := ParseNegativeResponse(resp); !ok || rc != RCIncorrectMessageLength {
		t.Fatalf("short resp = % X", resp)
	}
	if RequestName([]byte{0x1A, 0x9B}) != "readECUIdentification" {
		t.Fatal("name mismatch")
	}
}

func TestParseIdentResponseErrors(t *testing.T) {
	if _, _, err := ParseIdentResponse([]byte{0x5A}); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short: %v", err)
	}
	if _, _, err := ParseIdentResponse([]byte{0x61, 0x9B, 'x'}); !errors.Is(err, ErrNotService) {
		t.Fatalf("wrong sid: %v", err)
	}
}
