package uds

import (
	"errors"
	"testing"
)

func TestDTCString(t *testing.T) {
	cases := []struct {
		code uint32
		want string
	}{
		{0x030100, "P0301"}, // misfire cylinder 1
		{0x430100, "C0301"}, // chassis
		{0x830100, "B0301"}, // body
		{0xC30100, "U0301"}, // network
		{0x170200, "P1702"}, // manufacturer range
	}
	for _, c := range cases {
		if got := (DTC{Code: c.code}).String(); got != c.want {
			t.Errorf("DTC(%06X).String() = %q, want %q", c.code, got, c.want)
		}
	}
}

func TestReadDTCRoundTrip(t *testing.T) {
	dtcs := []DTC{
		{Code: 0x030100, Status: DTCStatusConfirmed | DTCStatusTestFailed},
		{Code: 0x171300, Status: DTCStatusPending},
	}
	resp := BuildReadDTCResponse(0xFF, dtcs)
	mask, got, err := ParseReadDTCResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if mask != 0xFF || len(got) != 2 {
		t.Fatalf("mask=%#x dtcs=%d", mask, len(got))
	}
	for i := range dtcs {
		if got[i] != dtcs[i] {
			t.Fatalf("dtc %d = %+v, want %+v", i, got[i], dtcs[i])
		}
	}
}

func TestParseReadDTCResponseErrors(t *testing.T) {
	if _, _, err := ParseReadDTCResponse([]byte{0x59}); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short: %v", err)
	}
	if _, _, err := ParseReadDTCResponse([]byte{0x62, 0x02, 0xFF}); !errors.Is(err, ErrNotService) {
		t.Fatalf("wrong sid: %v", err)
	}
	if _, _, err := ParseReadDTCResponse([]byte{0x59, 0x02, 0xFF, 1, 2}); !errors.Is(err, ErrBadDTCBlock) {
		t.Fatalf("ragged: %v", err)
	}
}

func TestServerReadAndClearDTCs(t *testing.T) {
	stored := []DTC{
		{Code: 0x030100, Status: DTCStatusConfirmed},
		{Code: 0x171300, Status: DTCStatusPending},
	}
	s := NewServer()
	s.ReadDTCs = func(mask byte) []DTC {
		var out []DTC
		for _, d := range stored {
			if d.Status&mask != 0 {
				out = append(out, d)
			}
		}
		return out
	}
	cleared := uint32(0)
	s.ClearDTCs = func(group uint32) bool { cleared = group; stored = nil; return true }

	resp := s.Handle(BuildReadDTCRequest(DTCStatusConfirmed))
	_, dtcs, err := ParseReadDTCResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(dtcs) != 1 || dtcs[0].Code != 0x030100 {
		t.Fatalf("dtcs = %+v", dtcs)
	}

	resp = s.Handle(BuildClearDTCRequest(0xFFFFFF))
	if !IsPositiveResponse(resp, SIDClearDiagnosticInfo) {
		t.Fatalf("clear resp = % X", resp)
	}
	if cleared != 0xFFFFFF || stored != nil {
		t.Fatalf("cleared=%#x stored=%v", cleared, stored)
	}

	// Unknown sub-function rejected.
	resp = s.Handle([]byte{0x19, 0x0A, 0xFF})
	if _, nrc, ok := ParseNegativeResponse(resp); !ok || nrc != NRCSubFunctionNotSupported {
		t.Fatalf("resp = % X", resp)
	}
}

func TestServerReadDTCWithoutStore(t *testing.T) {
	s := NewServer()
	resp := s.Handle(BuildReadDTCRequest(0xFF))
	_, dtcs, err := ParseReadDTCResponse(resp)
	if err != nil || len(dtcs) != 0 {
		t.Fatalf("resp = % X (%v)", resp, err)
	}
}
