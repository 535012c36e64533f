package uds

import (
	"bytes"
	"testing"
)

func newTestServer() *Server {
	s := NewServer()
	s.ReadData = func(did uint16) ([]byte, bool) {
		switch did {
		case 0xF40D:
			return []byte{0x21}, true
		case 0xF41A:
			return []byte{0x01, 0x02}, true
		default:
			return nil, false
		}
	}
	s.IOControl = func(req IOControlRequest) ([]byte, byte) {
		if req.DID != 0x0950 {
			return nil, NRCRequestOutOfRange
		}
		return []byte{0x01}, 0
	}
	return s
}

func TestServerSessionControl(t *testing.T) {
	s := newTestServer()
	if s.Session() != SessionDefault {
		t.Fatalf("initial session = %#x", s.Session())
	}
	resp := s.Handle([]byte{0x10, 0x03})
	if !IsPositiveResponse(resp, SIDDiagnosticSessionControl) {
		t.Fatalf("resp = % X", resp)
	}
	if s.Session() != SessionExtended {
		t.Fatalf("session = %#x, want extended", s.Session())
	}
	// Unknown sub-function.
	resp = s.Handle([]byte{0x10, 0x55})
	if _, nrc, ok := ParseNegativeResponse(resp); !ok || nrc != NRCSubFunctionNotSupported {
		t.Fatalf("resp = % X", resp)
	}
}

func TestServerReadData(t *testing.T) {
	s := newTestServer()
	resp := s.Handle([]byte{0x22, 0xF4, 0x0D})
	if !bytes.Equal(resp, []byte{0x62, 0xF4, 0x0D, 0x21}) {
		t.Fatalf("resp = % X", resp)
	}
	// Multi-DID.
	resp = s.Handle([]byte{0x22, 0xF4, 0x0D, 0xF4, 0x1A})
	if !bytes.Equal(resp, []byte{0x62, 0xF4, 0x0D, 0x21, 0xF4, 0x1A, 0x01, 0x02}) {
		t.Fatalf("multi resp = % X", resp)
	}
	// Unknown DID.
	resp = s.Handle([]byte{0x22, 0xAB, 0xCD})
	if _, nrc, ok := ParseNegativeResponse(resp); !ok || nrc != NRCRequestOutOfRange {
		t.Fatalf("unknown DID resp = % X", resp)
	}
}

func TestServerIOControlRequiresExtendedSession(t *testing.T) {
	s := newTestServer()
	req := BuildIOControlRequest(IOControlRequest{DID: 0x0950, Param: IOFreezeCurrentState})
	resp := s.Handle(req)
	if _, nrc, ok := ParseNegativeResponse(resp); !ok || nrc != NRCServiceNotInActiveSession {
		t.Fatalf("default-session IO control resp = % X", resp)
	}
	s.Handle([]byte{0x10, 0x03})
	resp = s.Handle(req)
	if !bytes.Equal(resp, []byte{0x6F, 0x09, 0x50, 0x02, 0x01}) {
		t.Fatalf("extended-session IO control resp = % X", resp)
	}
}

func TestServerSecurityAccessFlow(t *testing.T) {
	s := newTestServer()
	s.SecuredServices = map[byte]bool{SIDIOControlByIdentifier: true}
	s.Handle([]byte{0x10, 0x03})

	req := BuildIOControlRequest(IOControlRequest{DID: 0x0950, Param: IOFreezeCurrentState})
	resp := s.Handle(req)
	if _, nrc, ok := ParseNegativeResponse(resp); !ok || nrc != NRCSecurityAccessDenied {
		t.Fatalf("locked IO control resp = % X", resp)
	}

	// Request seed.
	resp = s.Handle([]byte{0x27, 0x01})
	if !IsPositiveResponse(resp, SIDSecurityAccess) || len(resp) != 4 {
		t.Fatalf("seed resp = % X", resp)
	}
	seed := resp[2:]

	// Wrong key first.
	resp = s.Handle(append([]byte{0x27, 0x02}, 0xDE, 0xAD))
	if _, nrc, ok := ParseNegativeResponse(resp); !ok || nrc != NRCInvalidKey {
		t.Fatalf("wrong key resp = % X", resp)
	}

	// The seed must be re-requested after a failed key.
	resp = s.Handle([]byte{0x27, 0x01})
	seed = resp[2:]
	key := DefaultSeedToKey(seed)
	resp = s.Handle(append([]byte{0x27, 0x02}, key...))
	if !IsPositiveResponse(resp, SIDSecurityAccess) {
		t.Fatalf("correct key resp = % X", resp)
	}
	if !s.Unlocked() {
		t.Fatal("server not unlocked after correct key")
	}
	resp = s.Handle(req)
	if !IsPositiveResponse(resp, SIDIOControlByIdentifier) {
		t.Fatalf("unlocked IO control resp = % X", resp)
	}
}

func TestServerSecurityKeyWithoutSeed(t *testing.T) {
	s := newTestServer()
	resp := s.Handle([]byte{0x27, 0x02, 0x00, 0x00})
	if _, nrc, ok := ParseNegativeResponse(resp); !ok || nrc != NRCRequestSequenceError {
		t.Fatalf("resp = % X", resp)
	}
}

func TestServerSeedWhenAlreadyUnlocked(t *testing.T) {
	s := newTestServer()
	resp := s.Handle([]byte{0x27, 0x01})
	key := DefaultSeedToKey(resp[2:])
	s.Handle(append([]byte{0x27, 0x02}, key...))
	resp = s.Handle([]byte{0x27, 0x01})
	if !bytes.Equal(resp[2:], []byte{0, 0}) {
		t.Fatalf("unlocked seed = % X, want zeros", resp[2:])
	}
}

func TestServerReturnToDefaultSessionLocks(t *testing.T) {
	s := newTestServer()
	resp := s.Handle([]byte{0x27, 0x01})
	key := DefaultSeedToKey(resp[2:])
	s.Handle(append([]byte{0x27, 0x02}, key...))
	if !s.Unlocked() {
		t.Fatal("setup failed")
	}
	s.Handle([]byte{0x10, 0x01})
	if s.Unlocked() {
		t.Fatal("default session did not relock security")
	}
}

func TestServerECUReset(t *testing.T) {
	s := newTestServer()
	var gotSub byte
	s.Reset = func(sub byte) { gotSub = sub }
	s.Handle([]byte{0x10, 0x03})
	resp := s.Handle([]byte{0x11, 0x01})
	if !bytes.Equal(resp, []byte{0x51, 0x01}) {
		t.Fatalf("reset resp = % X", resp)
	}
	if gotSub != 0x01 {
		t.Fatalf("reset sub = %#x", gotSub)
	}
	if s.Session() != SessionDefault {
		t.Fatal("reset did not return to default session")
	}
}

func TestServerTesterPresent(t *testing.T) {
	s := newTestServer()
	resp := s.Handle([]byte{0x3E, 0x00})
	if !bytes.Equal(resp, []byte{0x7E, 0x00}) {
		t.Fatalf("resp = % X", resp)
	}
}

func TestServerUnsupportedService(t *testing.T) {
	s := newTestServer()
	resp := s.Handle([]byte{0x85, 0x01})
	if _, nrc, ok := ParseNegativeResponse(resp); !ok || nrc != NRCServiceNotSupported {
		t.Fatalf("resp = % X", resp)
	}
}

// RequestName names RoutineControl (0x31), but no ECU serves it: the
// server refuses it in every session.
func TestServerRoutineControl(t *testing.T) {
	s := newTestServer()
	for _, session := range []byte{SessionDefault, SessionExtended} {
		s.Handle([]byte{SIDDiagnosticSessionControl, session})
		resp := s.Handle([]byte{SIDRoutineControl, 0x01, 0x02, 0x03})
		if _, nrc, ok := ParseNegativeResponse(resp); !ok || nrc != NRCServiceNotSupported {
			t.Fatalf("session %#02x: resp = % X", session, resp)
		}
	}
}

func TestServerEmptyAndMalformed(t *testing.T) {
	s := newTestServer()
	if _, nrc, ok := ParseNegativeResponse(s.Handle(nil)); !ok || nrc != NRCIncorrectMessageLength {
		t.Fatal("empty request not rejected")
	}
	if _, nrc, ok := ParseNegativeResponse(s.Handle([]byte{0x22, 0xF4})); !ok || nrc != NRCIncorrectMessageLength {
		t.Fatal("odd RDBI request not rejected")
	}
	if _, nrc, ok := ParseNegativeResponse(s.Handle([]byte{0x10})); !ok || nrc != NRCIncorrectMessageLength {
		t.Fatal("short session control not rejected")
	}
}

func TestRequestName(t *testing.T) {
	if got := RequestName([]byte{0x22, 0xF4, 0x0D}); got != "ReadDataByIdentifier" {
		t.Fatalf("RequestName = %q", got)
	}
	if got := RequestName([]byte{0xBA}); got != "service(0xba)" {
		t.Fatalf("RequestName unknown = %q", got)
	}
	if got := RequestName(nil); got != "empty" {
		t.Fatalf("RequestName(nil) = %q", got)
	}
}

func TestRequestNameAllServices(t *testing.T) {
	cases := map[byte]string{
		SIDDiagnosticSessionControl: "DiagnosticSessionControl",
		SIDECUReset:                 "ECUReset",
		SIDClearDiagnosticInfo:      "ClearDiagnosticInformation",
		SIDReadDTCInformation:       "ReadDTCInformation",
		SIDReadDataByIdentifier:     "ReadDataByIdentifier",
		SIDSecurityAccess:           "SecurityAccess",
		SIDWriteDataByIdentifier:    "WriteDataByIdentifier",
		SIDIOControlByIdentifier:    "InputOutputControlByIdentifier",
		SIDRoutineControl:           "RoutineControl",
		SIDTesterPresent:            "TesterPresent",
	}
	for sid, want := range cases {
		if got := RequestName([]byte{sid}); got != want {
			t.Errorf("RequestName(%#02x) = %q, want %q", sid, got, want)
		}
	}
}

func TestServerCustomSeedToKey(t *testing.T) {
	s := newTestServer()
	s.SeedToKey = func(seed []byte) []byte {
		key := make([]byte, len(seed))
		for i, b := range seed {
			key[i] = b + 1
		}
		return key
	}
	resp := s.Handle([]byte{0x27, 0x01})
	seed := resp[2:]
	key := make([]byte, len(seed))
	for i, b := range seed {
		key[i] = b + 1
	}
	resp = s.Handle(append([]byte{0x27, 0x02}, key...))
	if !IsPositiveResponse(resp, SIDSecurityAccess) {
		t.Fatalf("custom seed-key unlock failed: % X", resp)
	}
}

func TestServerClearDTCRejection(t *testing.T) {
	s := newTestServer()
	s.ClearDTCs = func(uint32) bool { return false }
	resp := s.Handle(BuildClearDTCRequest(0xFFFFFF))
	if _, nrc, ok := ParseNegativeResponse(resp); !ok || nrc != NRCConditionsNotCorrect {
		t.Fatalf("resp = % X", resp)
	}
	if _, nrc, ok := ParseNegativeResponse(s.Handle([]byte{0x14, 0xFF})); !ok || nrc != NRCIncorrectMessageLength {
		t.Fatal("short clear not rejected")
	}
}

func TestServerTesterPresentBadLength(t *testing.T) {
	s := newTestServer()
	if _, nrc, ok := ParseNegativeResponse(s.Handle([]byte{0x3E})); !ok || nrc != NRCIncorrectMessageLength {
		t.Fatal("short tester present not rejected")
	}
}

func TestServerSessionZeroValueDefaults(t *testing.T) {
	var s Server
	if s.Session() != SessionDefault {
		t.Fatalf("zero server session = %#x", s.Session())
	}
}
