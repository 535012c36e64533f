package uds

import "fmt"

// Server is a UDS application-layer state machine: it tracks the active
// session and security state and dispatches the data-bearing services to
// pluggable handlers. The simulated ECUs (internal/ecu) embed one Server
// per ECU; the transport (ISO-TP or the BMW variant) delivers complete
// request payloads to Handle and sends back whatever it returns.
type Server struct {
	// ReadData resolves one DID to its current data record. Return
	// ok=false for unsupported DIDs (yields requestOutOfRange).
	ReadData func(did uint16) (data []byte, ok bool)
	// IOControl executes one IO control request and returns the control
	// status to echo. Return nrc != 0 to reject.
	IOControl func(req IOControlRequest) (status []byte, nrc byte)
	// Reset is invoked by ECUReset; the sub-function is passed through.
	Reset func(sub byte)
	// ReadDTCs reports the stored trouble codes matching a status mask.
	ReadDTCs func(statusMask byte) []DTC
	// ClearDTCs erases stored codes for a group (0xFFFFFF = all); return
	// false to reject.
	ClearDTCs func(group uint32) bool
	// SecuredServices lists services requiring an unlocked security state.
	SecuredServices map[byte]bool
	// SeedToKey computes the expected key for a seed; nil enables a
	// default XOR-with-0xA5 algorithm (a stand-in for the proprietary
	// seed-key transforms the paper mentions as future work).
	SeedToKey func(seed []byte) []byte

	session  byte
	unlocked bool
	lastSeed []byte
}

// NewServer returns a server in the default session.
func NewServer() *Server {
	return &Server{session: SessionDefault}
}

// Session reports the active diagnostic session.
func (s *Server) Session() byte {
	if s.session == 0 {
		return SessionDefault
	}
	return s.session
}

// Unlocked reports whether security access has been granted.
func (s *Server) Unlocked() bool { return s.unlocked }

// Handle processes one complete request payload and returns the complete
// response payload (positive or negative). It never returns nil for a
// non-empty request: UDS always answers (suppress-response bits are not
// modelled because the paper's tools always read responses).
func (s *Server) Handle(req []byte) []byte {
	if len(req) == 0 {
		return BuildNegativeResponse(0, NRCIncorrectMessageLength)
	}
	sid := req[0]
	if s.SecuredServices[sid] && !s.unlocked {
		return BuildNegativeResponse(sid, NRCSecurityAccessDenied)
	}
	switch sid {
	case SIDDiagnosticSessionControl:
		return s.handleSessionControl(req)
	case SIDECUReset:
		return s.handleECUReset(req)
	case SIDSecurityAccess:
		return s.handleSecurityAccess(req)
	case SIDTesterPresent:
		return s.handleTesterPresent(req)
	case SIDReadDataByIdentifier:
		return s.handleReadData(req)
	case SIDIOControlByIdentifier:
		return s.handleIOControl(req)
	case SIDReadDTCInformation:
		return s.handleReadDTC(req)
	case SIDClearDiagnosticInfo:
		return s.handleClearDTC(req)
	default:
		return BuildNegativeResponse(sid, NRCServiceNotSupported)
	}
}

func (s *Server) handleSessionControl(req []byte) []byte {
	if len(req) != 2 {
		return BuildNegativeResponse(SIDDiagnosticSessionControl, NRCIncorrectMessageLength)
	}
	sub := req[1]
	switch sub {
	case SessionDefault, SessionProgramming, SessionExtended:
		s.session = sub
		if sub == SessionDefault {
			s.unlocked = false
		}
		// P2/P2* timing parameters per the standard's response format.
		return []byte{PositiveResponseSID(SIDDiagnosticSessionControl), sub, 0x00, 0x32, 0x01, 0xF4}
	default:
		return BuildNegativeResponse(SIDDiagnosticSessionControl, NRCSubFunctionNotSupported)
	}
}

func (s *Server) handleECUReset(req []byte) []byte {
	if len(req) != 2 {
		return BuildNegativeResponse(SIDECUReset, NRCIncorrectMessageLength)
	}
	if s.Reset != nil {
		s.Reset(req[1])
	}
	s.session = SessionDefault
	s.unlocked = false
	return []byte{PositiveResponseSID(SIDECUReset), req[1]}
}

func (s *Server) handleTesterPresent(req []byte) []byte {
	if len(req) != 2 {
		return BuildNegativeResponse(SIDTesterPresent, NRCIncorrectMessageLength)
	}
	return []byte{PositiveResponseSID(SIDTesterPresent), req[1]}
}

func (s *Server) handleSecurityAccess(req []byte) []byte {
	if len(req) < 2 {
		return BuildNegativeResponse(SIDSecurityAccess, NRCIncorrectMessageLength)
	}
	level := req[1]
	if level%2 == 1 { // requestSeed
		if len(req) != 2 {
			return BuildNegativeResponse(SIDSecurityAccess, NRCIncorrectMessageLength)
		}
		if s.unlocked {
			// Already unlocked: the standard returns an all-zero seed.
			return []byte{PositiveResponseSID(SIDSecurityAccess), level, 0, 0}
		}
		s.lastSeed = []byte{0x3A ^ level, 0x7C + level}
		out := []byte{PositiveResponseSID(SIDSecurityAccess), level}
		return append(out, s.lastSeed...)
	}
	// sendKey
	if s.lastSeed == nil {
		return BuildNegativeResponse(SIDSecurityAccess, NRCRequestSequenceError)
	}
	want := s.seedToKey(s.lastSeed)
	got := req[2:]
	if len(got) != len(want) {
		return BuildNegativeResponse(SIDSecurityAccess, NRCInvalidKey)
	}
	for i := range want {
		if got[i] != want[i] {
			return BuildNegativeResponse(SIDSecurityAccess, NRCInvalidKey)
		}
	}
	s.unlocked = true
	s.lastSeed = nil
	return []byte{PositiveResponseSID(SIDSecurityAccess), level}
}

func (s *Server) seedToKey(seed []byte) []byte {
	if s.SeedToKey != nil {
		return s.SeedToKey(seed)
	}
	return DefaultSeedToKey(seed)
}

// DefaultSeedToKey is the stand-in seed→key transform used when a vehicle
// profile does not define its own.
func DefaultSeedToKey(seed []byte) []byte {
	key := make([]byte, len(seed))
	for i, b := range seed {
		key[i] = b ^ 0xA5
	}
	return key
}

func (s *Server) handleReadData(req []byte) []byte {
	dids, err := ParseRDBIRequest(req)
	if err != nil {
		return BuildNegativeResponse(SIDReadDataByIdentifier, NRCIncorrectMessageLength)
	}
	if s.ReadData == nil {
		return BuildNegativeResponse(SIDReadDataByIdentifier, NRCConditionsNotCorrect)
	}
	records := make([]DataRecord, 0, len(dids))
	for _, did := range dids {
		data, ok := s.ReadData(did)
		if !ok {
			return BuildNegativeResponse(SIDReadDataByIdentifier, NRCRequestOutOfRange)
		}
		records = append(records, DataRecord{DID: did, Data: data})
	}
	return BuildRDBIResponse(records)
}

func (s *Server) handleIOControl(req []byte) []byte {
	parsed, err := ParseIOControlRequest(req)
	if err != nil {
		return BuildNegativeResponse(SIDIOControlByIdentifier, NRCIncorrectMessageLength)
	}
	if s.session == SessionDefault {
		// Real ECUs require an extended session for actuation; tools send
		// 10 03 first, and the reverser observes that prologue.
		return BuildNegativeResponse(SIDIOControlByIdentifier, NRCServiceNotInActiveSession)
	}
	if s.IOControl == nil {
		return BuildNegativeResponse(SIDIOControlByIdentifier, NRCConditionsNotCorrect)
	}
	status, nrc := s.IOControl(parsed)
	if nrc != 0 {
		return BuildNegativeResponse(SIDIOControlByIdentifier, nrc)
	}
	return BuildIOControlResponse(parsed.DID, parsed.Param, status)
}

func (s *Server) handleReadDTC(req []byte) []byte {
	if len(req) != 3 || req[1] != ReportDTCByStatusMask {
		return BuildNegativeResponse(SIDReadDTCInformation, NRCSubFunctionNotSupported)
	}
	if s.ReadDTCs == nil {
		return BuildReadDTCResponse(0xFF, nil)
	}
	return BuildReadDTCResponse(0xFF, s.ReadDTCs(req[2]))
}

func (s *Server) handleClearDTC(req []byte) []byte {
	if len(req) != 4 {
		return BuildNegativeResponse(SIDClearDiagnosticInfo, NRCIncorrectMessageLength)
	}
	group := uint32(req[1])<<16 | uint32(req[2])<<8 | uint32(req[3])
	if s.ClearDTCs != nil && !s.ClearDTCs(group) {
		return BuildNegativeResponse(SIDClearDiagnosticInfo, NRCConditionsNotCorrect)
	}
	return []byte{PositiveResponseSID(SIDClearDiagnosticInfo)}
}

// RequestName renders a request's service mnemonically, for logs and the
// CLI ("22 F4 0D" → "ReadDataByIdentifier").
func RequestName(req []byte) string {
	if len(req) == 0 {
		return "empty"
	}
	switch req[0] {
	case SIDDiagnosticSessionControl:
		return "DiagnosticSessionControl"
	case SIDECUReset:
		return "ECUReset"
	case SIDClearDiagnosticInfo:
		return "ClearDiagnosticInformation"
	case SIDReadDTCInformation:
		return "ReadDTCInformation"
	case SIDReadDataByIdentifier:
		return "ReadDataByIdentifier"
	case SIDSecurityAccess:
		return "SecurityAccess"
	case SIDWriteDataByIdentifier:
		return "WriteDataByIdentifier"
	case SIDIOControlByIdentifier:
		return "InputOutputControlByIdentifier"
	case SIDRoutineControl:
		return "RoutineControl"
	case SIDTesterPresent:
		return "TesterPresent"
	default:
		return fmt.Sprintf("service(%#02x)", req[0])
	}
}
