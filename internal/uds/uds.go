// Package uds implements the Unified Diagnostic Services application layer
// (ISO 14229) as used by the paper: ReadDataByIdentifier (0x22) for reading
// ECU signal values and InputOutputControlByIdentifier (0x2F) for actuator
// control (paper §2.3.2, Figs. 4-5), plus the session-control, security-
// access and tester-present plumbing real tools exercise around them.
//
// The standard defines the *formats*; the DIDs, their semantics, and the
// formulas that decode response bytes are manufacturer-proprietary — those
// live in the per-vehicle tables (internal/vehicle) and are what
// DP-Reverser recovers.
package uds

import (
	"errors"
	"fmt"
)

// Service identifiers (ISO 14229-1).
const (
	SIDDiagnosticSessionControl byte = 0x10
	SIDECUReset                 byte = 0x11
	SIDClearDiagnosticInfo      byte = 0x14
	SIDReadDTCInformation       byte = 0x19
	SIDReadDataByIdentifier     byte = 0x22
	SIDSecurityAccess           byte = 0x27
	SIDWriteDataByIdentifier    byte = 0x2E
	SIDIOControlByIdentifier    byte = 0x2F
	SIDRoutineControl           byte = 0x31
	SIDTesterPresent            byte = 0x3E
)

// PositiveResponseSID converts a request SID to its positive-response SID.
func PositiveResponseSID(sid byte) byte { return sid + 0x40 }

// NegativeResponseSID is the first byte of every negative response.
const NegativeResponseSID byte = 0x7F

// Negative response codes (NRCs).
const (
	NRCGeneralReject             byte = 0x10
	NRCServiceNotSupported       byte = 0x11
	NRCSubFunctionNotSupported   byte = 0x12
	NRCIncorrectMessageLength    byte = 0x13
	NRCConditionsNotCorrect      byte = 0x22
	NRCRequestSequenceError      byte = 0x24
	NRCRequestOutOfRange         byte = 0x31
	NRCSecurityAccessDenied      byte = 0x33
	NRCInvalidKey                byte = 0x35
	NRCServiceNotInActiveSession byte = 0x7F
)

// Session types for DiagnosticSessionControl.
const (
	SessionDefault     byte = 0x01
	SessionProgramming byte = 0x02
	SessionExtended    byte = 0x03
)

// IO control parameters (first byte of the control option record, paper
// §4.5: the three-message control pattern).
const (
	IOReturnControlToECU  byte = 0x00
	IOResetToDefault      byte = 0x01
	IOFreezeCurrentState  byte = 0x02
	IOShortTermAdjustment byte = 0x03
)

// Codec errors.
var (
	ErrTooShort     = errors.New("uds: message too short")
	ErrNotService   = errors.New("uds: message is not the expected service")
	ErrOddDIDBytes  = errors.New("uds: identifier list length is not a multiple of 2")
	ErrNoDIDs       = errors.New("uds: request carries no identifiers")
	ErrDataMismatch = errors.New("uds: response data does not match requested identifiers")
)

// --- ReadDataByIdentifier (0x22) ---

// BuildRDBIRequest builds a ReadDataByIdentifier request for one or more
// DIDs (Fig. 5: "22 {DID} {DID} ...").
func BuildRDBIRequest(dids ...uint16) ([]byte, error) {
	if len(dids) == 0 {
		return nil, ErrNoDIDs
	}
	out := make([]byte, 1, 1+2*len(dids))
	out[0] = SIDReadDataByIdentifier
	for _, d := range dids {
		out = append(out, byte(d>>8), byte(d))
	}
	return out, nil
}

// ParseRDBIRequest extracts the DID list from a 0x22 request.
func ParseRDBIRequest(msg []byte) ([]uint16, error) {
	if len(msg) < 3 {
		return nil, ErrTooShort
	}
	if msg[0] != SIDReadDataByIdentifier {
		return nil, fmt.Errorf("%w: sid %#02x", ErrNotService, msg[0])
	}
	body := msg[1:]
	if len(body)%2 != 0 {
		return nil, ErrOddDIDBytes
	}
	dids := make([]uint16, 0, len(body)/2)
	for i := 0; i < len(body); i += 2 {
		dids = append(dids, uint16(body[i])<<8|uint16(body[i+1]))
	}
	return dids, nil
}

// DataRecord is one (DID, data) pair of a ReadDataByIdentifier response.
type DataRecord struct {
	DID  uint16
	Data []byte
}

// BuildRDBIResponse builds a positive 0x62 response carrying the records in
// order (Fig. 5: "62 {DID} {ESV} {DID} {ESV} ...").
func BuildRDBIResponse(records []DataRecord) []byte {
	out := []byte{PositiveResponseSID(SIDReadDataByIdentifier)}
	for _, r := range records {
		out = append(out, byte(r.DID>>8), byte(r.DID))
		out = append(out, r.Data...)
	}
	return out
}

// ParseRDBIResponse splits a positive 0x62 response into records, using the
// requested DID list as the reference — the technique the paper describes
// in §3.2 Step 3: "the list of DIDs in the request message also appear in
// the corresponding response message with the same order and the field
// value after each DID is just the corresponding ESV". Record boundaries
// are found by scanning for the next expected DID.
//
// The returned records' Data fields are zero-copy views into msg; callers
// that outlive msg (or mutate it) must copy.
func ParseRDBIResponse(msg []byte, requested []uint16) ([]DataRecord, error) {
	if len(msg) < 3 {
		return nil, ErrTooShort
	}
	if msg[0] != PositiveResponseSID(SIDReadDataByIdentifier) {
		return nil, fmt.Errorf("%w: sid %#02x", ErrNotService, msg[0])
	}
	body := msg[1:]
	records := make([]DataRecord, 0, len(requested))
	pos := 0
	for i, did := range requested {
		if pos+2 > len(body) {
			return nil, fmt.Errorf("%w: response ends before DID %#04x", ErrDataMismatch, did)
		}
		got := uint16(body[pos])<<8 | uint16(body[pos+1])
		if got != did {
			return nil, fmt.Errorf("%w: expected DID %#04x at offset %d, found %#04x", ErrDataMismatch, did, pos, got)
		}
		pos += 2
		// The record runs until the next requested DID appears (or the
		// message ends, for the final record).
		end := len(body)
		if i+1 < len(requested) {
			next := requested[i+1]
			found := -1
			for j := pos; j+1 < len(body); j++ {
				if uint16(body[j])<<8|uint16(body[j+1]) == next {
					found = j
					break
				}
			}
			if found < 0 {
				return nil, fmt.Errorf("%w: DID %#04x not found after %#04x", ErrDataMismatch, next, did)
			}
			end = found
		}
		records = append(records, DataRecord{DID: did, Data: body[pos:end:end]})
		pos = end
	}
	return records, nil
}

// --- InputOutputControlByIdentifier (0x2F) ---

// IOControlRequest is a decoded 0x2F request (Fig. 4).
type IOControlRequest struct {
	DID uint16
	// Param is the IO control parameter (first byte of the control option
	// record): freeze, short-term adjustment, return control, ...
	Param byte
	// State is the control state that follows the parameter — the
	// manufacturer-proprietary part of the ECR.
	State []byte
}

// BuildIOControlRequest builds a 0x2F request.
func BuildIOControlRequest(req IOControlRequest) []byte {
	out := []byte{SIDIOControlByIdentifier, byte(req.DID >> 8), byte(req.DID), req.Param}
	return append(out, req.State...)
}

// ParseIOControlRequest decodes a 0x2F request.
func ParseIOControlRequest(msg []byte) (IOControlRequest, error) {
	if len(msg) < 4 {
		return IOControlRequest{}, ErrTooShort
	}
	if msg[0] != SIDIOControlByIdentifier {
		return IOControlRequest{}, fmt.Errorf("%w: sid %#02x", ErrNotService, msg[0])
	}
	req := IOControlRequest{
		DID:   uint16(msg[1])<<8 | uint16(msg[2]),
		Param: msg[3],
	}
	if len(msg) > 4 {
		req.State = append([]byte(nil), msg[4:]...)
	}
	return req, nil
}

// BuildIOControlResponse builds the positive 0x6F response echoing the DID,
// parameter, and current control status.
func BuildIOControlResponse(did uint16, param byte, status []byte) []byte {
	out := []byte{PositiveResponseSID(SIDIOControlByIdentifier), byte(did >> 8), byte(did), param}
	return append(out, status...)
}

// --- Negative responses ---

// BuildNegativeResponse builds "7F {sid} {nrc}".
func BuildNegativeResponse(sid, nrc byte) []byte {
	return []byte{NegativeResponseSID, sid, nrc}
}

// ParseNegativeResponse decodes a negative response, reporting the rejected
// SID and the NRC. ok is false if msg is not a negative response.
func ParseNegativeResponse(msg []byte) (sid, nrc byte, ok bool) {
	if len(msg) != 3 || msg[0] != NegativeResponseSID {
		return 0, 0, false
	}
	return msg[1], msg[2], true
}

// IsPositiveResponse reports whether msg is the positive response for sid.
func IsPositiveResponse(msg []byte, sid byte) bool {
	return len(msg) > 0 && msg[0] == PositiveResponseSID(sid)
}
