package uds

import (
	"errors"
	"fmt"
)

// DTC is one diagnostic trouble code with its ISO 14229 status byte.
// Real tools render the three-byte code in the familiar SAE form
// ("P0301"); the pipeline's screening step must recognise and discard this
// traffic (the paper's tools expose Read/Clear Trouble Codes right next to
// the data-stream functions, and the UI analyzer filters them out).
type DTC struct {
	// Code is the 3-byte DTC (high byte selects the P/C/B/U letter).
	Code uint32
	// Status is the ISO 14229 status mask byte.
	Status byte
}

// DTC status bits (ISO 14229-1 D.2).
const (
	DTCStatusTestFailed              byte = 0x01
	DTCStatusTestFailedThisCycle     byte = 0x02
	DTCStatusPending                 byte = 0x04
	DTCStatusConfirmed               byte = 0x08
	DTCStatusTestNotCompletedSince   byte = 0x10
	DTCStatusTestFailedSinceClear    byte = 0x20
	DTCStatusTestNotCompletedCycle   byte = 0x40
	DTCStatusWarningIndicatorRequest byte = 0x80
)

// ReportDTCByStatusMask is the 0x19 sub-function the fleet's tools use.
const ReportDTCByStatusMask byte = 0x02

// String renders the code in SAE J2012 form ("P0301").
func (d DTC) String() string {
	letters := [4]byte{'P', 'C', 'B', 'U'}
	letter := letters[(d.Code>>22)&0x3]
	digit1 := (d.Code >> 20) & 0x3
	return fmt.Sprintf("%c%d%03X", letter, digit1, (d.Code>>8)&0xFFF)
}

// Codec errors.
var ErrBadDTCBlock = errors.New("uds: DTC report block is not a multiple of 4 bytes")

// BuildReadDTCRequest builds "19 02 {statusMask}".
func BuildReadDTCRequest(statusMask byte) []byte {
	return []byte{SIDReadDTCInformation, ReportDTCByStatusMask, statusMask}
}

// BuildReadDTCResponse builds "59 02 {availabilityMask} {DTC+status}*".
func BuildReadDTCResponse(availabilityMask byte, dtcs []DTC) []byte {
	out := []byte{PositiveResponseSID(SIDReadDTCInformation), ReportDTCByStatusMask, availabilityMask}
	for _, d := range dtcs {
		out = append(out, byte(d.Code>>16), byte(d.Code>>8), byte(d.Code), d.Status)
	}
	return out
}

// ParseReadDTCResponse decodes a positive 0x59 0x02 response.
func ParseReadDTCResponse(msg []byte) (availabilityMask byte, dtcs []DTC, err error) {
	if len(msg) < 3 {
		return 0, nil, ErrTooShort
	}
	if msg[0] != PositiveResponseSID(SIDReadDTCInformation) || msg[1] != ReportDTCByStatusMask {
		return 0, nil, fmt.Errorf("%w: % X", ErrNotService, msg[:2])
	}
	body := msg[3:]
	if len(body)%4 != 0 {
		return 0, nil, ErrBadDTCBlock
	}
	for i := 0; i < len(body); i += 4 {
		dtcs = append(dtcs, DTC{
			Code:   uint32(body[i])<<16 | uint32(body[i+1])<<8 | uint32(body[i+2]),
			Status: body[i+3],
		})
	}
	return msg[2], dtcs, nil
}

// BuildClearDTCRequest builds "14 {group:3 bytes}". Group 0xFFFFFF clears
// everything — what the tools' Clear Trouble Codes button sends.
func BuildClearDTCRequest(group uint32) []byte {
	return []byte{SIDClearDiagnosticInfo, byte(group >> 16), byte(group >> 8), byte(group)}
}
