// Package kwp implements the Keyword Protocol 2000 application layer as the
// paper uses it (§2.3.1, Figs. 2-3): readDataByLocalIdentifier (0x21),
// whose positive responses carry three-byte ECU signal values
// (formula-type byte + X0 + X1), and the two actuator-control services
// inputOutputControlByLocalIdentifier (0x30) and
// inputOutputControlByCommonIdentifier (0x2F).
//
// The formula-type table mirrors the VAG measuring-block convention the
// paper reverse engineers: the first byte of each ESV selects a proprietary
// two-variable formula, X0 usually carries a per-sensor scale constant and
// X1 the live measurement. The real table is distributed in a confidential
// document (the paper's ground truth came from "an experienced vehicle
// researcher"); the table here is a faithful reconstruction of the publicly
// known structure — same shape, same arithmetic families — which is the
// substitution DESIGN.md documents.
package kwp

import (
	"errors"
	"fmt"
	"math"
)

// Service identifiers.
const (
	SIDStartDiagnosticSession      byte = 0x10
	SIDECUReset                    byte = 0x11
	SIDReadECUIdentification       byte = 0x1A
	SIDReadDataByLocalIdentifier   byte = 0x21
	SIDIOControlByCommonIdentifier byte = 0x2F
	SIDIOControlByLocalIdentifier  byte = 0x30
	SIDTesterPresent               byte = 0x3E
)

// PositiveResponseSID converts a request SID to its positive-response SID.
func PositiveResponseSID(sid byte) byte { return sid + 0x40 }

// NegativeResponseSID begins every negative response.
const NegativeResponseSID byte = 0x7F

// Response codes used by the simulated ECUs.
const (
	RCGeneralReject            byte = 0x10
	RCServiceNotSupported      byte = 0x11
	RCSubFunctionNotSupported  byte = 0x12
	RCRequestOutOfRange        byte = 0x31
	RCSecurityAccessDenied     byte = 0x33
	RCConditionsNotCorrect     byte = 0x22
	RCRoutineNotComplete       byte = 0x23
	RCIncorrectMessageLength   byte = 0x13
	RCServiceNotInActiveSessio byte = 0x7F
)

// ESVSize is the wire size of one ECU signal value: formula type, X0, X1.
const ESVSize = 3

// Codec errors.
var (
	ErrTooShort    = errors.New("kwp: message too short")
	ErrNotService  = errors.New("kwp: message is not the expected service")
	ErrBadESVBlock = errors.New("kwp: response ESV block is not a multiple of 3 bytes")
)

// ESV is one wire-format ECU signal value from a 0x61 response.
type ESV struct {
	// FType selects the proprietary formula.
	FType byte
	// X0 and X1 are the two formula inputs.
	X0, X1 byte
}

// Decode applies the formula table to recover the physical value. ok is
// false for enum/no-formula types and unknown formula types.
func (e ESV) Decode() (value float64, ok bool) {
	ft, found := LookupFormula(e.FType)
	if !found || ft.Enum {
		return 0, false
	}
	return ft.Eval(float64(e.X0), float64(e.X1)), true
}

// FormulaType describes one entry of the proprietary formula table.
type FormulaType struct {
	ID   byte
	Name string
	// Unit is the engineering unit of the decoded value.
	Unit string
	// Expr is the human-readable formula over X0/X1, e.g. "X0*X1/5".
	Expr string
	// Eval computes the physical value from the two wire bytes.
	Eval func(x0, x1 float64) float64
	// Encode produces wire bytes (x0, x1) representing physical value y,
	// given the sensor's scale constant. Encoding is what the simulated
	// ECU does; decoding is what the diagnostic tool does; recovering Eval
	// from observed (x0, x1, y) triples is what DP-Reverser does.
	Encode func(scale byte, y float64) (x0, x1 byte)
	// Enum marks types whose bytes are states/bitfields with no formula
	// (Table 6's "#ESV (Enum)" column).
	Enum bool
}

func clampByte(v float64) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(math.Round(v))
}

// formulaTable is the reconstructed VAG-style formula-type registry.
var formulaTable = map[byte]FormulaType{
	0x01: {
		ID: 0x01, Name: "engine speed", Unit: "rpm", Expr: "X0*X1/5",
		Eval:   func(x0, x1 float64) float64 { return x0 * x1 / 5 },
		Encode: func(scale byte, y float64) (byte, byte) { return scale, clampByte(y * 5 / float64(scale)) },
	},
	0x02: {
		ID: 0x02, Name: "ratio", Unit: "%", Expr: "X0*0.002*X1",
		Eval:   func(x0, x1 float64) float64 { return x0 * 0.002 * x1 },
		Encode: func(scale byte, y float64) (byte, byte) { return scale, clampByte(y / (0.002 * float64(scale))) },
	},
	0x03: {
		ID: 0x03, Name: "angle", Unit: "deg", Expr: "0.002*X0*X1",
		Eval:   func(x0, x1 float64) float64 { return 0.002 * x0 * x1 },
		Encode: func(scale byte, y float64) (byte, byte) { return scale, clampByte(y / (0.002 * float64(scale))) },
	},
	0x04: {
		ID: 0x04, Name: "signed angle", Unit: "deg", Expr: "0.01*X0*(X1-127)",
		Eval:   func(x0, x1 float64) float64 { return 0.01 * x0 * (x1 - 127) },
		Encode: func(scale byte, y float64) (byte, byte) { return scale, clampByte(y/(0.01*float64(scale)) + 127) },
	},
	0x05: {
		ID: 0x05, Name: "temperature", Unit: "°C", Expr: "0.1*X0*(X1-100)",
		Eval:   func(x0, x1 float64) float64 { return 0.1 * x0 * (x1 - 100) },
		Encode: func(scale byte, y float64) (byte, byte) { return scale, clampByte(y/(0.1*float64(scale)) + 100) },
	},
	0x06: {
		ID: 0x06, Name: "voltage", Unit: "V", Expr: "0.001*X0*X1",
		Eval:   func(x0, x1 float64) float64 { return 0.001 * x0 * x1 },
		Encode: func(scale byte, y float64) (byte, byte) { return scale, clampByte(y / (0.001 * float64(scale))) },
	},
	0x07: {
		ID: 0x07, Name: "vehicle speed", Unit: "km/h", Expr: "0.01*X0*X1",
		Eval:   func(x0, x1 float64) float64 { return 0.01 * x0 * x1 },
		Encode: func(scale byte, y float64) (byte, byte) { return scale, clampByte(y / (0.01 * float64(scale))) },
	},
	0x08: {
		ID: 0x08, Name: "scaled value", Unit: "", Expr: "0.1*X0*X1",
		Eval:   func(x0, x1 float64) float64 { return 0.1 * x0 * x1 },
		Encode: func(scale byte, y float64) (byte, byte) { return scale, clampByte(y / (0.1 * float64(scale))) },
	},
	0x0F: {
		ID: 0x0F, Name: "duration", Unit: "ms", Expr: "0.01*X0*X1",
		Eval:   func(x0, x1 float64) float64 { return 0.01 * x0 * x1 },
		Encode: func(scale byte, y float64) (byte, byte) { return scale, clampByte(y / (0.01 * float64(scale))) },
	},
	0x12: {
		ID: 0x12, Name: "pressure", Unit: "mbar", Expr: "0.04*X0*X1",
		Eval:   func(x0, x1 float64) float64 { return 0.04 * x0 * x1 },
		Encode: func(scale byte, y float64) (byte, byte) { return scale, clampByte(y / (0.04 * float64(scale))) },
	},
	0x14: {
		ID: 0x14, Name: "signed ratio", Unit: "%", Expr: "X0*(X1-128)/128",
		Eval:   func(x0, x1 float64) float64 { return x0 * (x1 - 128) / 128 },
		Encode: func(scale byte, y float64) (byte, byte) { return scale, clampByte(y*128/float64(scale) + 128) },
	},
	0x17: {
		ID: 0x17, Name: "duty cycle", Unit: "%", Expr: "X0*X1/256",
		Eval:   func(x0, x1 float64) float64 { return x0 * x1 / 256 },
		Encode: func(scale byte, y float64) (byte, byte) { return scale, clampByte(y * 256 / float64(scale)) },
	},
	0x19: {
		ID: 0x19, Name: "gas concentration", Unit: "g/s", Expr: "X0*X1/182",
		Eval:   func(x0, x1 float64) float64 { return x0 * x1 / 182 },
		Encode: func(scale byte, y float64) (byte, byte) { return scale, clampByte(y * 182 / float64(scale)) },
	},
	0x22: {
		ID: 0x22, Name: "power", Unit: "kW", Expr: "0.01*X0*(X1-128)",
		Eval:   func(x0, x1 float64) float64 { return 0.01 * x0 * (x1 - 128) },
		Encode: func(scale byte, y float64) (byte, byte) { return scale, clampByte(y/(0.01*float64(scale)) + 128) },
	},
	0x24: {
		// The paper's "Torque Assistance" shape: the measurement rides in
		// X0 and X1 selects sign around 128 (observed values 0x7F/0x81).
		ID: 0x24, Name: "torque assistance", Unit: "N·m", Expr: "0.001*X0*(X1-128)",
		Eval: func(x0, x1 float64) float64 { return 0.001 * x0 * (x1 - 128) },
		Encode: func(_ byte, y float64) (byte, byte) {
			x1 := byte(0x81)
			if y < 0 {
				x1 = 0x7F
				y = -y
			}
			return clampByte(y * 1000), x1
		},
	},
	0x25: {
		// The paper's "lateral acceleration" shape: the inferred formula
		// collapses to one variable because X0 is 0x00 in all frames.
		ID: 0x25, Name: "lateral acceleration", Unit: "m/s²", Expr: "0.01*(X0*256+X1-128)",
		Eval: func(x0, x1 float64) float64 { return 0.01 * (x0*256 + x1 - 128) },
		Encode: func(_ byte, y float64) (byte, byte) {
			raw := y/0.01 + 128
			if raw < 0 {
				raw = 0
			}
			if raw > 255 {
				// X0 stays zero for the lateral-acceleration range the
				// fleet drives; larger values spill into X0.
				return clampByte(raw / 256), clampByte(raw - 256*math.Floor(raw/256))
			}
			return 0, clampByte(raw)
		},
	},
	0x31: {
		ID: 0x31, Name: "mass flow", Unit: "g/s", Expr: "X0*X1/40",
		Eval:   func(x0, x1 float64) float64 { return x0 * x1 / 40 },
		Encode: func(scale byte, y float64) (byte, byte) { return scale, clampByte(y * 40 / float64(scale)) },
	},
	0x35: {
		ID: 0x35, Name: "quadratic pressure", Unit: "bar", Expr: "0.001*X0*X1*X1/255",
		Eval: func(x0, x1 float64) float64 { return 0.001 * x0 * x1 * x1 / 255 },
		Encode: func(scale byte, y float64) (byte, byte) {
			return scale, clampByte(math.Sqrt(y * 255 / (0.001 * float64(scale))))
		},
	},
	0x10: {
		ID: 0x10, Name: "bit field", Unit: "", Expr: "", Enum: true,
		Eval:   func(x0, x1 float64) float64 { return 0 },
		Encode: func(_ byte, y float64) (byte, byte) { return 0, byte(int(y) & 0xFF) },
	},
	0x11: {
		ID: 0x11, Name: "state", Unit: "", Expr: "", Enum: true,
		Eval:   func(x0, x1 float64) float64 { return 0 },
		Encode: func(_ byte, y float64) (byte, byte) { return 0, byte(int(y) & 0xFF) },
	},
}

// LookupFormula returns the formula-type entry for id.
func LookupFormula(id byte) (FormulaType, bool) {
	ft, ok := formulaTable[id]
	return ft, ok
}

// --- readDataByLocalIdentifier (0x21) ---

// BuildReadRequest builds "21 {localID}".
func BuildReadRequest(localID byte) []byte {
	return []byte{SIDReadDataByLocalIdentifier, localID}
}

// ParseReadRequest decodes a 0x21 request.
func ParseReadRequest(msg []byte) (localID byte, err error) {
	if len(msg) < 2 {
		return 0, ErrTooShort
	}
	if msg[0] != SIDReadDataByLocalIdentifier {
		return 0, fmt.Errorf("%w: sid %#02x", ErrNotService, msg[0])
	}
	return msg[1], nil
}

// BuildReadResponse builds "61 {localID} {ESV}*" (Fig. 3).
func BuildReadResponse(localID byte, esvs []ESV) []byte {
	out := make([]byte, 2, 2+ESVSize*len(esvs))
	out[0] = PositiveResponseSID(SIDReadDataByLocalIdentifier)
	out[1] = localID
	for _, e := range esvs {
		out = append(out, e.FType, e.X0, e.X1)
	}
	return out
}

// ParseReadResponse decodes a 0x61 response into its local identifier and
// ESV list.
func ParseReadResponse(msg []byte) (localID byte, esvs []ESV, err error) {
	if len(msg) < 2 {
		return 0, nil, ErrTooShort
	}
	if msg[0] != PositiveResponseSID(SIDReadDataByLocalIdentifier) {
		return 0, nil, fmt.Errorf("%w: sid %#02x", ErrNotService, msg[0])
	}
	body := msg[2:]
	if len(body)%ESVSize != 0 {
		return 0, nil, ErrBadESVBlock
	}
	esvs = make([]ESV, 0, len(body)/ESVSize)
	for i := 0; i < len(body); i += ESVSize {
		esvs = append(esvs, ESV{FType: body[i], X0: body[i+1], X1: body[i+2]})
	}
	return msg[1], esvs, nil
}

// --- inputOutputControlByLocalIdentifier (0x30) ---

// IOControlRequest is a decoded 0x30 (or 0x2F with a 2-byte common
// identifier) actuator-control request. The ECR — the paper's "ECU Control
// Record" — is the control option bytes.
type IOControlRequest struct {
	// LocalID identifies the actuator (one byte for 0x30; for the common-
	// identifier service the two bytes are carried in CommonID).
	LocalID byte
	// CommonID is set for the 0x2F service.
	CommonID uint16
	// Common selects between the two services.
	Common bool
	// ECR is the control option record.
	ECR []byte
}

// BuildIOControlRequest encodes the request (Fig. 2).
func BuildIOControlRequest(req IOControlRequest) []byte {
	if req.Common {
		out := []byte{SIDIOControlByCommonIdentifier, byte(req.CommonID >> 8), byte(req.CommonID)}
		return append(out, req.ECR...)
	}
	out := []byte{SIDIOControlByLocalIdentifier, req.LocalID}
	return append(out, req.ECR...)
}

// ParseIOControlRequest decodes either IO-control service.
func ParseIOControlRequest(msg []byte) (IOControlRequest, error) {
	if len(msg) < 2 {
		return IOControlRequest{}, ErrTooShort
	}
	switch msg[0] {
	case SIDIOControlByLocalIdentifier:
		req := IOControlRequest{LocalID: msg[1]}
		if len(msg) > 2 {
			req.ECR = append([]byte(nil), msg[2:]...)
		}
		return req, nil
	case SIDIOControlByCommonIdentifier:
		if len(msg) < 3 {
			return IOControlRequest{}, ErrTooShort
		}
		req := IOControlRequest{Common: true, CommonID: uint16(msg[1])<<8 | uint16(msg[2])}
		if len(msg) > 3 {
			req.ECR = append([]byte(nil), msg[3:]...)
		}
		return req, nil
	default:
		return IOControlRequest{}, fmt.Errorf("%w: sid %#02x", ErrNotService, msg[0])
	}
}

// BuildIOControlResponse builds the positive response echoing the
// identifier and control status.
func BuildIOControlResponse(req IOControlRequest, status []byte) []byte {
	if req.Common {
		out := []byte{PositiveResponseSID(SIDIOControlByCommonIdentifier), byte(req.CommonID >> 8), byte(req.CommonID)}
		return append(out, status...)
	}
	out := []byte{PositiveResponseSID(SIDIOControlByLocalIdentifier), req.LocalID}
	return append(out, status...)
}

// IdentOptionECUIdent is the identification option VCDS-style tools read
// at session start (part number, component name, coding).
const IdentOptionECUIdent byte = 0x9B

// BuildIdentRequest builds "1A {option}".
func BuildIdentRequest(option byte) []byte {
	return []byte{SIDReadECUIdentification, option}
}

// BuildIdentResponse builds "5A {option} {ascii identification}".
func BuildIdentResponse(option byte, ident string) []byte {
	out := []byte{PositiveResponseSID(SIDReadECUIdentification), option}
	return append(out, []byte(ident)...)
}

// ParseIdentResponse decodes a 0x5A response.
func ParseIdentResponse(msg []byte) (option byte, ident string, err error) {
	if len(msg) < 2 {
		return 0, "", ErrTooShort
	}
	if msg[0] != PositiveResponseSID(SIDReadECUIdentification) {
		return 0, "", fmt.Errorf("%w: sid %#02x", ErrNotService, msg[0])
	}
	return msg[1], string(msg[2:]), nil
}

// BuildNegativeResponse builds "7F {sid} {rc}".
func BuildNegativeResponse(sid, rc byte) []byte {
	return []byte{NegativeResponseSID, sid, rc}
}

// ParseNegativeResponse decodes a negative response.
func ParseNegativeResponse(msg []byte) (sid, rc byte, ok bool) {
	if len(msg) != 3 || msg[0] != NegativeResponseSID {
		return 0, 0, false
	}
	return msg[1], msg[2], true
}

// IsPositiveResponse reports whether msg answers sid positively.
func IsPositiveResponse(msg []byte, sid byte) bool {
	return len(msg) > 0 && msg[0] == PositiveResponseSID(sid)
}
