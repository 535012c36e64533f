package reverser

import (
	"runtime"
	"strconv"
	"time"

	"dpreverser/internal/colstore"
	"dpreverser/internal/kwp"
	"dpreverser/internal/obd"
	"dpreverser/internal/uds"
)

// requestSIDs are the application-layer request service IDs the standards
// define; anything in 0x40..0x7F is a response. This classification needs
// no knowledge of which CAN IDs belong to which side.
var requestSIDs = map[byte]bool{
	0x01:                              true, // OBD mode 01
	uds.SIDDiagnosticSessionControl:   true,
	uds.SIDECUReset:                   true,
	uds.SIDClearDiagnosticInfo:        true,
	uds.SIDReadDTCInformation:         true,
	kwp.SIDReadECUIdentification:      true,
	kwp.SIDReadDataByLocalIdentifier:  true,
	uds.SIDReadDataByIdentifier:       true,
	uds.SIDSecurityAccess:             true,
	uds.SIDWriteDataByIdentifier:      true,
	uds.SIDIOControlByIdentifier:      true, // also KWP IOCbCID
	kwp.SIDIOControlByLocalIdentifier: true,
	uds.SIDRoutineControl:             true,
	uds.SIDTesterPresent:              true,
}

// IsRequest classifies an assembled payload.
func IsRequest(payload []byte) bool {
	return len(payload) > 0 && requestSIDs[payload[0]]
}

// ESVObservation is one extracted ECU-signal-value reading: the raw bytes
// of one identifier's field in one response, with its timestamp.
type ESVObservation struct {
	At time.Duration
	// Key identifies the stream (one reversible quantity).
	Key StreamKey
	// Bytes is the raw field value (UDS: the DID's data; KWP: FType, X0,
	// X1).
	Bytes []byte
}

// StreamKey identifies one readable quantity on the wire.
type StreamKey struct {
	// Proto is "UDS", "KWP" or "OBD".
	Proto string
	// RespID is the CAN ID the responses arrive on (plus BMW address).
	RespID uint32
	Addr   byte
	// DID is set for UDS; PID for OBD.
	DID uint16
	// LocalID, Index and FType locate a KWP ESV within its block.
	LocalID byte
	Index   int
	FType   byte
}

// String renders the key the way the result tables print identifiers.
func (k StreamKey) String() string {
	var buf [48]byte
	return string(k.appendID(buf[:0]))
}

// appendID appends the key as String renders it: "UDS DID %04X @%03X",
// "KWP local %02X[%d] ftype %02X @%03X" or "OBD PID %02X".
func (k StreamKey) appendID(b []byte) []byte {
	switch k.Proto {
	case "UDS":
		b = appendHex(append(b, "UDS DID "...), uint64(k.DID), 4)
	case "KWP":
		b = appendHex(append(b, "KWP local "...), uint64(k.LocalID), 2)
		b = strconv.AppendInt(append(b, '['), int64(k.Index), 10)
		b = appendHex(append(b, "] ftype "...), uint64(k.FType), 2)
	default:
		return appendHex(append(b, "OBD PID "...), uint64(k.DID), 2)
	}
	return appendHex(append(b, " @"...), uint64(k.RespID), 3)
}

// ECRObservation is one captured IO-control request (§4.5's raw material).
type ECRObservation struct {
	At time.Duration
	// Service is 0x2F or 0x30.
	Service byte
	// ID is the 2-byte identifier for 0x2F, or the 1-byte local
	// identifier (zero-extended) for 0x30.
	ID uint16
	// Param is the IO control parameter (first control byte).
	Param byte
	// State is the remaining control-state bytes.
	State []byte
	// Positive reports whether the ECU answered positively.
	Positive bool
	// ReqID is the CAN ID the request was sent on.
	ReqID uint32
}

// Extraction is the output of field extraction over a whole capture.
type Extraction struct {
	ESVs []ESVObservation
	ECRs []ECRObservation
	// Requests counts request messages by service ID.
	Requests map[byte]int
	// NegativeResponses counts 0x7F responses by rejected service.
	NegativeResponses map[byte]int

	// kwpSlab backs the KWP observations' 3-byte ESV triples; see
	// appendKWP.
	kwpSlab []byte
}

// transportKinds bounds the pairing state arrays below.
const transportKinds = 3

// ExtractFieldsColumnar implements §3.2 Step 3 over an assembled message
// store: it pairs responses with the most recent matching request and
// splits the payloads into manufacturer-defined fields. Pairing state lives in transport-indexed
// arrays — requests and responses travel on different CAN IDs (and, for
// BMW, carry each other's addresses), but a capture's conversation is
// serialised per transport kind, since tools wait for each response
// before the next request — so claiming a pending slot costs no map
// lookup and no key formatting. Extracted ESV bytes are views into the
// store's slab (or, for KWP's decoded triples, into an extraction-owned
// slab); the Extraction keeps the store alive through those views.
func ExtractFieldsColumnar(ms *colstore.Messages) *Extraction {
	// A capture has about as many ESVs as messages.
	return extractFields(ms, make([]ESVObservation, 0, ms.Len()))
}

// extractFields is ExtractFieldsColumnar appending the observations to
// esvs, an empty buffer.
//
//dplint:hotpath extract-fields
func extractFields(ms *colstore.Messages, esvs []ESVObservation) *Extraction {
	out := &Extraction{
		ESVs:              esvs,
		Requests:          map[byte]int{},
		NegativeResponses: map[byte]int{},
	}
	// pending tracks, per transport conversation, the latest request
	// payload awaiting its response; pendingIOs the IO-control requests
	// awaiting the positive/negative verdict.
	var pending [transportKinds]struct {
		payload []byte
		ok      bool
	}
	var pendingIOs [transportKinds]struct {
		obs ECRObservation
		ok  bool
	}

	for i, n := 0, ms.Len(); i < n; i++ {
		payload := ms.Payload(i)
		if len(payload) == 0 {
			continue
		}
		at, id, addr := ms.At(i), ms.ID(i), ms.Addr(i)
		tr := int(ms.Transport(i)) % transportKinds
		sid := payload[0]
		if IsRequest(payload) {
			out.Requests[sid]++
			pending[tr].payload = payload
			pending[tr].ok = true
			switch sid {
			case uds.SIDIOControlByIdentifier:
				if len(payload) >= 4 {
					obs := ECRObservation{
						At: at, Service: sid, ReqID: id,
						ID:    uint16(payload[1])<<8 | uint16(payload[2]),
						Param: payload[3],
					}
					if len(payload) > 4 {
						obs.State = payload[4:]
					}
					pendingIOs[tr].obs = obs
					pendingIOs[tr].ok = true
				}
			case kwp.SIDIOControlByLocalIdentifier:
				if len(payload) >= 3 {
					obs := ECRObservation{
						At: at, Service: sid, ReqID: id,
						ID:    uint16(payload[1]),
						Param: payload[2],
					}
					if len(payload) > 3 {
						obs.State = payload[3:]
					}
					pendingIOs[tr].obs = obs
					pendingIOs[tr].ok = true
				}
			}
			continue
		}

		// Response path.
		if sid == uds.NegativeResponseSID {
			if len(payload) >= 2 {
				out.NegativeResponses[payload[1]]++
				if pendingIOs[tr].ok &&
					(payload[1] == uds.SIDIOControlByIdentifier || payload[1] == kwp.SIDIOControlByLocalIdentifier) {
					pendingIOs[tr].obs.Positive = false
					out.ECRs = append(out.ECRs, pendingIOs[tr].obs)
					pendingIOs[tr].ok = false
				}
			}
			continue
		}
		if !pending[tr].ok || pending[tr].payload[0]+0x40 != sid {
			continue // orphan response
		}
		reqPayload := pending[tr].payload
		pending[tr].ok = false

		switch sid {
		case obd.ResponseSID:
			if pid, _, err := obd.ParseResponse(payload); err == nil {
				out.ESVs = append(out.ESVs, ESVObservation{
					At:    at,
					Key:   StreamKey{Proto: "OBD", RespID: id, DID: uint16(pid)},
					Bytes: payload[2:],
				})
			}

		case uds.PositiveResponseSID(uds.SIDReadDataByIdentifier):
			dids, err := uds.ParseRDBIRequest(reqPayload)
			if err != nil {
				continue
			}
			records, err := uds.ParseRDBIResponse(payload, dids)
			if err != nil {
				continue
			}
			for _, rec := range records {
				out.ESVs = append(out.ESVs, ESVObservation{
					At:    at,
					Key:   StreamKey{Proto: "UDS", RespID: id, Addr: addr, DID: rec.DID},
					Bytes: rec.Data,
				})
			}

		case kwp.PositiveResponseSID(kwp.SIDReadDataByLocalIdentifier):
			localID, esvs, err := kwp.ParseReadResponse(payload)
			if err != nil {
				continue
			}
			for j, e := range esvs {
				out.ESVs = append(out.ESVs, ESVObservation{
					At: at,
					Key: StreamKey{Proto: "KWP", RespID: id, Addr: addr,
						LocalID: localID, Index: j, FType: e.FType},
					Bytes: out.appendKWP(e.FType, e.X0, e.X1),
				})
			}

		case uds.PositiveResponseSID(uds.SIDIOControlByIdentifier),
			kwp.PositiveResponseSID(kwp.SIDIOControlByLocalIdentifier):
			if pendingIOs[tr].ok {
				pendingIOs[tr].obs.Positive = true
				out.ECRs = append(out.ECRs, pendingIOs[tr].obs)
				pendingIOs[tr].ok = false
			}
		}
	}
	return out
}

// esvFree is the free list of idle observation buffers, one per P at
// most. Reverse extracts into a buffer from it and returns the buffer
// once the streams stage has read the observations, so a job appends
// into the capacity earlier jobs grew instead of presizing a fresh
// buffer to its message count and regrowing it past that (a KWP capture
// has more observations than messages). Like rig's readFree, and unlike
// a sync.Pool, it keeps its buffers across collections and hands one to
// any P.
var esvFree = make(chan []ESVObservation, runtime.GOMAXPROCS(0))

// maxPooledESVs keeps a buffer that grew past it off the free list, so
// one outsized capture does not stay resident.
const maxPooledESVs = 1 << 16

// acquireESVs takes an empty buffer off the free list, or makes one of n.
func acquireESVs(n int) []ESVObservation {
	select {
	case b := <-esvFree:
		return b
	default:
		return make([]ESVObservation, 0, n)
	}
}

// releaseESVs returns b to the free list, emptied: its observations'
// views into the capture's message store are cleared. A buffer over
// maxPooledESVs, or one the full list has no room for, is dropped.
func releaseESVs(b []ESVObservation) {
	clear(b)
	if cap(b) > maxPooledESVs {
		return
	}
	select {
	case esvFree <- b[:0]:
	default:
	}
}

// appendKWP packs one decoded KWP (FType, X0, X1) triple onto the
// extraction's own slab and returns the capped 3-byte view. KWP ESVs are
// re-encoded rather than sliced from the message payload, so they need
// somewhere contiguous to live; one shared slab replaces a 3-byte heap
// allocation per observation. Views survive slab growth: append may move
// the backing array, but the old array stays reachable through them.
func (x *Extraction) appendKWP(ftype, x0, x1 byte) []byte {
	x.kwpSlab = append(x.kwpSlab, ftype, x0, x1)
	n := len(x.kwpSlab)
	return x.kwpSlab[n-3 : n : n]
}

// appendVariables appends o's formula-inference variables to dst, never
// more than len(o.Bytes) of them, following §3.5 Step 1: "each ESV X is an
// integer value for UDS and each ESV contains two integer values for KWP
// 2000". UDS fields collapse to one big-endian integer; KWP ESVs expose X0
// and X1 (the formula-type byte is structural — it selects, not feeds, the
// formula); OBD data keeps one variable per byte, matching Table 5's
// two-variable ground-truth formulas. ok is false, and dst unchanged, when
// the field is malformed.
func (o ESVObservation) appendVariables(dst []float64) (_ []float64, ok bool) {
	switch o.Key.Proto {
	case "KWP":
		if len(o.Bytes) != kwp.ESVSize {
			return dst, false
		}
		return append(dst, float64(o.Bytes[1]), float64(o.Bytes[2])), true
	case "UDS":
		if len(o.Bytes) == 0 || len(o.Bytes) > 4 {
			return dst, false
		}
		raw := 0.0
		for _, b := range o.Bytes {
			raw = raw*256 + float64(b)
		}
		return append(dst, raw), true
	default:
		for _, b := range o.Bytes {
			dst = append(dst, float64(b))
		}
		return dst, true
	}
}
