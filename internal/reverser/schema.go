package reverser

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// This file is the versioned result schema: the one JSON shape of a
// reverse-engineering result, emitted identically by `dpreverse -json`,
// the experiment harness and the job server's result endpoint. Every
// document carries a top-level "schema" field; consumers reject versions
// they do not understand instead of misreading silently renamed fields.
// Bump ResultSchemaVersion on any incompatible change and record the old
// shape in the golden files under testdata/.
//
// The document is written in one pass by the append functions below,
// which produce exactly the bytes encoding/json gives for the structs the
// comments describe: compact, members in the listed order, strings
// escaped and numbers formatted as encoding/json does.

// ResultSchemaVersion is the current result-document schema version.
const ResultSchemaVersion = 1

// Kind classifies a reversed stream the way the result tables do.
func (r ReversedESV) Kind() string {
	switch {
	case r.Enum:
		return "enum"
	case r.Formula != nil:
		return "formula"
	default:
		return "under-sampled"
	}
}

// MarshalJSON renders the recovered quantity for downstream tooling: the
// key both structured and pre-rendered, the formula as its FormulaString,
// and the fitness only when a formula exists (MAE is meaningless - and
// possibly infinite - without one). Its members are id, key, label
// (omitted when empty), unit (omitted when empty), kind, formula (omitted
// when empty), fitness, pairs, and generations, evaluations and
// cache_hits (each omitted when zero).
func (r ReversedESV) MarshalJSON() ([]byte, error) { return r.appendJSON(nil), nil }

func (r ReversedESV) appendJSON(b []byte) []byte {
	b = append(b, `{"id":"`...)
	b = r.Key.appendID(b)
	b = append(b, `","key":`...)
	b = ReversedESVKey(r.Key).appendJSON(b)
	b = appendStringField(b, "label", r.Label)
	b = appendStringField(b, "unit", r.Unit)
	b = append(b, `,"kind":`...)
	b = appendString(b, r.Kind())
	if r.Formula != nil {
		b = appendStringField(b, "formula", r.Formula.String())
		if !math.IsNaN(r.Fitness) && !math.IsInf(r.Fitness, 0) {
			b = append(b, `,"fitness":`...)
			b = appendFloat(b, r.Fitness)
		}
	}
	b = appendIntField(b, "pairs", r.Pairs, false)
	b = appendIntField(b, "generations", r.Generations, true)
	b = appendIntField(b, "evaluations", r.Evaluations, true)
	b = appendIntField(b, "cache_hits", r.CacheHits, true)
	return append(b, '}')
}

// ReversedESVKey is StreamKey's JSON shape: hex identifiers rendered as
// strings, zero-valued locator fields omitted. Its members are proto,
// resp_id and addr (each omitted when zero), did (UDS and OBD), local_id
// (KWP), index (omitted when zero) and ftype (KWP).
type ReversedESVKey StreamKey

// MarshalJSON implements json.Marshaler.
func (k ReversedESVKey) MarshalJSON() ([]byte, error) { return k.appendJSON(nil), nil }

func (k ReversedESVKey) appendJSON(b []byte) []byte {
	b = append(b, `{"proto":`...)
	b = appendString(b, k.Proto)
	if k.RespID != 0 {
		b = appendHexField(b, "resp_id", uint64(k.RespID), 3)
	}
	if k.Addr != 0 {
		b = appendHexField(b, "addr", uint64(k.Addr), 2)
	}
	switch k.Proto {
	case "KWP":
		b = appendHexField(b, "local_id", uint64(k.LocalID), 2)
	case "UDS":
		b = appendHexField(b, "did", uint64(k.DID), 4)
	default:
		b = appendHexField(b, "did", uint64(k.DID), 2)
	}
	b = appendIntField(b, "index", k.Index, true)
	if k.Proto == "KWP" {
		b = appendHexField(b, "ftype", uint64(k.FType), 2)
	}
	return append(b, '}')
}

// MarshalJSON renders the control record with hex identifiers and the
// observed three-message pattern steps. Its members are service, id,
// label (omitted when empty), state (the bytes as "% X", omitted when
// empty), saw_freeze, saw_adjust, saw_return and pattern_complete.
func (r ReversedECR) MarshalJSON() ([]byte, error) { return r.appendJSON(nil), nil }

func (r ReversedECR) appendJSON(b []byte) []byte {
	b = append(b, '{')
	b = appendHexField(b, "service", uint64(r.Service), 2)
	b = appendHexField(b, "id", uint64(r.ID), 4)
	b = appendStringField(b, "label", r.Label)
	if len(r.State) > 0 {
		b = append(b, `,"state":"`...)
		for i, v := range r.State {
			if i > 0 {
				b = append(b, ' ')
			}
			b = appendHex(b, uint64(v), 2)
		}
		b = append(b, '"')
	}
	b = appendBoolField(b, "saw_freeze", r.SawFreeze)
	b = appendBoolField(b, "saw_adjust", r.SawAdjust)
	b = appendBoolField(b, "saw_return", r.SawReturn)
	b = appendBoolField(b, "pattern_complete", r.PatternComplete())
	return append(b, '}')
}

// MarshalJSON renders the degradation entry for the result report. Its
// members are id (the stream key, omitted for capture-level damage),
// label (omitted when empty), stage, reason and detail (omitted when
// empty).
func (e StreamError) MarshalJSON() ([]byte, error) { return e.appendJSON(nil), nil }

func (e StreamError) appendJSON(b []byte) []byte {
	b = append(b, '{')
	if e.Key != (StreamKey{}) {
		b = append(b, `"id":"`...)
		b = e.Key.appendID(b)
		b = append(b, '"')
	}
	b = appendStringField(b, "label", e.Label)
	b = appendField(b, "stage")
	b = appendString(b, e.Stage)
	b = appendField(b, "reason")
	b = appendString(b, e.Reason)
	b = appendStringField(b, "detail", e.Detail)
	return append(b, '}')
}

// MarshalJSON renders the full result document. Streams (the raw
// inference inputs) are deliberately omitted: they are working state for
// the experiment harness, not part of the reversed protocol description.
// Its members are schema, car, model and tool (each omitted when empty),
// offset_ms, messages, evaluations, cache_hits, cache_misses, stats (the
// TrafficStats counters under their Go names), esvs (null when nil), and
// ecrs and degraded (each omitted when empty).
func (r *Result) MarshalJSON() ([]byte, error) {
	return r.appendJSON(make([]byte, 0, 512+256*len(r.ESVs))), nil
}

func (r *Result) appendJSON(b []byte) []byte {
	b = append(b, `{"schema":`...)
	b = strconv.AppendInt(b, ResultSchemaVersion, 10)
	b = append(b, `,"car":`...)
	b = appendString(b, r.Car)
	b = appendStringField(b, "model", r.Model)
	b = appendStringField(b, "tool", r.ToolName)
	b = append(b, `,"offset_ms":`...)
	b = appendFloat(b, float64(r.Offset.Microseconds())/1e3)
	b = appendIntField(b, "messages", r.Messages, false)
	b = appendIntField(b, "evaluations", r.Evaluations, false)
	b = appendIntField(b, "cache_hits", r.CacheHits, false)
	b = appendIntField(b, "cache_misses", r.CacheMisses, false)
	b = append(b, `,"stats":`...)
	b = r.Stats.appendJSON(b)
	b = append(b, `,"esvs":`...)
	if r.ESVs == nil {
		b = append(b, "null"...)
	} else {
		b = appendArray(b, r.ESVs, ReversedESV.appendJSON)
	}
	if len(r.ECRs) > 0 {
		b = appendArray(append(b, `,"ecrs":`...), r.ECRs, ReversedECR.appendJSON)
	}
	if len(r.Degraded) > 0 {
		b = appendArray(append(b, `,"degraded":`...), r.Degraded, StreamError.appendJSON)
	}
	return append(b, '}')
}

// appendArray appends items as a JSON array, each written by appendItem.
func appendArray[T any](b []byte, items []T, appendItem func(T, []byte) []byte) []byte {
	b = append(b, '[')
	for i, it := range items {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendItem(it, b)
	}
	return append(b, ']')
}

// appendJSON writes the counters as encoding/json writes the struct: every
// exported field but the two maps, under its Go name.
func (s *TrafficStats) appendJSON(b []byte) []byte {
	b = append(b, '{')
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{"ISOTPSingle", s.ISOTPSingle}, {"ISOTPFirst", s.ISOTPFirst},
		{"ISOTPConsecutive", s.ISOTPConsecutive}, {"ISOTPFlowControl", s.ISOTPFlowControl},
		{"VWTPWaiting", s.VWTPWaiting}, {"VWTPLast", s.VWTPLast}, {"VWTPControl", s.VWTPControl},
		{"Total", s.Total}, {"AssemblyErrors", s.AssemblyErrors}, {"ISOTPErrors", s.ISOTPErrors},
		{"VWTPErrors", s.VWTPErrors}, {"BMWErrors", s.BMWErrors},
	} {
		b = appendIntField(b, f.name, f.v, false)
	}
	return append(b, '}')
}

// appendField starts the object member name: a comma first unless the
// object is still empty (no value ends in '{').
func appendField(b []byte, name string) []byte {
	if b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	b = append(b, '"')
	b = append(b, name...)
	return append(b, '"', ':')
}

// appendStringField appends member name with string value v, unless v is
// empty.
func appendStringField(b []byte, name, v string) []byte {
	if v == "" {
		return b
	}
	return appendString(appendField(b, name), v)
}

// appendIntField appends member name with value v, unless omitZero is set
// and v is zero.
func appendIntField(b []byte, name string, v int, omitZero bool) []byte {
	if omitZero && v == 0 {
		return b
	}
	return strconv.AppendInt(appendField(b, name), int64(v), 10)
}

func appendBoolField(b []byte, name string, v bool) []byte {
	return strconv.AppendBool(appendField(b, name), v)
}

// appendHexField appends member name with v as a string of at least
// width upper-case hex digits, as fmt's %0<width>X renders it.
func appendHexField(b []byte, name string, v uint64, width int) []byte {
	b = append(appendField(b, name), '"')
	return append(appendHex(b, v, width), '"')
}

// appendHex appends v in at least width upper-case hex digits.
func appendHex(b []byte, v uint64, width int) []byte {
	var buf [16]byte
	i := len(buf)
	for {
		i--
		buf[i] = "0123456789ABCDEF"[v&0xF]
		v >>= 4
		if v == 0 && len(buf)-i >= width {
			return append(b, buf[i:]...)
		}
	}
}

// appendFloat formats f as encoding/json does: the shortest decimal that
// reads back as f, in exponent form below 1e-6 and from 1e21 on, with
// no leading zero in a negative exponent. f must be finite.
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string. Printable ASCII without
// quotes, backslashes or HTML characters, which is nearly all the text a
// result holds, is copied as it is; any other string is escaped by
// encoding/json itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
