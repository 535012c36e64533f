package rig

import (
	"encoding/json"
	"math"
	"time"
	"unicode/utf8"

	"dpreverser/internal/can"
	"dpreverser/internal/ocr"
	"dpreverser/internal/vehicle"
)

// The capture decoder reads the v1 envelope laid out exactly as Save
// writes it, in one pass over the bytes and straight into the capture's
// structs: no reflection, no token stream, no separate validation scan.
// "Exactly" means:
//
//   - every key and every brace, bracket, colon and comma is the constant
//     Save writes, members in declaration order, with no whitespace;
//   - an integer is an optional minus sign (not for ID or Data) and a
//     plain integer: no leading zero, at most 19 digits, and in range for
//     its field; Data holds exactly 8 values;
//   - a string holds no control byte and is valid UTF-8, or it holds a
//     backslash and json.Unmarshal unquotes that one token;
//   - an array of elements is [...], empty [] or null.
//
// Bytes after the envelope are ignored, as json.Decoder ignores them. At
// the first byte Save would not have written, envelope reports false and
// ReadCapture decodes the whole body with encoding/json instead (hand-
// edited files, re-indented ones, the legacy Rows and Corrupted members).
// On what the pass accepts it produces the values encoding/json would,
// which FuzzReadCapture checks.

// internMaxLen bounds the strings kept in a decode's intern table. Labels,
// units, screen names, titles and click texts repeat thousands of times
// per capture; long strings rarely do.
const internMaxLen = 64

// decoder is one decode's cursor over the body. ReadCapture reuses its
// buffers from decode to decode (capture_io.go).
type decoder struct {
	data []byte
	pos  int
	// ok turns false at the first byte the pass does not expect; every
	// read after that does nothing.
	ok bool
	// Arrays are built in these buffers and copied out at their exact
	// length, so the capture carries no growth slack and the many short
	// Texts arrays of a capture grow one buffer between them.
	frames   []can.Frame
	uiFrames []ocr.Frame
	texts    []ocr.Text
	clicks   []ClickEvent
	// strs interns short strings for the length of one decode.
	strs map[string]string
}

// newDecoder returns a decoder with an empty intern table.
func newDecoder() *decoder { return &decoder{strs: make(map[string]string, 256)} }

// reset drops the last decode's body and every string and slice its
// buffers still reference, keeping their memory for the next decode.
func (d *decoder) reset() {
	d.data, d.pos = nil, 0
	clear(d.uiFrames[:cap(d.uiFrames)])
	clear(d.texts[:cap(d.texts)])
	clear(d.clicks[:cap(d.clicks)])
	clear(d.strs)
}

// envelope decodes the envelope at the start of data. It reports false
// when data is not laid out as Save writes it.
func (d *decoder) envelope(data []byte) (captureEnvelope, bool) {
	d.data, d.pos, d.ok = data, 0, true
	var env captureEnvelope
	d.lit(`{"version":`)
	env.Version = int(d.int(math.MaxInt))
	d.lit(`,"capture":{"Car":`)
	c := &env.Capture
	c.Car = d.str()
	d.lit(`,"Model":`)
	c.Model = d.str()
	d.lit(`,"ToolName":`)
	c.ToolName = d.str()
	d.lit(`,"Protocol":`)
	c.Protocol = vehicle.Protocol(d.int(math.MaxInt))
	d.lit(`,"Frames":`)
	c.Frames = array(d, &d.frames, (*decoder).frame)
	d.lit(`,"UIFrames":`)
	c.UIFrames = array(d, &d.uiFrames, (*decoder).uiFrame)
	d.lit(`,"Clicks":`)
	c.Clicks = array(d, &d.clicks, (*decoder).click)
	d.lit("}}")
	return env, d.ok
}

// array reads null, which gives a nil slice, or an array of elements that
// elem reads. The elements are built in buf and copied out at their exact
// length, so [] gives an empty, non-nil slice.
//
//dplint:hotpath capture-decode
func array[T any](d *decoder, buf *[]T, elem func(*decoder, *T)) []T {
	if d.peek('n') {
		d.lit("null")
		return nil
	}
	d.lit("[")
	s := (*buf)[:0]
	if d.peek(']') {
		d.pos++
	} else {
		for d.ok {
			s = append(s, *new(T))
			elem(d, &s[len(s)-1])
			if !d.peek(',') {
				d.lit("]")
				break
			}
			d.pos++
		}
	}
	*buf = s[:0]
	if !d.ok {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

//dplint:hotpath capture-decode
func (d *decoder) frame(f *can.Frame) {
	d.lit(`{"ID":`)
	f.ID = uint32(d.uint(math.MaxUint32))
	d.lit(`,"Extended":`)
	f.Extended = d.bool()
	d.lit(`,"Data":[`)
	for k := range f.Data {
		if k > 0 {
			d.lit(",")
		}
		f.Data[k] = byte(d.uint(math.MaxUint8))
	}
	d.lit(`],"Len":`)
	f.Len = int(d.int(math.MaxInt))
	d.lit(`,"Timestamp":`)
	f.Timestamp = time.Duration(d.int(math.MaxInt64))
	d.lit("}")
}

//dplint:hotpath capture-decode
func (d *decoder) uiFrame(f *ocr.Frame) {
	d.lit(`{"At":`)
	f.At = time.Duration(d.int(math.MaxInt64))
	d.lit(`,"ScreenName":`)
	f.ScreenName = d.str()
	d.lit(`,"Title":`)
	f.Title = d.str()
	d.lit(`,"Texts":`)
	f.Texts = array(d, &d.texts, (*decoder).text)
	d.lit("}")
}

//dplint:hotpath capture-decode
func (d *decoder) text(t *ocr.Text) {
	d.lit(`{"Content":`)
	t.Content = d.str()
	d.lit(`,"X":`)
	t.X = int(d.int(math.MaxInt))
	d.lit(`,"Y":`)
	t.Y = int(d.int(math.MaxInt))
	d.lit(`,"W":`)
	t.W = int(d.int(math.MaxInt))
	d.lit(`,"H":`)
	t.H = int(d.int(math.MaxInt))
	d.lit("}")
}

//dplint:hotpath capture-decode
func (d *decoder) click(c *ClickEvent) {
	d.lit(`{"At":`)
	c.At = time.Duration(d.int(math.MaxInt64))
	d.lit(`,"X":`)
	c.X = int(d.int(math.MaxInt))
	d.lit(`,"Y":`)
	c.Y = int(d.int(math.MaxInt))
	d.lit(`,"Text":`)
	c.Text = d.str()
	d.lit(`,"Hit":`)
	c.Hit = d.bool()
	d.lit("}")
}

// peek reports whether the byte at the cursor is c.
func (d *decoder) peek(c byte) bool {
	return d.ok && d.pos < len(d.data) && d.data[d.pos] == c
}

// lit consumes want.
func (d *decoder) lit(want string) {
	if d.ok && len(d.data)-d.pos >= len(want) && string(d.data[d.pos:d.pos+len(want)]) == want {
		d.pos += len(want)
		return
	}
	d.ok = false
}

// bool consumes true or false.
func (d *decoder) bool() bool {
	if d.peek('t') {
		d.lit("true")
		return true
	}
	d.lit("false")
	return false
}

// uint consumes a plain non-negative integer of at most limit: no sign,
// no leading zero, at most 19 digits (so the loop cannot overflow). The
// literal that follows rules out a fraction or an exponent.
func (d *decoder) uint(limit uint64) uint64 {
	if !d.ok {
		return 0
	}
	b, start := d.data, d.pos
	i, n := start, uint64(0)
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		n = n*10 + uint64(b[i]-'0')
	}
	d.pos = i
	if digits := i - start; digits == 0 || digits > 19 || digits > 1 && b[start] == '0' || n > limit {
		d.ok = false
	}
	return n
}

// int consumes an optional minus sign and a plain integer of at most
// limit, or of at most limit+1 after the sign.
func (d *decoder) int(limit uint64) int64 {
	if d.peek('-') {
		d.pos++
		return int64(-d.uint(limit + 1))
	}
	return int64(d.uint(limit))
}

// str consumes a string token. Raw contents with no escape are interned
// as they are; a token that holds a backslash is unquoted by encoding/json.
// A control byte, invalid UTF-8 or a missing quote stops the pass.
//
//dplint:hotpath capture-decode
func (d *decoder) str() string {
	if !d.peek('"') {
		d.ok = false
		return ""
	}
	b, start := d.data, d.pos+1
	ascii, escaped := true, false
	i := start
	for ; i < len(b) && b[i] != '"'; i++ {
		switch c := b[i]; {
		case c == '\\':
			escaped = true
			i++
		case c < 0x20:
			d.ok = false
			return ""
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	if i >= len(b) || !escaped && !ascii && !utf8.Valid(b[start:i]) {
		d.ok = false
		return ""
	}
	d.pos = i + 1
	if escaped {
		s, ok := unquote(b[start-1 : i+1])
		d.ok = ok
		return s
	}
	return d.intern(b[start:i])
}

// unquote decodes a string token that holds an escape. encoding/json does
// it, so escapes and surrogate pairs mean exactly what they mean there.
// It stays out of line: inlined, the string it decodes into would move to
// the heap inside str.
//
//go:noinline
func unquote(tok []byte) (string, bool) {
	var s string
	err := json.Unmarshal(tok, &s)
	return s, err == nil
}

// intern returns b as a string, sharing one copy per distinct short
// string within this decode.
//
//dplint:hotpath capture-decode
func (d *decoder) intern(b []byte) string {
	if len(b) > internMaxLen {
		return string(b)
	}
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}
