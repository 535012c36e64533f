package rig

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode"
	"unicode/utf8"

	"dpreverser/internal/can"
	"dpreverser/internal/ocr"
)

// The capture decoder reads the v1 envelope Save writes in one pass over
// the bytes, straight into the capture's structs: no reflection, no token
// stream, no separate validation scan. It accepts exactly the documents
// json.NewDecoder(r).Decode(&captureEnvelope{}) accepts and produces
// reflect.DeepEqual values, which FuzzReadCapture checks against
// encoding/json. The rules it copies from encoding/json:
//
//   - a key matches a field's name exactly, else under encoding/json's
//     case folding (foldMatch);
//   - unknown keys are skipped, their values still checked for syntax;
//   - null leaves a value as it was, except that it sets a slice to nil;
//   - arrays decode element by element over a slice's existing elements
//     (so a repeated key merges into what the first one decoded), a longer
//     slice is truncated, and [] gives an empty, non-nil slice;
//   - Data takes at most 8 elements (the rest are checked and dropped) and
//     zeroes the bytes a shorter array leaves out;
//   - integers must be in range for their field and carry no fraction or
//     exponent; any type mismatch is an error;
//   - nesting deeper than 10000 containers is an error;
//   - bytes after the envelope are ignored, though ReadCapture reads them
//     with the rest of the body.
//
// Frame and text objects laid out exactly as Save writes them are read by
// a straight pass (straightFrame, straightText) that gives way to the
// general member loop at the first byte it does not expect.
//
// The field lists below must name every exported field of the decoded
// structs; TestReadCaptureMatchesOracleOnFleet fails when one goes
// missing.

// maxNestingDepth is encoding/json's container nesting limit.
const maxNestingDepth = 10000

// internMaxLen bounds the strings kept in a decode's intern table. Labels,
// units, screen names, titles and click texts repeat thousands of times
// per capture; long strings rarely do.
const internMaxLen = 64

// fields lists a struct's JSON member names.
type fields []string

var (
	envelopeFields = fields{"version", "capture"}
	captureFields  = fields{"Car", "Model", "ToolName", "Protocol", "Frames", "UIFrames", "Clicks"}
	frameFields    = fields{"ID", "Extended", "Data", "Len", "Timestamp"}
	uiFrameFields  = fields{"At", "ScreenName", "Title", "Texts"}
	textFields     = fields{"Content", "X", "Y", "W", "H"}
	clickFields    = fields{"At", "X", "Y", "Text", "Hit"}
)

// match returns the member name key selects, or "" for an unknown key.
// Save writes members in declaration order, so the n-th key of an object
// is tried against the n-th name first.
func (fs fields) match(key []byte, n int) string {
	if n < len(fs) && string(key) == fs[n] {
		return fs[n]
	}
	for _, name := range fs {
		if string(key) == name {
			return name
		}
	}
	for _, name := range fs {
		if foldMatch(key, name) {
			return name
		}
	}
	return ""
}

// foldMatch reports whether key and the ASCII name fold to the same bytes
// under encoding/json's foldName: ASCII letters fold to upper case, other
// runes to the smallest rune of their case-folding orbit, so "id" selects
// ID and a Kelvin sign folds to K.
func foldMatch(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		r, n := rune(key[i]), 1
		if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		} else if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(key[i:])
			r = foldRune(r)
		}
		i += n
		if j >= len(name) {
			return false
		}
		c := name[j]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if r != rune(c) {
			return false
		}
	}
	return j == len(name)
}

// foldRune returns the smallest rune of r's case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// decoder is one decode's cursor over the body. ReadCapture reuses its
// buffers from decode to decode (capture_io.go).
type decoder struct {
	data  []byte
	pos   int
	depth int
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
	d.data, d.pos, d.depth = nil, 0, 0
	clear(d.uiFrames[:cap(d.uiFrames)])
	clear(d.texts[:cap(d.texts)])
	clear(d.clicks[:cap(d.clicks)])
	clear(d.strs)
}

// envelope decodes the envelope at the start of data.
func (d *decoder) envelope(data []byte) (captureEnvelope, error) {
	d.data = data
	var env captureEnvelope
	if ok, err := d.beginObject(); !ok || err != nil {
		return env, err
	}
	for n := 0; ; n++ {
		key, ok, err := d.key(n == 0)
		if err != nil || !ok {
			return env, err
		}
		switch envelopeFields.match(key, n) {
		case "version":
			err = d.intField(&env.Version)
		case "capture":
			err = d.capture(&env.Capture)
		default:
			err = d.skip()
		}
		if err != nil {
			return env, err
		}
	}
}

func (d *decoder) capture(c *Capture) error {
	if ok, err := d.beginObject(); !ok || err != nil {
		return err
	}
	for n := 0; ; n++ {
		key, ok, err := d.key(n == 0)
		if err != nil || !ok {
			return err
		}
		switch captureFields.match(key, n) {
		case "Car":
			err = d.stringField(&c.Car)
		case "Model":
			err = d.stringField(&c.Model)
		case "ToolName":
			err = d.stringField(&c.ToolName)
		case "Protocol":
			err = d.intField((*int)(&c.Protocol))
		case "Frames":
			err = decodeArray(d, &c.Frames, &d.frames, (*decoder).frame)
		case "UIFrames":
			err = decodeArray(d, &c.UIFrames, &d.uiFrames, (*decoder).uiFrame)
		case "Clicks":
			err = decodeArray(d, &c.Clicks, &d.clicks, (*decoder).click)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// decodeArray decodes an array into *dst the way encoding/json decodes
// into a slice: null sets nil, [] gives an empty non-nil slice, and
// otherwise the slice ends up as long as the array. Into a slice without
// capacity, the usual case, the elements are built in buf and copied out
// at their exact length. A slice that has capacity (a repeated key) is
// decoded over in place, as encoding/json does: element i merges into the
// existing element i, and elements a shorter array truncated reappear when
// a later one grows.
//
//dplint:hotpath capture-decode
func decodeArray[T any](d *decoder, dst, buf *[]T, elem func(*decoder, *T) error) error {
	c := d.next()
	if c == 'n' {
		*dst = nil
		return d.literal("null")
	}
	if err := d.open(c, '['); err != nil {
		return err
	}
	s, i := *dst, 0
	fresh := cap(s) == 0
	if fresh {
		s = (*buf)[:0]
	}
	for first := true; ; first = false {
		more, err := d.elem(first)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		switch {
		case i < len(s):
		case i < cap(s) && !fresh:
			s = s[:i+1]
		default:
			s = append(s, *new(T))
		}
		if err := elem(d, &s[i]); err != nil {
			return err
		}
		i++
	}
	if fresh {
		out := make([]T, i)
		copy(out, s)
		*buf = s[:0]
		*dst = out
		return nil
	}
	if i == 0 {
		s = []T{}
	}
	*dst = s[:i]
	return nil
}

//dplint:hotpath capture-decode
func (d *decoder) frame(f *can.Frame) error {
	if d.straightFrame(f) {
		return nil
	}
	if ok, err := d.beginObject(); !ok || err != nil {
		return err
	}
	for n := 0; ; n++ {
		key, ok, err := d.key(n == 0)
		if err != nil || !ok {
			return err
		}
		switch frameFields.match(key, n) {
		case "ID":
			err = d.uint32Field(&f.ID)
		case "Extended":
			err = d.boolField(&f.Extended)
		case "Data":
			err = d.frameData(&f.Data)
		case "Len":
			err = d.intField(&f.Len)
		case "Timestamp":
			err = d.int64Field((*int64)(&f.Timestamp))
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// frameData decodes a frame's fixed-size payload array.
//
//dplint:hotpath capture-decode
func (d *decoder) frameData(dst *[can.MaxDataLen]byte) error {
	c := d.next()
	if c == 'n' {
		return d.literal("null")
	}
	if err := d.open(c, '['); err != nil {
		return err
	}
	i := 0
	for first := true; ; first = false {
		more, err := d.elem(first)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if i < len(dst) {
			err = d.uint8Field(&dst[i])
		} else {
			err = d.skip()
		}
		if err != nil {
			return err
		}
		i++
	}
	for ; i < len(dst); i++ {
		dst[i] = 0
	}
	return nil
}

//dplint:hotpath capture-decode
func (d *decoder) uiFrame(f *ocr.Frame) error {
	if ok, err := d.beginObject(); !ok || err != nil {
		return err
	}
	for n := 0; ; n++ {
		key, ok, err := d.key(n == 0)
		if err != nil || !ok {
			return err
		}
		switch uiFrameFields.match(key, n) {
		case "At":
			err = d.int64Field((*int64)(&f.At))
		case "ScreenName":
			err = d.stringField(&f.ScreenName)
		case "Title":
			err = d.stringField(&f.Title)
		case "Texts":
			err = decodeArray(d, &f.Texts, &d.texts, (*decoder).text)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

//dplint:hotpath capture-decode
func (d *decoder) text(t *ocr.Text) error {
	if d.straightText(t) {
		return nil
	}
	if ok, err := d.beginObject(); !ok || err != nil {
		return err
	}
	for n := 0; ; n++ {
		key, ok, err := d.key(n == 0)
		if err != nil || !ok {
			return err
		}
		switch textFields.match(key, n) {
		case "Content":
			err = d.stringField(&t.Content)
		case "X":
			err = d.intField(&t.X)
		case "Y":
			err = d.intField(&t.Y)
		case "W":
			err = d.intField(&t.W)
		case "H":
			err = d.intField(&t.H)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

//dplint:hotpath capture-decode
func (d *decoder) click(c *ClickEvent) error {
	if ok, err := d.beginObject(); !ok || err != nil {
		return err
	}
	for n := 0; ; n++ {
		key, ok, err := d.key(n == 0)
		if err != nil || !ok {
			return err
		}
		switch clickFields.match(key, n) {
		case "At":
			err = d.int64Field((*int64)(&c.At))
		case "X":
			err = d.intField(&c.X)
		case "Y":
			err = d.intField(&c.Y)
		case "Text":
			err = d.stringField(&c.Text)
		case "Hit":
			err = d.boolField(&c.Hit)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// straightFrame reads the frame object at the cursor in one pass when it
// is exactly as Save writes it: its members in declaration order, no
// whitespace, eight Data values and plain non-negative integers in range.
// At the first deviation it reports false with the cursor and f as they
// were, and frame's member loop reads the object instead.
//
//dplint:hotpath capture-decode
func (d *decoder) straightFrame(f *can.Frame) bool {
	s := straight{b: d.data, i: d.pos, ok: true}
	s.lit(`{"ID":`)
	id := s.uint(math.MaxUint32)
	s.lit(`,"Extended":`)
	ext := s.bool()
	s.lit(`,"Data":[`)
	var data [can.MaxDataLen]byte
	for k := range data {
		if k > 0 {
			s.lit(",")
		}
		data[k] = byte(s.uint(math.MaxUint8))
	}
	s.lit(`],"Len":`)
	n := s.uint(math.MaxInt)
	s.lit(`,"Timestamp":`)
	ts := s.uint(math.MaxInt64)
	s.lit("}")
	if !s.ok {
		return false
	}
	*f = can.Frame{ID: uint32(id), Extended: ext, Data: data, Len: int(n), Timestamp: time.Duration(ts)}
	d.pos = s.i
	return true
}

// straightText is straightFrame for a text object, whose Content must
// also be printable ASCII without escapes.
//
//dplint:hotpath capture-decode
func (d *decoder) straightText(t *ocr.Text) bool {
	s := straight{b: d.data, i: d.pos, ok: true}
	s.lit(`{"Content":"`)
	start, end := s.i, s.i
	for s.ok && end < len(s.b) && plainByte[s.b[end]] {
		end++
	}
	s.i = end
	s.lit(`","X":`)
	x := s.uint(math.MaxInt)
	s.lit(`,"Y":`)
	y := s.uint(math.MaxInt)
	s.lit(`,"W":`)
	w := s.uint(math.MaxInt)
	s.lit(`,"H":`)
	h := s.uint(math.MaxInt)
	s.lit("}")
	if !s.ok {
		return false
	}
	*t = ocr.Text{Content: d.intern(d.data[start:end]), X: int(x), Y: int(y), W: int(w), H: int(h)}
	d.pos = s.i
	return true
}

// straight is the cursor of straightFrame and straightText. Once a read
// fails, ok stays false and later reads do nothing.
type straight struct {
	b  []byte
	i  int
	ok bool
}

// lit consumes want.
func (s *straight) lit(want string) {
	if s.ok && len(s.b)-s.i >= len(want) && string(s.b[s.i:s.i+len(want)]) == want {
		s.i += len(want)
		return
	}
	s.ok = false
}

// bool consumes true or false.
func (s *straight) bool() bool {
	if s.ok && s.i < len(s.b) && s.b[s.i] == 't' {
		s.lit("true")
		return true
	}
	s.lit("false")
	return false
}

// uint consumes a plain non-negative integer of at most limit: no sign,
// no leading zero, at most 19 digits (so the loop cannot overflow). The
// literal that follows rules out a fraction or an exponent.
func (s *straight) uint(limit uint64) uint64 {
	if !s.ok {
		return 0
	}
	b, start := s.b, s.i
	i, n := start, uint64(0)
	for ; i < len(b) && isDigit(b[i]); i++ {
		n = n*10 + uint64(b[i]-'0')
	}
	s.i = i
	if digits := i - start; digits == 0 || digits > 19 || digits > 1 && b[start] == '0' || n > limit {
		s.ok = false
	}
	return n
}

// next skips whitespace and returns the byte at the cursor, or 0 at the
// end of the input.
func (d *decoder) next() byte {
	for ; d.pos < len(d.data); d.pos++ {
		if c := d.data[d.pos]; c > ' ' || !isSpace(c) {
			return c
		}
	}
	return 0
}

// open consumes the opening bracket of a container (c is the byte at the
// cursor).
func (d *decoder) open(c, bracket byte) error {
	if c != bracket {
		want := "object"
		if bracket == '[' {
			want = "array"
		}
		return d.mismatch(c, want)
	}
	d.pos++
	d.depth++
	if d.depth > maxNestingDepth {
		return d.errorf("exceeded max depth")
	}
	return nil
}

// beginObject consumes the opening brace of an object. It reports false
// for null, which leaves the destination as it was.
func (d *decoder) beginObject() (bool, error) {
	c := d.next()
	if c == 'n' {
		return false, d.literal("null")
	}
	return true, d.open(c, '{')
}

// key reads the next member's key and its colon; first says whether this
// is the object's first member. At the closing brace it reports false.
//
//dplint:hotpath capture-decode
func (d *decoder) key(first bool) ([]byte, bool, error) {
	c := d.next()
	switch {
	case c == '}':
		d.pos++
		d.depth--
		return nil, false, nil
	case !first && c == ',':
		d.pos++
		c = d.next()
	case !first:
		return nil, false, d.syntaxError("after object member")
	}
	if c != '"' {
		return nil, false, d.syntaxError("looking for object key")
	}
	start := d.pos
	key, plain, err := d.str()
	if err != nil {
		return nil, false, err
	}
	if !plain {
		s, err := d.unquote(start)
		if err != nil {
			return nil, false, err
		}
		key = []byte(s)
	}
	if d.next() != ':' {
		return nil, false, d.syntaxError("after object key")
	}
	d.pos++
	return key, true, nil
}

// elem advances to the next array element; first says whether it is the
// array's first. At the closing bracket it reports false.
//
//dplint:hotpath capture-decode
func (d *decoder) elem(first bool) (bool, error) {
	switch c := d.next(); {
	case c == ']':
		d.pos++
		d.depth--
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.pos++
		return true, nil
	default:
		return false, d.syntaxError("after array element")
	}
}

// str scans the string token at the cursor and returns its raw contents.
// plain reports that they need no unquoting: no escapes, valid UTF-8.
//
//dplint:hotpath capture-decode
func (d *decoder) str() (raw []byte, plain bool, err error) {
	start := d.pos + 1
	plain = true
	ascii := true
	for i := start; i < len(d.data); {
		c := d.data[i]
		if plainByte[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			raw = d.data[start:i]
			d.pos = i + 1
			if !ascii && plain {
				plain = utf8.Valid(raw)
			}
			return raw, plain, nil
		case c == '\\':
			plain = false
			n := escapeLen(d.data[i:])
			if n == 0 {
				d.pos = min(i+1, len(d.data))
				return nil, false, d.syntaxError("in string escape code")
			}
			i += n
		case c < 0x20:
			d.pos = i
			return nil, false, d.syntaxError("in string literal")
		default:
			ascii = false
			i++
		}
	}
	d.pos = len(d.data)
	return nil, false, d.syntaxError("in string literal")
}

// unquote decodes the escaped or non-UTF-8 string token that starts at
// start and ends at the cursor. encoding/json does it, so escapes,
// surrogate pairs and invalid bytes mean exactly what they mean there.
func (d *decoder) unquote(start int) (string, error) {
	var s string
	if err := json.Unmarshal(d.data[start:d.pos], &s); err != nil {
		return "", err
	}
	return s, nil
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

// number scans the number token at the cursor.
//
//dplint:hotpath capture-decode
func (d *decoder) number() ([]byte, error) {
	start, i := d.pos, d.pos
	if i < len(d.data) && d.data[i] == '-' {
		i++
	}
	switch n := skipDigits(d.data, i); {
	case i < len(d.data) && d.data[i] == '0':
		i++
	case n == i:
		d.pos = i
		return nil, d.syntaxError("in numeric literal")
	default:
		i = n
	}
	if i < len(d.data) && d.data[i] == '.' {
		n := skipDigits(d.data, i+1)
		if n == i+1 {
			d.pos = n
			return nil, d.syntaxError("after decimal point in numeric literal")
		}
		i = n
	}
	if i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		n := skipDigits(d.data, i)
		if n == i {
			d.pos = n
			return nil, d.syntaxError("in exponent of numeric literal")
		}
		i = n
	}
	d.pos = i
	return d.data[start:i], nil
}

// skipDigits returns the index of the first non-digit in b at or after i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// literal consumes the keyword word (true, false or null) at the cursor.
func (d *decoder) literal(word string) error {
	for k := 0; k < len(word); k++ {
		if d.pos >= len(d.data) || d.data[d.pos] != word[k] {
			return d.syntaxError("in literal " + word)
		}
		d.pos++
	}
	return nil
}

// skip checks and discards one value of any type.
func (d *decoder) skip() error {
	switch c := d.next(); {
	case c == '{':
		if err := d.open(c, '{'); err != nil {
			return err
		}
		for first := true; ; first = false {
			_, ok, err := d.key(first)
			if err != nil || !ok {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '[':
		if err := d.open(c, '['); err != nil {
			return err
		}
		for first := true; ; first = false {
			more, err := d.elem(first)
			if err != nil || !more {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, _, err := d.str()
		return err
	case c == '-' || isDigit(c):
		_, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	default:
		return d.syntaxError("looking for beginning of value")
	}
}

// signed reads an integer of the given bit size, as strconv.ParseInt and
// reflect's overflow check accept it. ok is false for null.
//
//dplint:hotpath capture-decode
func (d *decoder) signed(bits int) (n int64, ok bool, err error) {
	c := d.next()
	if c == 'n' {
		return 0, false, d.literal("null")
	}
	if c != '-' && !isDigit(c) {
		return 0, false, d.mismatch(c, "integer")
	}
	num, neg, mag, plain, err := d.integer()
	if err != nil {
		return 0, false, err
	}
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	if !plain || mag > limit {
		return 0, false, d.rangeError(num, "signed", bits)
	}
	if neg {
		return int64(-mag), true, nil
	}
	return int64(mag), true, nil
}

// unsigned reads an unsigned integer of the given bit size, as
// strconv.ParseUint and reflect's overflow check accept it: no sign, not
// even "-0". ok is false for null.
//
//dplint:hotpath capture-decode
func (d *decoder) unsigned(bits int) (n uint64, ok bool, err error) {
	c := d.next()
	if c == 'n' {
		return 0, false, d.literal("null")
	}
	if c != '-' && !isDigit(c) {
		return 0, false, d.mismatch(c, "integer")
	}
	num, neg, mag, plain, err := d.integer()
	if err != nil {
		return 0, false, err
	}
	if !plain || neg || mag > math.MaxUint64>>(64-bits) {
		return 0, false, d.rangeError(num, "unsigned", bits)
	}
	return mag, true, nil
}

// integer scans the number token at the cursor and parses it in the same
// pass. plain reports an integer (no fraction or exponent) of at most 19
// digits: enough for every field, since the widest limit is 2^63, and
// too few to overflow mag.
//
//dplint:hotpath capture-decode
func (d *decoder) integer() (num []byte, neg bool, mag uint64, plain bool, err error) {
	start, i := d.pos, d.pos
	if d.data[i] == '-' {
		neg = true
		i++
	}
	first := i
	for ; i < len(d.data) && isDigit(d.data[i]); i++ {
		mag = mag*10 + uint64(d.data[i]-'0')
	}
	if i == first || i > first+1 && d.data[first] == '0' ||
		i < len(d.data) && (d.data[i] == '.' || d.data[i] == 'e' || d.data[i] == 'E') {
		// Not a plain integer: number checks the token's syntax.
		d.pos = start
		num, err = d.number()
		return num, neg, 0, false, err
	}
	d.pos = i
	return d.data[start:i], neg, mag, i-first <= 19, nil
}

//dplint:hotpath capture-decode
func (d *decoder) intField(dst *int) error {
	n, ok, err := d.signed(strconv.IntSize)
	if ok {
		*dst = int(n)
	}
	return err
}

//dplint:hotpath capture-decode
func (d *decoder) int64Field(dst *int64) error {
	n, ok, err := d.signed(64)
	if ok {
		*dst = n
	}
	return err
}

//dplint:hotpath capture-decode
func (d *decoder) uint32Field(dst *uint32) error {
	n, ok, err := d.unsigned(32)
	if ok {
		*dst = uint32(n)
	}
	return err
}

//dplint:hotpath capture-decode
func (d *decoder) uint8Field(dst *uint8) error {
	n, ok, err := d.unsigned(8)
	if ok {
		*dst = uint8(n)
	}
	return err
}

//dplint:hotpath capture-decode
func (d *decoder) boolField(dst *bool) error {
	switch c := d.next(); c {
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	default:
		return d.mismatch(c, "bool")
	}
}

//dplint:hotpath capture-decode
func (d *decoder) stringField(dst *string) error {
	switch c := d.next(); c {
	case '"':
	case 'n':
		return d.literal("null")
	default:
		return d.mismatch(c, "string")
	}
	start := d.pos
	raw, plain, err := d.str()
	if err != nil {
		return err
	}
	if !plain {
		s, err := d.unquote(start)
		if err != nil {
			return err
		}
		*dst = s
		return nil
	}
	*dst = d.intern(raw)
	return nil
}

// mismatch reports the value at the cursor (starting with c) as the wrong
// type for want, or as a syntax error when no value starts there.
func (d *decoder) mismatch(c byte, want string) error {
	var got string
	switch {
	case c == '{':
		got = "object"
	case c == '[':
		got = "array"
	case c == '"':
		got = "string"
	case c == '-' || isDigit(c):
		got = "number"
	case c == 't' || c == 'f':
		got = "bool"
	default:
		return d.syntaxError("looking for beginning of value")
	}
	return d.errorf("cannot decode %s into %s", got, want)
}

// rangeError reports a number its field cannot hold. It stays out of
// line so the hot readers that call it keep their arguments unescaped.
//
//go:noinline
func (d *decoder) rangeError(num []byte, kind string, bits int) error {
	return d.errorf("cannot decode number %s into a %d-bit %s field", num, bits, kind)
}

// syntaxError reports the byte at the cursor (or the end of the input)
// as invalid in the given context.
func (d *decoder) syntaxError(context string) error {
	if d.pos >= len(d.data) {
		return d.errorf("unexpected end of input")
	}
	return d.errorf("invalid character %q %s", d.data[d.pos], context)
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("%s at offset %d", fmt.Sprintf(format, args...), d.pos)
}

// plainByte marks the bytes a string token can hold as they are: ASCII
// other than control characters, the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// escapeLen returns the length of the escape sequence b starts with (a
// backslash and its code), or 0 when it is malformed or cut short.
func escapeLen(b []byte) int {
	if len(b) < 2 {
		return 0
	}
	switch b[1] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return 2
	case 'u':
		if len(b) < 6 {
			return 0
		}
		for _, c := range b[2:6] {
			if !isDigit(c) && !('a' <= c && c <= 'f') && !('A' <= c && c <= 'F') {
				return 0
			}
		}
		return 6
	}
	return 0
}
