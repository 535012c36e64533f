package rig

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
)

// captureFormatVersion guards against loading captures written by an
// incompatible build.
const captureFormatVersion = 1

// captureEnvelope wraps a Capture with a version stamp for persistence.
type captureEnvelope struct {
	Version int     `json:"version"`
	Capture Capture `json:"capture"`
}

// Save serialises the capture as JSON, so collection and analysis can
// run in different processes (the paper's workflow: capture in the garage,
// analyse at the desk).
func (c Capture) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(captureEnvelope{Version: captureFormatVersion, Capture: c}); err != nil {
		return fmt.Errorf("rig: encoding capture: %w", err)
	}
	return nil
}

// readScratch is one ReadCapture's working memory: the body and the
// decoder's buffers. ReadCapture reuses it, which is safe because nothing
// in a decoded Capture aliases it: intern and unquote copy strings,
// arrays are copied out at their exact length, and encoding/json copies
// what it decodes.
type readScratch struct {
	body bytes.Buffer
	dec  *decoder
}

// readFree is the free list of idle scratches, one per P at most. Unlike
// a sync.Pool, it hands a decode the scratch the last one left whatever P
// either runs on, and keeps it across collections, so a decode regrows
// its buffers only when more decodes overlap than ever did before.
var readFree = make(chan *readScratch, runtime.GOMAXPROCS(0))

// maxPooledBody keeps a scratch whose body grew past it off the free
// list, so one outsized upload does not stay resident.
const maxPooledBody = 16 << 20

// ReadCapture deserialises a capture written by Save. The body is read
// whole, then decoded in one pass when it is laid out as Save writes it
// (capture_decode.go), else by json.Unmarshal, in place. Bytes after the
// envelope are read and ignored, and a read error after a complete
// envelope does not fail the decode.
func ReadCapture(r io.Reader) (Capture, error) {
	sc := acquireScratch()
	defer sc.release()
	// bytes.Buffer doubles as it reads; io.ReadAll's append growth would
	// allocate several times the body on the way up.
	_, readErr := sc.body.ReadFrom(r)
	env, ok := sc.dec.envelope(sc.body.Bytes())
	var err error
	if !ok {
		// A fresh envelope, so that only this path moves one to the heap.
		var fresh captureEnvelope
		err = json.Unmarshal(sc.body.Bytes(), &fresh)
		// Unmarshal rejects bytes after the envelope, which json.Decoder
		// would ignore: when the bytes before the offending one (Offset
		// counts it) are a whole value, decode those alone. Unmarshal
		// checks its input before decoding, so fresh is still empty.
		var syn *json.SyntaxError
		if errors.As(err, &syn) && syn.Offset > 0 && json.Valid(sc.body.Bytes()[:syn.Offset-1]) {
			err = json.Unmarshal(sc.body.Bytes()[:syn.Offset-1], &fresh)
		}
		env = fresh
	}
	switch {
	case err != nil && readErr != nil:
		return Capture{}, fmt.Errorf("rig: reading capture: %w", readErr)
	case err != nil:
		return Capture{}, fmt.Errorf("rig: decoding capture: %w", err)
	}
	if env.Version != captureFormatVersion {
		return Capture{}, fmt.Errorf("rig: capture format version %d, want %d", env.Version, captureFormatVersion)
	}
	return env.Capture, nil
}

// acquireScratch takes an idle scratch off the free list, or makes one.
func acquireScratch() *readScratch {
	select {
	case sc := <-readFree:
		return sc
	default:
		return &readScratch{dec: newDecoder()}
	}
}

// release returns the scratch to the free list, emptied, unless its body
// outgrew maxPooledBody or the list is full.
func (sc *readScratch) release() {
	if sc.body.Cap() > maxPooledBody {
		return
	}
	sc.body.Reset()
	sc.dec.reset()
	select {
	case readFree <- sc:
	default:
	}
}

// SaveCaptureFile writes the capture to a file.
func SaveCaptureFile(c Capture, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("rig: creating capture file: %w", err)
	}
	defer f.Close()
	if err := c.Save(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("rig: closing capture file: %w", err)
	}
	return nil
}

// LoadCaptureFile reads a capture from a file.
func LoadCaptureFile(path string) (Capture, error) {
	f, err := os.Open(path)
	if err != nil {
		return Capture{}, fmt.Errorf("rig: opening capture file: %w", err)
	}
	defer f.Close()
	return ReadCapture(f)
}
