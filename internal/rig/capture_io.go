package rig

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
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

// ReadCapture deserialises a capture written by Save. The body is read
// whole, then decoded in one pass (capture_decode.go). Bytes after the
// envelope are read and ignored, and a read error after a complete
// envelope does not fail the decode.
func ReadCapture(r io.Reader) (Capture, error) {
	// bytes.Buffer doubles as it reads; io.ReadAll's append growth would
	// allocate several times the body on the way up.
	var body bytes.Buffer
	_, readErr := body.ReadFrom(r)
	env, err := decodeEnvelope(body.Bytes())
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
