package can

import (
	"fmt"
	"strings"
	"sync"
)

// Sniffer is the OBD-port capture tap: it records every frame on the bus
// with its virtual timestamp, exactly like the paper's "sniff the CAN
// frames exchanged between the diagnostic tool and the vehicle" step
// (§3.1). Captures feed the diagnostic-frames-analysis module.
type Sniffer struct {
	mu     sync.Mutex
	frames []Frame
	filter func(Frame) bool
	stop   func()
}

// NewSniffer attaches a capture tap to the bus. filter may be nil to
// capture everything; otherwise only frames for which filter returns true
// are recorded.
func NewSniffer(bus *Bus, filter func(Frame) bool) *Sniffer {
	s := &Sniffer{filter: filter}
	s.stop = bus.Subscribe(func(f Frame) {
		// filter is immutable after construction, so it runs outside the
		// lock: a filter that reads back into the sniffer (s.Len, s.Frames)
		// must not deadlock against the capture path.
		if s.filter != nil && !s.filter(f) {
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		s.frames = append(s.frames, f)
	})
	return s
}

// Close detaches the sniffer from the bus. The capture remains readable.
func (s *Sniffer) Close() {
	if s.stop != nil {
		s.stop()
		s.stop = nil
	}
}

// Frames returns a copy of the capture so far, in bus order.
func (s *Sniffer) Frames() []Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Frame, len(s.frames))
	copy(out, s.frames)
	return out
}

// Len reports the number of captured frames.
func (s *Sniffer) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames)
}

// Reset discards the capture buffer, keeping the tap attached.
func (s *Sniffer) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frames = nil
}

// Dump renders a capture as a candump-style log, one frame per line with
// timestamps, for debugging and example output.
func Dump(frames []Frame) string {
	var b strings.Builder
	for _, f := range frames {
		fmt.Fprintf(&b, "(%012.6f) %s\n", f.Timestamp.Seconds(), f.String())
	}
	return b.String()
}
