package canbridge

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dpreverser/internal/can"
)

// recordingSink collects everything one ingest session delivers.
type recordingSink struct {
	mu       sync.Mutex
	frames   []can.Frame
	advanced time.Duration
	closed   chan bool // receives the complete flag exactly once
}

func newRecordingSink() *recordingSink {
	return &recordingSink{closed: make(chan bool, 1)}
}

func (s *recordingSink) Frame(f can.Frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frames = append(s.frames, f)
	return nil
}

func (s *recordingSink) Advance(d time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanced += d
	return nil
}

func (s *recordingSink) Close(complete bool) { s.closed <- complete }

func (s *recordingSink) snapshot() []can.Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]can.Frame(nil), s.frames...)
}

func startIngest(t *testing.T, open func(string) (IngestSink, error)) (*IngestServer, string) {
	t.Helper()
	srv := NewIngestServerLimited(open, IngestLimits{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func waitClosed(t *testing.T, sink *recordingSink) bool {
	t.Helper()
	select {
	case complete := <-sink.closed:
		return complete
	case <-time.After(5 * time.Second):
		t.Fatal("sink never closed")
		return false
	}
}

func TestIngestSessionStampsAndFinalises(t *testing.T) {
	sink := newRecordingSink()
	_, addr := startIngest(t, func(token string) (IngestSink, error) {
		if token != "tok-1" {
			return nil, fmt.Errorf("no such token %q", token)
		}
		return sink, nil
	})

	c, err := DialStream(addr, "tok-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(can.MustFrame(0x7E0, []byte{0x01})); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(250 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(can.MustFrame(0x7E8, []byte{0x02})); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	if complete := waitClosed(t, sink); !complete {
		t.Fatal("clean EOF reported as incomplete")
	}
	frames := sink.snapshot()
	if len(frames) != 2 {
		t.Fatalf("got %d frames, want 2", len(frames))
	}
	if frames[0].Timestamp != 0 {
		t.Fatalf("first frame at %v, want 0", frames[0].Timestamp)
	}
	if frames[1].Timestamp != 250*time.Millisecond {
		t.Fatalf("second frame at %v, want 250ms", frames[1].Timestamp)
	}
}

func TestIngestRejectsUnknownToken(t *testing.T) {
	_, addr := startIngest(t, func(token string) (IngestSink, error) {
		return nil, fmt.Errorf("no such token %q", token)
	})
	_, err := DialStream(addr, "bogus")
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ServerError", err)
	}
}

func TestIngestServerCloseTruncatesSessions(t *testing.T) {
	sink := newRecordingSink()
	srv, addr := startIngest(t, func(string) (IngestSink, error) { return sink, nil })

	c, err := DialStream(addr, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(can.MustFrame(0x100, []byte{0xAA})); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if complete := waitClosed(t, sink); complete {
		t.Fatal("server shutdown reported as a complete stream")
	}
}

func TestIngestRejectsStreamCommandsBeforeHello(t *testing.T) {
	_, addr := startIngest(t, func(string) (IngestSink, error) {
		t.Fatal("open called without a HELLO")
		return nil, nil
	})
	// Speak the raw protocol: skip the HELLO and SEND immediately.
	c := dial(t, addr)
	c.send(t, "SEND 123#00")
	line := c.readLine(t)
	if got, _ := Parse(line); got == nil {
		t.Fatalf("unparsable reply %q", line)
	} else if _, isErr := got.(MsgErr); !isErr {
		t.Fatalf("reply to early SEND = %q, want ERR", line)
	}
}
