package can

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dpreverser/internal/sim"
)

func TestNewFrameValidation(t *testing.T) {
	cases := []struct {
		name    string
		id      uint32
		data    []byte
		ext     bool
		wantErr error
	}{
		{"ok std", 0x7DF, []byte{1, 2, 3}, false, nil},
		{"ok std max id", 0x7FF, nil, false, nil},
		{"std id too big", 0x800, nil, false, ErrBadID},
		{"ok ext", 0x18DB33F1, []byte{1}, true, nil},
		{"ext id too big", 0x20000000, nil, true, ErrBadID},
		{"ok 8 bytes", 0x100, make([]byte, 8), false, nil},
		{"9 bytes", 0x100, make([]byte, 9), false, ErrDataTooLong},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var err error
			if c.ext {
				_, err = NewExtendedFrame(c.id, c.data)
			} else {
				_, err = NewFrame(c.id, c.data)
			}
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("err = %v, want %v", err, c.wantErr)
			}
		})
	}
}

func TestFramePayloadAndString(t *testing.T) {
	f := MustFrame(0x123, []byte{0x01, 0x02, 0xAB})
	if got := f.String(); got != "123#0102AB" {
		t.Fatalf("String = %q", got)
	}
	p := f.Payload()
	if len(p) != 3 || p[2] != 0xAB {
		t.Fatalf("Payload = %v", p)
	}
	ext, _ := NewExtendedFrame(0x18DB33F1, []byte{0xFF})
	if got := ext.String(); got != "18DB33F1#FF" {
		t.Fatalf("ext String = %q", got)
	}
}

func TestMustFramePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFrame with bad ID did not panic")
		}
	}()
	MustFrame(0x1000, nil)
}

func TestBusDeliversToAllSubscribers(t *testing.T) {
	bus := NewBus(nil)
	var got1, got2 []Frame
	bus.Subscribe(func(f Frame) { got1 = append(got1, f) })
	bus.Subscribe(func(f Frame) { got2 = append(got2, f) })
	bus.Send(MustFrame(0x100, []byte{1}))
	if len(got1) != 1 || len(got2) != 1 {
		t.Fatalf("deliveries: %d, %d; want 1, 1", len(got1), len(got2))
	}
	st := bus.Stats()
	if st.FramesSent != 1 || st.Deliveries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBusUnsubscribe(t *testing.T) {
	bus := NewBus(nil)
	n := 0
	unsub := bus.Subscribe(func(Frame) { n++ })
	bus.Send(MustFrame(0x1, nil))
	unsub()
	bus.Send(MustFrame(0x1, nil))
	if n != 1 {
		t.Fatalf("handler ran %d times after unsubscribe, want 1", n)
	}
	unsub() // second call must be harmless
}

func TestBusTimestampsFromClock(t *testing.T) {
	clock := sim.NewClock(0)
	bus := NewBus(clock)
	var seen []time.Duration
	bus.Subscribe(func(f Frame) { seen = append(seen, f.Timestamp) })
	bus.Send(MustFrame(0x1, nil))
	clock.Advance(250 * time.Millisecond)
	bus.Send(MustFrame(0x1, nil))
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 250*time.Millisecond {
		t.Fatalf("timestamps = %v", seen)
	}
}

// A handler that replies from inside its callback (like an ECU) must have
// its reply delivered after the request, not nested within it.
func TestBusReentrantSendOrder(t *testing.T) {
	bus := NewBus(nil)
	var order []uint32
	bus.Subscribe(func(f Frame) {
		order = append(order, f.ID)
		if f.ID == 0x7E0 { // request triggers response
			bus.Send(MustFrame(0x7E8, []byte{0x50}))
		}
	})
	bus.Send(MustFrame(0x7E0, []byte{0x10}))
	if len(order) != 2 || order[0] != 0x7E0 || order[1] != 0x7E8 {
		t.Fatalf("delivery order = %#v", order)
	}
}

func TestBusArbitrationOrderWithinInstant(t *testing.T) {
	bus := NewBus(nil)
	var order []uint32
	first := true
	bus.Subscribe(func(f Frame) {
		order = append(order, f.ID)
		if first {
			first = false
			// Two replies race; the lower ID must be delivered first.
			bus.Send(MustFrame(0x300, nil))
			bus.Send(MustFrame(0x200, nil))
		}
	})
	bus.Send(MustFrame(0x100, nil))
	want := []uint32{0x100, 0x200, 0x300}
	for i, id := range want {
		if order[i] != id {
			t.Fatalf("arbitration order = %#v, want %#v", order, want)
		}
	}
}

func TestBusFIFOWithinSameID(t *testing.T) {
	bus := NewBus(nil)
	var payloads []byte
	first := true
	bus.Subscribe(func(f Frame) {
		if f.Len > 0 {
			payloads = append(payloads, f.Data[0])
		}
		if first {
			first = false
			bus.Send(MustFrame(0x200, []byte{1}))
			bus.Send(MustFrame(0x200, []byte{2}))
			bus.Send(MustFrame(0x200, []byte{3}))
		}
	})
	bus.Send(MustFrame(0x100, nil))
	if string(payloads) != "\x01\x02\x03" {
		t.Fatalf("same-ID FIFO violated: %v", payloads)
	}
}

func TestSnifferCaptureAndReset(t *testing.T) {
	bus := NewBus(nil)
	s := NewSniffer(bus, nil)
	bus.Send(MustFrame(0x1, []byte{1}))
	bus.Send(MustFrame(0x2, []byte{2}))
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("Len after Reset = %d", s.Len())
	}
	bus.Send(MustFrame(0x3, nil))
	if s.Len() != 1 {
		t.Fatalf("Len after resume = %d", s.Len())
	}
}

func TestSnifferClose(t *testing.T) {
	bus := NewBus(nil)
	s := NewSniffer(bus, nil)
	bus.Send(MustFrame(0x1, nil))
	s.Close()
	bus.Send(MustFrame(0x2, nil))
	if s.Len() != 1 {
		t.Fatalf("sniffer captured after Close: Len = %d", s.Len())
	}
	s.Close() // idempotent
}

func TestSnifferFilter(t *testing.T) {
	bus := NewBus(nil)
	s := NewSniffer(bus, func(f Frame) bool { return f.ID == 0x7E0 || f.ID == 0x7E8 })
	for _, id := range []uint32{0x7E0, 0x123, 0x7E8, 0x456} {
		bus.Send(MustFrame(id, nil))
	}
	frames := s.Frames()
	if len(frames) != 2 || frames[0].ID != 0x7E0 || frames[1].ID != 0x7E8 {
		t.Fatalf("filtered capture = %v", frames)
	}
}

func TestSnifferFilterMayReadBack(t *testing.T) {
	// Regression: the capture path used to invoke the filter with s.mu
	// held, so a filter reading back into the sniffer (Len, Frames)
	// self-deadlocked. Filters are immutable after construction and must
	// run outside the lock.
	bus := NewBus(nil)
	var s *Sniffer
	s = NewSniffer(bus, func(f Frame) bool {
		return s.Len() < 2 // reads back into the sniffer
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4; i++ {
			bus.Send(MustFrame(uint32(i+1), nil))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("send deadlocked: sniffer filter ran with the capture lock held")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (filter admits while fewer than 2 captured)", s.Len())
	}
}

func TestSnifferFramesIsCopy(t *testing.T) {
	bus := NewBus(nil)
	s := NewSniffer(bus, nil)
	bus.Send(MustFrame(0x1, []byte{9}))
	frames := s.Frames()
	frames[0].Data[0] = 0xFF
	if s.Frames()[0].Data[0] != 9 {
		t.Fatal("Frames() exposed internal storage")
	}
}

func TestDumpFormat(t *testing.T) {
	clock := sim.NewClock(1500 * time.Millisecond)
	bus := NewBus(clock)
	s := NewSniffer(bus, nil)
	bus.Send(MustFrame(0x7E0, []byte{0x02, 0x10, 0x03}))
	out := Dump(s.Frames())
	if !strings.Contains(out, "7E0#021003") {
		t.Fatalf("Dump output %q missing frame", out)
	}
	if !strings.Contains(out, "1.500000") {
		t.Fatalf("Dump output %q missing timestamp", out)
	}
}

// Property: frames round-trip their payload regardless of content.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(id uint16, data []byte) bool {
		if len(data) > 8 {
			data = data[:8]
		}
		fr, err := NewFrame(uint32(id)&0x7FF, data)
		if err != nil {
			return false
		}
		got := fr.Payload()
		if len(got) != len(data) {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
