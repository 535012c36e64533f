package bmwtp

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"dpreverser/internal/can"
	"dpreverser/internal/isotp"
)

func TestClassify(t *testing.T) {
	if got := Classify([]byte{0x29, 0x03, 0x22, 0xDB, 0xE5}); got != isotp.SingleFrame {
		t.Fatalf("Classify = %v, want SF", got)
	}
	if got := Classify([]byte{0x29, 0x10, 0x14, 1, 2, 3, 4, 5}); got != isotp.FirstFrame {
		t.Fatalf("Classify = %v, want FF", got)
	}
	if got := Classify([]byte{0x29}); got != isotp.Invalid {
		t.Fatalf("Classify(short) = %v, want Invalid", got)
	}
}

func TestSegmentSingleFrame(t *testing.T) {
	frames, err := Segment(0x29, []byte{0x22, 0xDB, 0xE5}, 0xFF)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0x29, 0x03, 0x22, 0xDB, 0xE5, 0xFF, 0xFF, 0xFF}
	if len(frames) != 1 || !bytes.Equal(frames[0], want) {
		t.Fatalf("frames = % X, want % X", frames[0], want)
	}
}

func TestSegmentMultiFrameAddressOnEveryFrame(t *testing.T) {
	payload := make([]byte, 25)
	frames, err := Segment(0x60, payload, 0)
	if err != nil {
		t.Fatal(err)
	}
	// FF carries 5, CFs carry 6: 25 = 5 + 6 + 6 + 6 + 2 → 5 frames.
	if len(frames) != 5 {
		t.Fatalf("got %d frames, want 5", len(frames))
	}
	for i, f := range frames {
		if f[0] != 0x60 {
			t.Fatalf("frame %d address = %#x, want 0x60", i, f[0])
		}
	}
	if frames[0][1] != 0x10 || frames[0][2] != 25 {
		t.Fatalf("FF PCI = % X", frames[0][1:3])
	}
	if frames[1][1] != 0x21 {
		t.Fatalf("first CF PCI = %#x", frames[1][1])
	}
}

func TestReassemblerAddressFilter(t *testing.T) {
	r := Reassembler{Addr: 0x29, FilterByAddr: true}
	// Frame for another ECU must be ignored.
	res, err := r.Feed([]byte{0x60, 0x02, 0x10, 0x03})
	if err != nil || res.Message != nil {
		t.Fatalf("foreign frame consumed: %+v, %v", res, err)
	}
	res, err = r.Feed([]byte{0x29, 0x02, 0x10, 0x03})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Message, []byte{0x10, 0x03}) {
		t.Fatalf("message = % X", res.Message)
	}
}

func TestReassemblerNoFilterAcceptsAll(t *testing.T) {
	var r Reassembler
	res, err := r.Feed([]byte{0xAB, 0x01, 0x3E})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Message, []byte{0x3E}) {
		t.Fatalf("message = % X", res.Message)
	}
}

func TestReassemblerShortFrame(t *testing.T) {
	var r Reassembler
	if _, err := r.Feed([]byte{0x29}); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("err = %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(addr byte, raw []byte) bool {
		if len(raw) == 0 || len(raw) > isotp.MaxPayload {
			return true
		}
		frames, err := Segment(addr, raw, 0x55)
		if err != nil {
			return false
		}
		r := Reassembler{Addr: addr, FilterByAddr: true}
		for _, fr := range frames {
			res, err := r.Feed(fr)
			if err != nil {
				return false
			}
			if res.Message != nil {
				return bytes.Equal(res.Message, raw)
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEndpointExchange(t *testing.T) {
	bus := can.NewBus(nil)
	// BMW convention: tool transmits on 0x6F1 stamping the target ECU
	// address; ECU answers on 0x600+addr stamping 0xF1 (the tool address).
	tool := NewEndpoint(bus, EndpointConfig{TxID: 0x6F1, RxID: 0x629, TxAddr: 0x29, RxAddr: 0xF1})
	ecu := NewEndpoint(bus, EndpointConfig{TxID: 0x629, RxID: 0x6F1, TxAddr: 0xF1, RxAddr: 0x29})
	defer tool.Close()
	defer ecu.Close()

	long := make([]byte, 60)
	for i := range long {
		long[i] = byte(i + 1)
	}
	ecu.OnMessage = func(p []byte) {
		if p[0] == 0x22 {
			if err := ecu.Send(long); err != nil {
				t.Errorf("ecu send: %v", err)
			}
		}
	}
	var got []byte
	tool.OnMessage = func(p []byte) { got = append([]byte(nil), p...) }
	if err := tool.Send([]byte{0x22, 0xDB, 0xE5}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, long) {
		t.Fatalf("tool got %d bytes, want %d", len(got), len(long))
	}
}

func TestEndpointIgnoresForeignAddress(t *testing.T) {
	bus := can.NewBus(nil)
	ecu := NewEndpoint(bus, EndpointConfig{TxID: 0x629, RxID: 0x6F1, TxAddr: 0xF1, RxAddr: 0x29})
	defer ecu.Close()
	called := false
	ecu.OnMessage = func([]byte) { called = true }
	// Same CAN ID but addressed to ECU 0x60.
	bus.Send(can.MustFrame(0x6F1, []byte{0x60, 0x02, 0x10, 0x03, 0, 0, 0, 0}))
	if called {
		t.Fatal("endpoint consumed a frame addressed to another ECU")
	}
}
