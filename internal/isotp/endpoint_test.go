package isotp

import (
	"bytes"
	"testing"

	"dpreverser/internal/can"
)

// newPair wires a tool-side and ECU-side endpoint on one bus, echoing what
// a diagnostic session looks like: tool transmits on reqID, listens on
// respID; the ECU mirrors.
func newPair(t *testing.T, blockSize byte) (*can.Bus, *Endpoint, *Endpoint) {
	t.Helper()
	bus := can.NewBus(nil)
	tool := NewEndpoint(bus, EndpointConfig{TxID: 0x7E0, RxID: 0x7E8, Pad: 0xAA, BlockSize: blockSize})
	ecu := NewEndpoint(bus, EndpointConfig{TxID: 0x7E8, RxID: 0x7E0, Pad: 0xAA, BlockSize: blockSize})
	t.Cleanup(func() { tool.Close(); ecu.Close() })
	return bus, tool, ecu
}

func TestEndpointSingleFrameMessage(t *testing.T) {
	_, tool, ecu := newPair(t, 0)
	var got []byte
	ecu.OnMessage = func(p []byte) { got = append([]byte(nil), p...) }
	if err := tool.Send([]byte{0x22, 0xF4, 0x0D}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0x22, 0xF4, 0x0D}) {
		t.Fatalf("ecu got % X", got)
	}
}

func TestEndpointMultiFrameMessage(t *testing.T) {
	payload := make([]byte, 100)
	for i := range payload {
		payload[i] = byte(i)
	}
	_, tool, ecu := newPair(t, 0)
	var got []byte
	ecu.OnMessage = func(p []byte) { got = append([]byte(nil), p...) }
	if err := tool.Send(payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("multi-frame transfer corrupted: got %d bytes", len(got))
	}
	if tool.PendingTx() != 0 {
		t.Fatalf("PendingTx = %d after complete transfer", tool.PendingTx())
	}
}

func TestEndpointMultiFrameWithBlockSize(t *testing.T) {
	payload := make([]byte, 200) // FF(6) + 28 CFs
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	bus, tool, ecu := newPair(t, 3) // FC needed every 3 CFs
	var got []byte
	ecu.OnMessage = func(p []byte) { got = append([]byte(nil), p...) }

	snif := can.NewSniffer(bus, nil)
	if err := tool.Send(payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("block-size transfer corrupted")
	}
	// Count FC frames: initial + one per completed block of 3 except the
	// final partial block. 28 CFs → ceil(28/3)=10 blocks → 10 FCs.
	fcCount := 0
	for _, f := range snif.Frames() {
		if f.ID == 0x7E8 && Classify(f.Payload()) == FlowControlFrame {
			fcCount++
		}
	}
	if fcCount != 10 {
		t.Fatalf("saw %d FC frames, want 10", fcCount)
	}
}

func TestEndpointRequestResponseFromHandler(t *testing.T) {
	_, tool, ecu := newPair(t, 0)
	// ECU responds with a long message from inside its handler, the way
	// internal/ecu answers ReadDataByIdentifier.
	response := make([]byte, 40)
	for i := range response {
		response[i] = byte(0x60 + i)
	}
	ecu.OnMessage = func(p []byte) {
		if p[0] == 0x22 {
			if err := ecu.Send(response); err != nil {
				t.Errorf("ecu send: %v", err)
			}
		}
	}
	var got []byte
	tool.OnMessage = func(p []byte) { got = append([]byte(nil), p...) }
	if err := tool.Send([]byte{0x22, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, response) {
		t.Fatalf("tool got %d bytes, want %d", len(got), len(response))
	}
}

func TestEndpointIgnoresOtherIDs(t *testing.T) {
	bus, _, ecu := newPair(t, 0)
	called := false
	ecu.OnMessage = func([]byte) { called = true }
	bus.Send(can.MustFrame(0x123, []byte{0x02, 0x10, 0x03}))
	if called {
		t.Fatal("endpoint processed a frame on a foreign ID")
	}
}

func TestEndpointSendErrors(t *testing.T) {
	_, tool, _ := newPair(t, 0)
	if err := tool.Send(nil); err == nil {
		t.Fatal("Send(nil) succeeded")
	}
	if err := tool.Send(make([]byte, MaxPayload+1)); err == nil {
		t.Fatal("oversized Send succeeded")
	}
}

func TestEndpointBidirectionalInterleaved(t *testing.T) {
	// Two back-to-back exchanges verify reassembler state resets cleanly.
	_, tool, ecu := newPair(t, 0)
	var ecuGot [][]byte
	ecu.OnMessage = func(p []byte) {
		ecuGot = append(ecuGot, append([]byte(nil), p...))
		resp := append([]byte{0x62}, p...)
		if err := ecu.Send(resp); err != nil {
			t.Errorf("ecu send: %v", err)
		}
	}
	var toolGot [][]byte
	tool.OnMessage = func(p []byte) { toolGot = append(toolGot, append([]byte(nil), p...)) }

	long := make([]byte, 30)
	for i := range long {
		long[i] = byte(i)
	}
	for round := 0; round < 3; round++ {
		if err := tool.Send(long); err != nil {
			t.Fatal(err)
		}
		if err := tool.Send([]byte{0x22, 0xAB}); err != nil {
			t.Fatal(err)
		}
	}
	if len(ecuGot) != 6 || len(toolGot) != 6 {
		t.Fatalf("exchanges: ecu %d, tool %d; want 6, 6", len(ecuGot), len(toolGot))
	}
	if !bytes.Equal(toolGot[0], append([]byte{0x62}, long...)) {
		t.Fatal("first long response corrupted")
	}
}

// TestEndpointExtendedExchange runs the BMW convention end to end: the
// tool transmits on 0x6F1 stamping the target ECU's address 0x29, and the
// ECU answers on 0x629 stamping the tool's address 0xF1. Every frame on
// the bus, flow control included, carries its sender's address byte. The
// 7-byte request needs a first frame announcing 7 bytes, legal only
// under extended addressing.
func TestEndpointExtendedExchange(t *testing.T) {
	bus := can.NewBus(nil)
	tool := NewEndpoint(bus, EndpointConfig{TxID: 0x6F1, RxID: 0x629, Extended: true, TxAddr: 0x29, RxAddr: 0xF1})
	ecu := NewEndpoint(bus, EndpointConfig{TxID: 0x629, RxID: 0x6F1, Extended: true, TxAddr: 0xF1, RxAddr: 0x29})
	t.Cleanup(func() { tool.Close(); ecu.Close() })
	snif := can.NewSniffer(bus, nil)

	request := []byte{0x22, 0xDB, 0xE5, 0xDB, 0xE6, 0xDB, 0xE7}
	long := make([]byte, 60)
	for i := range long {
		long[i] = byte(i + 1)
	}
	ecu.OnMessage = func(p []byte) {
		if bytes.Equal(p, request) {
			if err := ecu.Send(long); err != nil {
				t.Errorf("ecu send: %v", err)
			}
		}
	}
	var got []byte
	tool.OnMessage = func(p []byte) { got = append([]byte(nil), p...) }
	if err := tool.Send(request); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, long) {
		t.Fatalf("tool got %d bytes, want %d", len(got), len(long))
	}
	// Request: FF(5) + CF(2) and the ECU's FC. Response: FF(5) + 10 CFs
	// (6 each, the last 5) and the tool's FC.
	want := map[uint32]byte{0x6F1: 0x29, 0x629: 0xF1}
	fcs := map[uint32][]byte{}
	for _, f := range snif.Frames() {
		d := f.Payload()
		if d[0] != want[f.ID] {
			t.Fatalf("frame on %#x starts % X, want address %#x", f.ID, d, want[f.ID])
		}
		if Classify(d[1:]) == FlowControlFrame {
			fcs[f.ID] = d
		}
	}
	if n := len(snif.Frames()); n != 3+12 {
		t.Fatalf("saw %d frames, want 15", n)
	}
	for id, addr := range want {
		if fc := fcs[id]; !bytes.Equal(fc, []byte{addr, 0x30, 0, 0, 0, 0, 0, 0}) {
			t.Fatalf("flow control on %#x = % X, want %02X 30 00 00 00 00 00 00", id, fc, addr)
		}
	}
}

// TestEndpointExtendedAddressFilter: an extended endpoint consumes only
// frames on its RxID led by its RxAddr, and strips that byte.
func TestEndpointExtendedAddressFilter(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want []byte
	}{
		{"own address", []byte{0x29, 0x02, 0x10, 0x03, 0, 0, 0, 0}, []byte{0x10, 0x03}},
		{"foreign address", []byte{0x60, 0x02, 0x10, 0x03, 0, 0, 0, 0}, nil},
		{"address byte only", []byte{0x29}, nil},
		{"normal addressing", []byte{0x02, 0x10, 0x03, 0, 0, 0, 0, 0}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bus := can.NewBus(nil)
			ecu := NewEndpoint(bus, EndpointConfig{TxID: 0x629, RxID: 0x6F1, Extended: true, TxAddr: 0xF1, RxAddr: 0x29})
			defer ecu.Close()
			var got []byte
			ecu.OnMessage = func(p []byte) { got = append([]byte(nil), p...) }
			bus.Send(can.MustFrame(0x6F1, c.data))
			if !bytes.Equal(got, c.want) {
				t.Fatalf("delivered % X, want % X", got, c.want)
			}
		})
	}
}
