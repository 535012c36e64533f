package isotp

import (
	"fmt"
	"sync"

	"dpreverser/internal/can"
)

// Endpoint binds the ISO-TP codec to a CAN bus for one (txID, rxID)
// address pair: diagnostic tools use (requestID, responseID), ECUs use the
// mirror image. It transmits with the flow-control state machine and
// reassembles inbound traffic, delivering complete messages to OnMessage.
// Under extended addressing it also stamps and filters the address byte.
//
// The simulated bus delivers frames synchronously, so an entire multi-frame
// exchange — first frame, flow control, consecutive frames — completes
// within the outermost Send call; the endpoint therefore keeps an explicit
// transmit queue driven by inbound FC frames rather than blocking.
type Endpoint struct {
	bus  *can.Bus
	txID uint32
	rxID uint32
	pad  byte
	// prefix leads every outbound frame: TxAddr under extended
	// addressing, where inbound frames must start with rxAddr; else nil.
	prefix []byte
	rxAddr byte

	// OnMessage receives each fully reassembled inbound payload. It may
	// call Send (ECUs respond from their handler).
	OnMessage func(payload []byte)

	mu sync.Mutex
	rx Reassembler
	// rxSinceFC counts consecutive frames received since the last FC we
	// sent, to honour our announced block size.
	rxSinceFC int
	// tx state: frames not yet sent, and the credit granted by the last FC.
	txQueue [][]byte
	credit  int
	// receiver-side FC parameters announced when we receive a first frame.
	rxBlockSize byte
	rxSTmin     byte

	unsubscribe func()
}

// EndpointConfig configures an Endpoint.
type EndpointConfig struct {
	// TxID is the CAN ID this endpoint transmits on.
	TxID uint32
	// RxID is the CAN ID this endpoint listens on.
	RxID uint32
	// Pad fills unused frame bytes (visible on the wire only).
	Pad byte
	// BlockSize is announced in our flow-control frames; 0 = unlimited.
	BlockSize byte
	// STminRaw is the raw STmin byte announced in our flow-control frames.
	STminRaw byte
	// Extended selects extended addressing: every outbound frame starts
	// with TxAddr, and inbound frames are consumed only when they start
	// with RxAddr, which is stripped before the PCI is read.
	Extended       bool
	TxAddr, RxAddr byte
}

// NewEndpoint attaches an endpoint to the bus. Callers must set OnMessage
// before traffic arrives if they expect inbound messages.
func NewEndpoint(bus *can.Bus, cfg EndpointConfig) *Endpoint {
	e := &Endpoint{
		bus:         bus,
		txID:        cfg.TxID,
		rxID:        cfg.RxID,
		pad:         cfg.Pad,
		rxBlockSize: cfg.BlockSize,
		rxSTmin:     cfg.STminRaw,
		rxAddr:      cfg.RxAddr,
	}
	if cfg.Extended {
		e.prefix = []byte{cfg.TxAddr}
		// Single frames hold one byte fewer, so 7-byte first frames are legal.
		e.rx.MinMultiFrameLen = MaxSingleFrame
	}
	e.unsubscribe = bus.Subscribe(e.handleFrame)
	return e
}

// Close detaches the endpoint from the bus.
func (e *Endpoint) Close() {
	if e.unsubscribe != nil {
		e.unsubscribe()
		e.unsubscribe = nil
	}
}

// Send transmits payload as one ISO-TP message. Single-frame payloads go
// out immediately; longer payloads send the first frame and then proceed
// under flow control as FC frames arrive.
func (e *Endpoint) Send(payload []byte) error {
	frames, err := segment(e.prefix, payload, e.pad)
	if err != nil {
		return fmt.Errorf("isotp endpoint send: %w", err)
	}
	e.mu.Lock()
	if len(frames) == 1 {
		e.mu.Unlock()
		e.transmit(frames[0])
		return nil
	}
	e.txQueue = append([][]byte{}, frames[1:]...)
	e.credit = 0
	e.mu.Unlock()
	e.transmit(frames[0])
	return nil
}

func (e *Endpoint) transmit(data []byte) {
	f, err := can.NewFrame(e.txID, data)
	if err != nil {
		// Segment always produces 8-byte fields; reaching here is a bug.
		panic(fmt.Sprintf("isotp: internal frame build failed: %v", err))
	}
	e.bus.Send(f)
}

func (e *Endpoint) handleFrame(f can.Frame) {
	if f.ID != e.rxID {
		return
	}
	data := f.Payload()
	if e.prefix != nil {
		if len(data) == 0 || data[0] != e.rxAddr {
			return
		}
		data = data[1:]
	}
	if Classify(data) == FlowControlFrame {
		e.handleFlowControl(data)
		return
	}
	e.mu.Lock()
	wasConsec := Classify(data) == ConsecutiveFrame
	res, err := e.rx.Feed(data)
	var sendBlockFC bool
	if err == nil {
		if res.NeedFlowControl {
			e.rxSinceFC = 0
		} else if wasConsec && e.rx.InFlight() && e.rxBlockSize != 0 {
			e.rxSinceFC++
			if e.rxSinceFC >= int(e.rxBlockSize) {
				e.rxSinceFC = 0
				sendBlockFC = true
			}
		}
	}
	e.mu.Unlock()
	if err != nil {
		return // malformed inbound traffic is dropped, like real stacks
	}
	if res.NeedFlowControl || sendBlockFC {
		fc := EncodeFlowControl(ContinueToSend, e.rxBlockSize, e.rxSTmin)
		if e.prefix != nil {
			fc = append(e.prefix[:1:1], fc[:7]...)
		}
		e.transmit(fc)
	}
	if res.Message != nil && e.OnMessage != nil {
		e.OnMessage(res.Message)
	}
}

func (e *Endpoint) handleFlowControl(data []byte) {
	fc, err := DecodeFlowControl(data)
	if err != nil || fc.Status != ContinueToSend {
		return
	}
	for {
		e.mu.Lock()
		if len(e.txQueue) == 0 {
			e.mu.Unlock()
			return
		}
		if fc.BlockSize != 0 && e.credit >= int(fc.BlockSize) {
			// Block exhausted; wait for the next FC (which resets credit).
			e.credit = 0
			e.mu.Unlock()
			return
		}
		next := e.txQueue[0]
		e.txQueue = e.txQueue[1:]
		e.credit++
		e.mu.Unlock()
		e.transmit(next)
	}
}

// PendingTx reports how many consecutive frames are still queued.
func (e *Endpoint) PendingTx() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.txQueue)
}
