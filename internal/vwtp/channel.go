package vwtp

import (
	"fmt"
	"sync"

	"dpreverser/internal/can"
)

// BroadcastID is the CAN ID channel-setup requests are sent on. Responses
// arrive on BroadcastID + ECU address, as on real VAG buses.
const BroadcastID uint32 = 0x200

// DefaultBlockSize is the ACK pacing negotiated when the peer does not
// override it.
const DefaultBlockSize = 3

// Channel is one direction-pair of an established TP 2.0 connection. Both
// the simulated diagnostic tool and the simulated ECU hold one.
type Channel struct {
	bus  *can.Bus
	txID uint32
	rxID uint32

	// OnMessage receives each completed inbound application payload.
	OnMessage func(payload []byte)

	mu        sync.Mutex
	rx        Reassembler
	txSeq     byte
	txQueue   [][]byte
	waitACK   bool
	blockSize int

	unsubscribe func()
}

// ChannelConfig configures an established channel.
type ChannelConfig struct {
	TxID      uint32
	RxID      uint32
	BlockSize int
}

// NewChannel binds a channel to the bus. Production code reaches this via
// Dial/Listener, which perform the setup handshake; tests may construct
// channels directly.
func NewChannel(bus *can.Bus, cfg ChannelConfig) *Channel {
	bs := cfg.BlockSize
	if bs <= 0 {
		bs = DefaultBlockSize
	}
	c := &Channel{bus: bus, txID: cfg.TxID, rxID: cfg.RxID, blockSize: bs}
	c.unsubscribe = bus.Subscribe(c.handleFrame)
	return c
}

// Close detaches the channel and emits a disconnect frame.
func (c *Channel) Close() {
	if c.unsubscribe == nil {
		return
	}
	c.transmit([]byte{opDisconnect})
	c.unsubscribe()
	c.unsubscribe = nil
}

// Send transmits one application payload over the channel, pausing at every
// expect-ACK packet until the peer acknowledges.
func (c *Channel) Send(payload []byte) error {
	c.mu.Lock()
	frames, err := Segment(payload, c.blockSize, c.txSeq)
	if err != nil {
		c.mu.Unlock()
		return fmt.Errorf("vwtp channel send: %w", err)
	}
	c.txSeq = (c.txSeq + byte(len(frames))) & 0x0F
	c.txQueue = append(c.txQueue, frames...)
	c.mu.Unlock()
	c.pump()
	return nil
}

// pump transmits queued frames until the next expect-ACK boundary.
func (c *Channel) pump() {
	for {
		c.mu.Lock()
		if c.waitACK || len(c.txQueue) == 0 {
			c.mu.Unlock()
			return
		}
		next := c.txQueue[0]
		c.txQueue = c.txQueue[1:]
		if ExpectsACK(next) {
			c.waitACK = true
		}
		c.mu.Unlock()
		c.transmit(next)
	}
}

func (c *Channel) transmit(data []byte) {
	f, err := can.NewFrame(c.txID, data)
	if err != nil {
		panic(fmt.Sprintf("vwtp: internal frame build failed: %v", err))
	}
	c.bus.Send(f)
}

func (c *Channel) handleFrame(f can.Frame) {
	if f.ID != c.rxID {
		return
	}
	data := f.Payload()
	switch Classify(data) {
	case KindACK:
		c.mu.Lock()
		c.waitACK = false
		c.mu.Unlock()
		c.pump()
	case KindData:
		c.mu.Lock()
		res, err := c.rx.Feed(data)
		c.mu.Unlock()
		if err != nil {
			return
		}
		if res.NeedACK {
			c.transmit(EncodeACK(res.NextSeq, true))
		}
		if res.Message != nil && c.OnMessage != nil {
			c.OnMessage(res.Message)
		}
	case KindChannelParams:
		// Answer parameter requests and keep-alive channel tests with our
		// own parameters (block size first, as the peer reads it).
		if len(data) > 0 && (data[0] == opParamsReq || data[0] == opChannelTest) {
			c.mu.Lock()
			bs := byte(c.blockSize)
			c.mu.Unlock()
			c.transmit(paramsResponse(bs))
		}
	}
}

func paramsRequest(blockSize byte) []byte {
	// opcode, block size, T1, T2, T3, T4 timing parameters. The timing
	// bytes use VAG's scaled encoding; the simulation carries them opaque.
	return []byte{opParamsReq, blockSize, 0x8F, 0xFF, 0x32, 0xFF}
}

func paramsResponse(blockSize byte) []byte {
	return []byte{opParamsResp, blockSize, 0x8F, 0xFF, 0x32, 0xFF}
}

// Dial performs the TP 2.0 channel-setup and parameter handshake with the
// ECU at addr and returns the tool-side channel. The negotiated CAN IDs
// follow the convention the Listener announces.
func Dial(bus *can.Bus, addr byte) (*Channel, error) {
	var (
		granted   bool
		toolTxID  uint32
		toolRxID  uint32
		respID    = BroadcastID + uint32(addr)
		gotParams bool
	)
	unsub := bus.Subscribe(func(f can.Frame) {
		if f.ID != respID {
			return
		}
		if ecuRx, ecuTx, ok := SetupIDs(f.Payload()); ok {
			toolTxID, toolRxID, granted = ecuRx, ecuTx, true
		}
	})
	setup, err := can.NewFrame(BroadcastID, []byte{addr, opSetupReq, 0x00, 0x10, 0x00, 0x03, 0x01})
	if err != nil {
		return nil, err
	}
	bus.Send(setup)
	unsub()
	if !granted {
		return nil, fmt.Errorf("vwtp: ECU %#x did not answer channel setup", addr)
	}

	ch := NewChannel(bus, ChannelConfig{TxID: toolTxID, RxID: toolRxID})
	unsubParams := bus.Subscribe(func(f can.Frame) {
		if f.ID == toolRxID && f.Len > 0 && f.Payload()[0] == opParamsResp {
			gotParams = true
			if f.Len >= 2 {
				bs := int(f.Payload()[1])
				if bs > 0 {
					ch.mu.Lock()
					ch.blockSize = bs
					ch.mu.Unlock()
				}
			}
		}
	})
	ch.transmit(paramsRequest(DefaultBlockSize))
	unsubParams()
	if !gotParams {
		ch.Close()
		return nil, fmt.Errorf("vwtp: ECU %#x did not answer channel parameters", addr)
	}
	return ch, nil
}

// Listener answers channel-setup requests for one ECU address and hands
// each established channel to the accept callback. The simulated VAG ECUs
// run one Listener each.
type Listener struct {
	bus  *can.Bus
	addr byte
	// accept receives the server-side channel once params are exchanged.
	accept func(*Channel)

	mu          sync.Mutex
	current     *Channel
	nextTxID    uint32
	unsubscribe func()
}

// NewListener starts answering setup requests for addr. Channels are
// created with deterministic negotiated IDs derived from the address.
func NewListener(bus *can.Bus, addr byte, accept func(*Channel)) *Listener {
	l := &Listener{bus: bus, addr: addr, accept: accept, nextTxID: 0x300 + uint32(addr)}
	l.unsubscribe = bus.Subscribe(l.handleFrame)
	return l
}

// Close stops accepting and closes the active channel.
func (l *Listener) Close() {
	if l.unsubscribe != nil {
		l.unsubscribe()
		l.unsubscribe = nil
	}
	l.mu.Lock()
	ch := l.current
	l.current = nil
	l.mu.Unlock()
	if ch != nil {
		ch.Close()
	}
}

func (l *Listener) handleFrame(f can.Frame) {
	if f.ID != BroadcastID || f.Len < 7 {
		return
	}
	d := f.Payload()
	if d[0] != l.addr || d[1] != opSetupReq {
		return
	}
	l.mu.Lock()
	if l.current != nil {
		l.current.Close()
	}
	ecuTx := l.nextTxID
	ecuRx := uint32(0x740) + uint32(l.addr)
	ch := NewChannel(l.bus, ChannelConfig{TxID: ecuTx, RxID: ecuRx})
	l.current = ch
	l.mu.Unlock()

	if l.accept != nil {
		l.accept(ch)
	}
	resp, err := can.NewFrame(BroadcastID+uint32(l.addr), []byte{
		0x00, opSetupPosResp,
		byte(ecuRx), byte(ecuRx >> 8),
		byte(ecuTx), byte(ecuTx >> 8),
		0x01,
	})
	if err != nil {
		panic(fmt.Sprintf("vwtp: listener frame build failed: %v", err))
	}
	l.bus.Send(resp)
}

// Active returns the currently established server-side channel, if any.
func (l *Listener) Active() *Channel {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.current
}
