// Package colstore provides the pipeline's columnar capture storage: CAN
// frames and assembled transport messages held column-major (IDs,
// timestamps, payload offsets) with every payload byte packed into one
// contiguous slab. Consumers read zero-copy views into the slab instead
// of materialising a []byte per frame or message, which removes the
// dominant allocation source of the assembly and extraction stages and
// keeps the hot scans cache-dense: a frame costs 8 slab bytes plus 17
// bytes of columns, where the array-of-structs capture layout spent 40.
//
// The package also owns the size-classed buffer pool the transport
// reassemblers (isotp, vwtp) draw their per-stream scratch from;
// see bufpool.go.
package colstore

import (
	"sort"
	"time"
)

// Frames is a columnar CAN frame store: one append-only column per frame
// field, payload bytes packed into a shared slab. Views returned by
// Payload alias the slab and stay valid until Reset.
type Frames struct {
	ids []uint32
	at  []time.Duration
	// off[i] is the payload's start in slab; its end is off[i+1] (the
	// column keeps a trailing sentinel equal to len(slab)). Frames are
	// appended in capture order and payloads are never edited in place,
	// so start offsets alone reconstruct every span.
	off  []uint32
	slab []byte
}

// NewFrames returns a store pre-sized for the given frame count and total
// payload bytes (both may be 0; the store grows as needed).
func NewFrames(frames, payloadBytes int) *Frames {
	f := &Frames{
		ids:  make([]uint32, 0, frames),
		at:   make([]time.Duration, 0, frames),
		off:  make([]uint32, 1, frames+1),
		slab: make([]byte, 0, payloadBytes),
	}
	return f
}

// Append records one frame. The payload bytes are copied into the slab —
// the one copy the columnar pipeline performs per frame.
//
//dplint:hotpath colstore-append
func (f *Frames) Append(id uint32, at time.Duration, payload []byte) {
	f.ids = append(f.ids, id)
	f.at = append(f.at, at)
	f.slab = append(f.slab, payload...)
	f.off = append(f.off, uint32(len(f.slab)))
}

// Len reports the stored frame count.
func (f *Frames) Len() int { return len(f.ids) }

// ID returns frame i's CAN identifier.
func (f *Frames) ID(i int) uint32 { return f.ids[i] }

// At returns frame i's capture timestamp.
func (f *Frames) At(i int) time.Duration { return f.at[i] }

// Payload returns a zero-copy view of frame i's data field, valid until
// Reset.
//
//dplint:hotpath colstore-append
func (f *Frames) Payload(i int) []byte {
	return f.slab[f.off[i]:f.off[i+1]:f.off[i+1]]
}

// PayloadBytes reports the slab size — the total payload bytes stored.
func (f *Frames) PayloadBytes() int { return len(f.slab) }

// Reset truncates the store for reuse, keeping every column's capacity.
// All previously returned views become invalid.
func (f *Frames) Reset() {
	f.ids = f.ids[:0]
	f.at = f.at[:0]
	f.off = f.off[:1]
	f.slab = f.slab[:0]
}

// Messages is a columnar store of assembled transport messages. Unlike
// Frames it records explicit (offset, length) spans per row, so the
// column order can be permuted (SortStableByTime) without moving slab
// bytes.
type Messages struct {
	at        []time.Duration
	ids       []uint32
	addr      []byte
	transport []uint8
	off       []uint32
	plen      []uint32
	slab      []byte
}

// NewMessages returns a store pre-sized for the given message count and
// total payload bytes.
func NewMessages(messages, payloadBytes int) *Messages {
	return &Messages{
		at:        make([]time.Duration, 0, messages),
		ids:       make([]uint32, 0, messages),
		addr:      make([]byte, 0, messages),
		transport: make([]uint8, 0, messages),
		off:       make([]uint32, 0, messages),
		plen:      make([]uint32, 0, messages),
		slab:      make([]byte, 0, payloadBytes),
	}
}

// Append records one assembled message, copying payload into the slab.
// This is the single copy an assembled payload costs: the reassemblers
// hand in views of their pooled scratch and every downstream consumer
// sub-slices the slab.
//
//dplint:hotpath colstore-append
func (m *Messages) Append(at time.Duration, id uint32, addr byte, transport uint8, payload []byte) {
	m.at = append(m.at, at)
	m.ids = append(m.ids, id)
	m.addr = append(m.addr, addr)
	m.transport = append(m.transport, transport)
	m.off = append(m.off, uint32(len(m.slab)))
	m.plen = append(m.plen, uint32(len(payload)))
	m.slab = append(m.slab, payload...)
}

// Len reports the stored message count.
func (m *Messages) Len() int { return len(m.at) }

// At returns message i's completion timestamp.
func (m *Messages) At(i int) time.Duration { return m.at[i] }

// ID returns the CAN ID message i arrived on.
func (m *Messages) ID(i int) uint32 { return m.ids[i] }

// Addr returns message i's extended (BMW) address byte.
func (m *Messages) Addr(i int) byte { return m.addr[i] }

// Transport returns the transport tag the assembler recorded for message
// i (the reverser package's TransportKind).
func (m *Messages) Transport(i int) uint8 { return m.transport[i] }

// Payload returns a zero-copy view of message i's application payload,
// valid until Reset.
//
//dplint:hotpath colstore-append
func (m *Messages) Payload(i int) []byte {
	return m.slab[m.off[i] : m.off[i]+m.plen[i] : m.off[i]+m.plen[i]]
}

// PayloadBytes reports the slab size.
func (m *Messages) PayloadBytes() int { return len(m.slab) }

// Reset truncates the store for reuse, keeping capacity. All previously
// returned views become invalid.
func (m *Messages) Reset() {
	m.at = m.at[:0]
	m.ids = m.ids[:0]
	m.addr = m.addr[:0]
	m.transport = m.transport[:0]
	m.off = m.off[:0]
	m.plen = m.plen[:0]
	m.slab = m.slab[:0]
}

// SortStableByTime orders the rows by timestamp, preserving the append
// order of equal timestamps. Only the columns are permuted; the slab and
// the spans into it stay put, so existing Payload views remain valid.
func (m *Messages) SortStableByTime() {
	sort.Stable(byTime{m})
}

// byTime adapts Messages to sort.Interface with a whole-row Swap.
type byTime struct{ m *Messages }

func (s byTime) Len() int           { return len(s.m.at) }
func (s byTime) Less(i, j int) bool { return s.m.at[i] < s.m.at[j] }
func (s byTime) Swap(i, j int) {
	m := s.m
	m.at[i], m.at[j] = m.at[j], m.at[i]
	m.ids[i], m.ids[j] = m.ids[j], m.ids[i]
	m.addr[i], m.addr[j] = m.addr[j], m.addr[i]
	m.transport[i], m.transport[j] = m.transport[j], m.transport[i]
	m.off[i], m.off[j] = m.off[j], m.off[i]
	m.plen[i], m.plen[j] = m.plen[j], m.plen[i]
}
