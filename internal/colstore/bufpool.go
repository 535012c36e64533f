package colstore

import "sync"

// This file is the transport layer's scratch allocator: size-classed
// sync.Pool buffers the isotp and vwtp reassemblers use for in-flight
// payload assembly. A capture holds one reassembler per active CAN ID
// (and per BMW address), most of which assemble only occasionally; with
// pooled scratch an idle reassembler pins no buffer at all, and the
// multi-tenant job server's thousands of concurrent reassemblers share a
// handful of warm buffers per size class instead of each growing its own.
//
// Discipline: GetBuf on transfer start, PutBuf exactly once when the
// transfer ends — including every resynchronisation/abort error path.
// The reassemblers keep a completed message in its buffer until the next
// frame arrives (their FeedView contract), so release always happens on
// the *next* state transition, never at completion itself.

// Size classes cover the transports' payload limits: ISO-TP first frames
// announce up to 4095 bytes, VW TP 2.0 length prefixes up to 65535+2.
// Class 64 serves the short diagnostic replies that dominate traffic.
var bufClasses = [...]int{64, 512, 4096, 65540}

var bufPools = func() []*sync.Pool {
	pools := make([]*sync.Pool, len(bufClasses))
	for i, size := range bufClasses {
		size := size
		pools[i] = &sync.Pool{New: func() any {
			b := make([]byte, 0, size)
			return &b
		}}
	}
	return pools
}()

// GetBuf returns an empty buffer with capacity at least n from the
// smallest size class that fits. Requests beyond the largest class are
// heap-allocated and dropped again on PutBuf.
//
//dplint:hotpath colstore-bufpool
func GetBuf(n int) []byte {
	for i, size := range bufClasses {
		if n <= size {
			return (*bufPools[i].Get().(*[]byte))[:0]
		}
	}
	return make([]byte, 0, n)
}

// PutBuf returns a buffer obtained from GetBuf to its size class. The
// caller must not retain any view of b afterwards. Buffers whose
// capacity matches no class (grown by the caller, or oversize) are
// dropped for the GC.
//
//dplint:hotpath colstore-bufpool
func PutBuf(b []byte) {
	c := cap(b)
	for i, size := range bufClasses {
		if c == size {
			b = b[:0]
			bufPools[i].Put(&b)
			return
		}
	}
}
