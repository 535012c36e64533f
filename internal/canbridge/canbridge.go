// Package canbridge exposes a simulated vehicle's CAN bus over a TCP
// socket, in a line protocol built on the candump format:
//
//	server → client:  HELLO canbridge 1            greeting; traffic flows from here
//	client → server:  SEND 7E0#021003AAAAAAAAAA   inject a frame
//	client → server:  ADVANCE 500                 advance the virtual clock (ms)
//	server → client:  (000001.500000) 7E8#065002... every bus frame, as it happens
//
// The bridge is the repository's stand-in for plugging real tooling into
// the OBD port: an external program (any language) can drive the simulated
// car and sniff its traffic; each traffic line parses back into a frame
// with can.ParseDumpLine.
//
// The package holds the wire and nothing above it: the grammar (codec.go),
// this bus Server (cmd/carsim), and StreamConn, the client that streams a
// capture into the job server's ingest listener (internal/jobserver).
package canbridge

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"

	"dpreverser/internal/can"
	"dpreverser/internal/sim"
)

// Server bridges one bus/clock pair to TCP clients.
type Server struct {
	bus   *can.Bus
	clock *sim.Clock

	// filter, when set, rewrites each bus frame before it is streamed
	// to clients: it may suppress the frame (empty result), corrupt it,
	// or expand it into several. Calls are serialised by filterMu, so a
	// stateful filter (a fault injector) needs no locking of its own.
	filter   func(can.Frame) []can.Frame
	filterMu sync.Mutex

	mu          sync.Mutex
	listener    net.Listener
	conns       map[net.Conn]*connWriter
	closed      bool
	unsubscribe func()
	wg          sync.WaitGroup
}

// writerQueueDepth bounds each client's outbound queue. A client that
// falls this many messages behind is disconnected rather than allowed to
// exert backpressure on the bus.
const writerQueueDepth = 256

// connWriter decouples producers from one client socket: streamed frames
// (from bus callbacks) and OK/ERR replies (from the command loop) are
// enqueued without blocking, and a dedicated goroutine — the only thing
// that ever writes to the connection — drains the FIFO queue onto the
// wire. A slow or stalled client therefore cannot stall a bus broadcast
// or any other client; once its queue overflows, its connection is
// closed and the serve loop tears it down.
type connWriter struct {
	conn net.Conn
	ch   chan string
	stop chan struct{} // closed by the owning serve loop on teardown
	done chan struct{} // closed by the writer goroutine on exit
}

func newConnWriter(conn net.Conn) *connWriter {
	w := &connWriter{
		conn: conn,
		ch:   make(chan string, writerQueueDepth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go w.run()
	return w
}

// run is the per-connection writer goroutine. It exits on close(w.stop)
// or on the first write error (peer gone); the owning serve loop joins it
// through w.done.
func (w *connWriter) run() {
	defer close(w.done)
	for {
		select {
		case text := <-w.ch:
			if _, err := fmt.Fprint(w.conn, text); err != nil {
				return
			}
		case <-w.stop:
			return
		}
	}
}

// enqueue hands text to the writer goroutine without ever blocking the
// caller. On a full queue the client is beyond saving: the connection is
// closed, which unblocks the writer goroutine and fails the serve loop's
// reads.
func (w *connWriter) enqueue(text string) {
	select {
	case w.ch <- text:
	case <-w.stop:
	default:
		w.conn.Close()
	}
}

// close stops the writer goroutine and joins it.
func (w *connWriter) close() {
	close(w.stop)
	<-w.done
}

// NewServer wraps a bus and its clock.
func NewServer(bus *can.Bus, clock *sim.Clock) *Server {
	return &Server{bus: bus, clock: clock, conns: map[net.Conn]*connWriter{}}
}

// SetFilter installs the stream filter. It must be called before Listen.
func (s *Server) SetFilter(f func(can.Frame) []can.Frame) { s.filter = f }

// Listen starts accepting clients on addr ("127.0.0.1:0" for an ephemeral
// port) and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("canbridge: listen: %w", err)
	}
	s.mu.Lock()
	s.listener = l
	// One server-wide bus subscription feeds every client, so a
	// stateful filter sees each frame exactly once regardless of how
	// many clients are attached.
	s.unsubscribe = s.bus.Subscribe(s.broadcast)
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(l)
	return l.Addr().String(), nil
}

// broadcast streams one bus frame — after filtering — to every client.
func (s *Server) broadcast(f can.Frame) {
	frames := []can.Frame{f}
	if s.filter != nil {
		s.filterMu.Lock()
		// filterMu exists solely to serialise this call: SetFilter's
		// documented contract is that a stateful filter needs no locking
		// of its own. The callback is trusted not to block — it rewrites
		// frames, nothing more — and holds no other server lock here.
		frames = s.filter(f) //dplint:allow lockhold filterMu's one job is serialising this documented callback
		s.filterMu.Unlock()
	}
	if len(frames) == 0 {
		return
	}
	text := can.Dump(frames)
	s.mu.Lock()
	writers := make([]*connWriter, 0, len(s.conns))
	for _, w := range s.conns {
		writers = append(writers, w)
	}
	s.mu.Unlock()
	// enqueue never blocks: a client whose queue is full is disconnected,
	// so one stalled reader cannot hold up the bus or its peers.
	for _, w := range writers {
		w.enqueue(text)
	}
}

// Close stops the listener and disconnects every client.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	unsub := s.unsubscribe
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if unsub != nil {
		unsub()
	}
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	w := newConnWriter(conn)
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		// Close the connection before joining the writer: a writer blocked
		// mid-write to a stalled peer only unblocks once the socket dies.
		conn.Close()
		w.close()
	}()

	// Greet, then register: the greeting and all subsequent broadcasts
	// flow through the writer's FIFO queue, so a client that waits for
	// HELLO is guaranteed to see every frame broadcast after registration
	// — and nothing before it.
	w.enqueue(Format(Greeting) + "\n")
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.conns[conn] = w
	s.mu.Unlock()

	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if err := s.handleCommand(line); err != nil {
			w.enqueue(Format(MsgErr{Msg: err.Error()}) + "\n")
			continue
		}
		w.enqueue(Format(MsgOK{}) + "\n")
	}
}

func (s *Server) handleCommand(line string) error {
	msg, err := Parse(line)
	if err != nil {
		return err
	}
	switch m := msg.(type) {
	case MsgSend:
		f := m.Frame
		f.Timestamp = s.clock.Now()
		s.bus.Send(f)
		return nil
	case MsgAdvance:
		s.clock.Advance(m.D)
		return nil
	default:
		return fmt.Errorf("canbridge: unexpected %q here", strings.Fields(line)[0])
	}
}
