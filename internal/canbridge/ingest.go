package canbridge

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"dpreverser/internal/can"
)

// IngestSink receives one live stream's events. The IngestServer calls a
// sink from the session's connection goroutine only, so implementations
// need no locking against the server. Close is called exactly once, after
// the last Frame/Advance.
type IngestSink interface {
	// Frame delivers one streamed frame, already stamped with the
	// session's virtual clock.
	Frame(f can.Frame) error
	// Advance reports the client moving the session clock forward; the
	// server has already applied it to subsequent frame timestamps.
	Advance(d time.Duration) error
	// Close ends the session. complete is true when the client shut the
	// connection down cleanly (EOF), false when the server is closing or
	// the connection failed mid-stream.
	Close(complete bool)
}

// FailableSink is optionally implemented by an IngestSink that wants the
// distinct reason a session was failed by the server's ingest guardrails
// (idle timeout, frame or byte budget). Fail is called at most once, from
// the session goroutine, immediately before Close(false).
type FailableSink interface {
	Fail(reason string)
}

// Stable session-failure reasons the ingest guardrails report through
// FailableSink.Fail.
const (
	// ReasonIdleTimeout: the peer sent nothing for IngestLimits.IdleTimeout.
	ReasonIdleTimeout = "idle-timeout"
	// ReasonFrameBudget: the session streamed more than MaxFrames frames.
	ReasonFrameBudget = "frame-budget"
	// ReasonByteBudget: the session streamed more than MaxBytes payload bytes.
	ReasonByteBudget = "byte-budget"
)

// IngestLimits bounds one ingest session against hostile or wedged peers.
// The zero value disables every guardrail (the pre-hardening behaviour).
type IngestLimits struct {
	// IdleTimeout fails a session that sends no line for this long. Two
	// mechanisms enforce it: a per-read network deadline (wall-clock mode
	// only), and the ExpireIdle sweep, which works against any clock.
	IdleTimeout time.Duration
	// MaxFrames caps SEND commands per session; 0 is unlimited.
	MaxFrames int
	// MaxBytes caps total streamed payload bytes per session; 0 is
	// unlimited.
	MaxBytes int64
	// Clock supplies the idle-tracking time base. Nil uses the wall
	// clock (and arms real read deadlines); tests inject a manual clock
	// and drive ExpireIdle themselves.
	Clock func() time.Duration
	// SweepInterval is the background idle-sweep period; 0 disables the
	// sweeper goroutine (callers drive ExpireIdle, or rely on read
	// deadlines).
	SweepInterval time.Duration
}

// IngestServer is the receiving side of the canbridge line protocol: where
// Server streams a simulated bus out, IngestServer accepts frames in —
// the live-capture front door of the reverse-engineering job server.
//
// A session:
//
//	server → client:  HELLO canbridge 1
//	client → server:  HELLO <token>         bind the stream to a job
//	server → client:  OK                    (or ERR + close for a bad token)
//	client → server:  SEND 7E0#0210...      one frame, stamped at session time
//	client → server:  ADVANCE 50            advance session time 50 ms
//	client → server:  (EOF)                 finalise the stream
//
// Each session owns a virtual clock that starts at zero and moves only on
// ADVANCE, so the assembled capture is as deterministic as the client's
// own frame ordering.
type IngestServer struct {
	// open resolves a session token to its sink; an error refuses the
	// session (sent to the client as an ERR line).
	open   func(token string) (IngestSink, error)
	limits IngestLimits
	epoch  time.Time

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	sessions map[net.Conn]*ingestSession
	closed   bool
	stop     chan struct{}
	wg       sync.WaitGroup
}

// ingestSession is the server's guardrail bookkeeping for one live
// connection, guarded by the server mutex.
type ingestSession struct {
	lastActive time.Duration
	failReason string
}

// NewIngestServerLimited builds an ingest listener that resolves stream
// tokens through open and whose sessions are bounded by limits (the zero
// IngestLimits sets no guardrails).
func NewIngestServerLimited(open func(token string) (IngestSink, error), limits IngestLimits) *IngestServer {
	return &IngestServer{
		open:     open,
		limits:   limits,
		epoch:    time.Now(), //dplint:allow determinism idle-session tracking needs a wall-clock epoch when no clock is injected
		conns:    map[net.Conn]bool{},
		sessions: map[net.Conn]*ingestSession{},
		stop:     make(chan struct{}),
	}
}

// now reads the idle-tracking clock.
func (s *IngestServer) now() time.Duration {
	if s.limits.Clock != nil {
		return s.limits.Clock()
	}
	return time.Since(s.epoch) //dplint:allow determinism idle-session tracking needs the wall clock when no clock is injected
}

// touch records activity on a session.
func (s *IngestServer) touch(conn net.Conn) {
	at := s.now()
	s.mu.Lock()
	if sess := s.sessions[conn]; sess != nil {
		sess.lastActive = at
	}
	s.mu.Unlock()
}

// fail records the guardrail reason a session is being killed for. Only
// the first reason sticks.
func (s *IngestServer) fail(conn net.Conn, reason string) {
	s.mu.Lock()
	if sess := s.sessions[conn]; sess != nil && sess.failReason == "" {
		sess.failReason = reason
	}
	s.mu.Unlock()
}

// failReason reads (without clearing) a session's recorded failure.
func (s *IngestServer) failReason(conn net.Conn) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess := s.sessions[conn]; sess != nil {
		return sess.failReason
	}
	return ""
}

// armDeadline sets the per-read network deadline enforcing IdleTimeout.
// Only wall-clock sessions arm real deadlines; under an injected clock
// the ExpireIdle sweep is the enforcement path.
func (s *IngestServer) armDeadline(conn net.Conn) {
	if s.limits.IdleTimeout <= 0 || s.limits.Clock != nil {
		return
	}
	conn.SetReadDeadline(time.Now().Add(s.limits.IdleTimeout)) //dplint:allow determinism network read deadlines are wall-clock by nature
}

// ExpireIdle fails every session that has been silent for at least
// IdleTimeout, closing its connection so the session goroutine unblocks
// and reports ReasonIdleTimeout to the sink. The background sweeper calls
// it periodically; tests with an injected clock call it directly. Returns
// the number of sessions expired.
func (s *IngestServer) ExpireIdle() int {
	if s.limits.IdleTimeout <= 0 {
		return 0
	}
	now := s.now()
	s.mu.Lock()
	var expired []net.Conn
	for conn, sess := range s.sessions {
		if sess.failReason == "" && now-sess.lastActive >= s.limits.IdleTimeout {
			sess.failReason = ReasonIdleTimeout
			expired = append(expired, conn)
		}
	}
	s.mu.Unlock()
	for _, conn := range expired {
		conn.Close()
	}
	return len(expired)
}

// sweepLoop drives ExpireIdle until the server closes.
func (s *IngestServer) sweepLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-time.After(s.limits.SweepInterval):
			s.ExpireIdle()
		}
	}
}

// Listen starts accepting stream sessions on addr ("127.0.0.1:0" for an
// ephemeral port) and returns the bound address.
func (s *IngestServer) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("canbridge: ingest listen: %w", err)
	}
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(l)
	if s.limits.IdleTimeout > 0 && s.limits.SweepInterval > 0 {
		s.wg.Add(1)
		go s.sweepLoop()
	}
	return l.Addr().String(), nil
}

// Close stops the listener and tears down every live session (their sinks
// see Close(false)).
func (s *IngestServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stop)
	l := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *IngestServer) acceptLoop(l net.Listener) {
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
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *IngestServer) serve(conn net.Conn) {
	defer s.wg.Done()
	s.mu.Lock()
	s.sessions[conn] = &ingestSession{lastActive: s.now()}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		delete(s.sessions, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	fmt.Fprintln(conn, Format(Greeting))
	sc := bufio.NewScanner(conn)

	// Handshake: the first line must bind a token.
	s.armDeadline(conn)
	sink, err := s.handshake(sc)
	if err != nil {
		fmt.Fprintln(conn, Format(MsgErr{Msg: err.Error()}))
		return
	}
	fmt.Fprintln(conn, Format(MsgOK{}))
	s.touch(conn)

	// Stream loop. The session clock starts at zero; SEND stamps, ADVANCE
	// moves. Frame and byte budgets guard reassembly state against a
	// hostile peer streaming without bound.
	var now time.Duration
	var frames int
	var bytes int64
	s.armDeadline(conn)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		s.touch(conn)
		msg, perr := Parse(line)
		var cmdErr error
		var budget string
		switch m := msg.(type) {
		case MsgSend:
			frames++
			bytes += int64(m.Frame.Len)
			switch {
			case s.limits.MaxFrames > 0 && frames > s.limits.MaxFrames:
				budget = ReasonFrameBudget
			case s.limits.MaxBytes > 0 && bytes > s.limits.MaxBytes:
				budget = ReasonByteBudget
			default:
				f := m.Frame
				f.Timestamp = now
				cmdErr = sink.Frame(f)
			}
		case MsgAdvance:
			now += m.D
			cmdErr = sink.Advance(m.D)
		default:
			cmdErr = perr
			if cmdErr == nil {
				cmdErr = fmt.Errorf("canbridge: unexpected %q during a stream", strings.Fields(line)[0])
			}
		}
		if budget != "" {
			s.fail(conn, budget)
			fmt.Fprintln(conn, Format(MsgErr{Msg: "canbridge: session " + budget + " exceeded"}))
			break
		}
		if cmdErr != nil {
			fmt.Fprintln(conn, Format(MsgErr{Msg: cmdErr.Error()}))
			continue
		}
		fmt.Fprintln(conn, Format(MsgOK{}))
		s.armDeadline(conn)
	}
	// A read-deadline expiry is the wall-clock face of the idle timeout.
	reason := s.failReason(conn)
	if reason == "" {
		if ne, ok := sc.Err().(net.Error); ok && ne.Timeout() {
			reason = ReasonIdleTimeout
			s.fail(conn, reason)
		}
	}
	if reason != "" {
		if fs, ok := sink.(FailableSink); ok {
			fs.Fail(reason)
		}
	}
	// EOF with no scanner error is a clean finalisation; anything else —
	// a guardrail kill, the server closing the socket, or a dropped
	// connection — is a truncated stream.
	sink.Close(reason == "" && sc.Err() == nil && !s.closing())
}

// closing reports whether Close is tearing the server down.
func (s *IngestServer) closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// handshake reads the client HELLO and resolves its token.
func (s *IngestServer) handshake(sc *bufio.Scanner) (IngestSink, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		msg, err := Parse(line)
		if err != nil {
			return nil, err
		}
		hello, ok := msg.(MsgHello)
		if !ok {
			return nil, fmt.Errorf("canbridge: expected HELLO <token>, got %q", line)
		}
		return s.open(hello.Subject)
	}
	return nil, fmt.Errorf("canbridge: connection closed before HELLO")
}

// ServerError is a protocol-level rejection (an ERR line): the server
// parsed and refused the command.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "canbridge: server rejected command: " + e.Msg }

// StreamConn is the client side of one ingest session: dial, stream
// SEND/ADVANCE commands synchronously, Close to finalise. It never
// redials — a dropped ingest connection means a truncated stream, and
// silently rebinding a fresh session would hide that.
type StreamConn struct {
	conn net.Conn
	rd   *bufio.Reader
}

// DialStream opens an ingest session bound to token.
func DialStream(addr, token string) (*StreamConn, error) {
	conn, rd, err := dialHello(addr)
	if err != nil {
		return nil, err
	}
	c := &StreamConn{conn: conn, rd: rd}
	if err := c.command(MsgHello{Subject: token}); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// dialHello opens a canbridge connection and consumes the server greeting.
func dialHello(addr string) (net.Conn, *bufio.Reader, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("canbridge: dial %s: %w", addr, err)
	}
	rd := bufio.NewReader(conn)
	greeting, err := rd.ReadString('\n')
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("canbridge: reading greeting: %w", err)
	}
	hello, perr := Parse(greeting)
	if h, ok := hello.(MsgHello); perr != nil || !ok || h.Subject != Greeting.Subject {
		conn.Close()
		return nil, nil, fmt.Errorf("canbridge: unexpected greeting %q", strings.TrimSpace(greeting))
	}
	return conn, rd, nil
}

// Send streams one frame into the session.
func (c *StreamConn) Send(f can.Frame) error { return c.command(MsgSend{Frame: f}) }

// Advance moves the session's virtual clock forward.
func (c *StreamConn) Advance(d time.Duration) error { return c.command(MsgAdvance{D: d}) }

// Close finalises the stream; the server-side sink sees a complete
// session.
func (c *StreamConn) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// command writes one line and waits for its OK/ERR.
func (c *StreamConn) command(m Message) error {
	if c.conn == nil {
		return fmt.Errorf("canbridge: stream closed")
	}
	if _, err := fmt.Fprintln(c.conn, Format(m)); err != nil {
		return err
	}
	for {
		line, err := c.rd.ReadString('\n')
		if err != nil {
			return err
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		msg, perr := Parse(line)
		if perr != nil {
			continue
		}
		switch reply := msg.(type) {
		case MsgOK:
			return nil
		case MsgErr:
			return &ServerError{Msg: reply.Msg}
		}
	}
}
