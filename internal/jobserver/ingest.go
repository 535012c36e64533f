package jobserver

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"time"

	"dpreverser/internal/can"
	"dpreverser/internal/canbridge"
	"dpreverser/internal/reverser"
	"dpreverser/internal/rig"
	"dpreverser/internal/telemetry"
)

// The ingest guardrails every stream runs under: a stream whose peer sends
// nothing for ingestIdleTimeout (counted from registration, so a token
// that is never presented expires too), or that streams more than
// ingestMaxFrames frames, is failed with the limit's reason, so an idle or
// endless peer cannot hold its tenant-quota slot or the server's memory.
// A frame carries at most can.MaxDataLen payload bytes, so the frame
// budget also bounds a stream's payload at 16 MiB.
const ingestIdleTimeout = 2 * time.Minute

// ingestMaxFrames is a variable only so tests can lower it.
var ingestMaxFrames = 2_000_000

// The reasons a guardrail fails a stream for. Each is also the stream's
// outcome label in dpreverser_stream_sessions_total.
const (
	reasonIdleTimeout = "idle-timeout"
	reasonFrameBudget = "frame-budget"
)

// StreamRegistration is what a tenant gets back from registering a live
// stream: the job (in Streaming state) and the one-shot session token to
// present in the canbridge HELLO.
type StreamRegistration struct {
	Job   *Job
	Token string
}

// streamSession is one registered live stream, from registration to its
// end. Server.streams keys it by token, and the HELLO that presents the
// token binds it to that connection, once. mu guards every field below
// it, so the connection's serve loop, the idle sweep, Cancel and drain
// can each end the stream, and end settles it exactly once.
type streamSession struct {
	srv   *Server
	job   *Job
	token string

	mu         sync.Mutex
	conn       net.Conn      // nil until a HELLO binds the stream
	lastActive time.Duration // server clock at registration or the last line read
	at         time.Duration // stream time: ADVANCE moves it, SEND stamps it
	frames     []can.Frame
	failReason string
	ended      bool
}

// RegisterStream admits a streaming job. The capture arrives afterwards
// over the ingest listener, bound by the returned token; a clean session
// end (client EOF) queues the job, a dropped or aborted session fails it.
// Registration counts against the tenant quota like any other live job.
func (s *Server) RegisterStream(tenant, car, streamName string) (StreamRegistration, error) {
	var buf [12]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return StreamRegistration{}, fmt.Errorf("jobserver: stream token: %w", err)
	}
	token := hex.EncodeToString(buf[:])

	s.mu.Lock()
	j, err := s.admitLocked(tenant, car, streamName, Streaming)
	if err != nil {
		s.mu.Unlock()
		s.logRejection(tenant, err)
		return StreamRegistration{}, err
	}
	s.streams[token] = &streamSession{srv: s, job: j, token: token, lastActive: j.submitted}
	s.mu.Unlock()
	j.log.Info("stream-registered")
	return StreamRegistration{Job: j, Token: token}, nil
}

// ServeIngest starts the canbridge ingest listener on addr ("127.0.0.1:0"
// for an ephemeral port) and returns the bound address. The listener is
// torn down with the server. A session:
//
//	server → client:  HELLO canbridge 1
//	client → server:  HELLO <token>         bind the registered stream
//	server → client:  OK                    (or ERR + close for a bad token)
//	client → server:  SEND 7E0#0210...      one frame, stamped at stream time
//	client → server:  ADVANCE 50            advance stream time 50 ms
//	client → server:  (EOF)                 finalise the stream
//
// Stream time starts at zero and moves only on ADVANCE, so the assembled
// capture is as deterministic as the client's own frame ordering.
func (s *Server) ServeIngest(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("jobserver: ingest listen: %w", err)
	}
	s.mu.Lock()
	if s.draining || s.ingest != nil {
		s.mu.Unlock()
		l.Close()
		return "", fmt.Errorf("jobserver: server is draining or already serving ingest")
	}
	s.ingest = l
	s.ingestWG.Add(1)
	s.mu.Unlock()
	go s.acceptStreams(l)
	return l.Addr().String(), nil
}

func (s *Server) acceptStreams(l net.Listener) {
	defer s.ingestWG.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = s.clock.Now()
		s.ingestWG.Add(1)
		s.mu.Unlock()
		go s.serveStream(conn)
	}
}

// serveStream runs one ingest connection: the greeting, the HELLO that
// binds a stream, then SEND and ADVANCE lines until the peer hangs up or
// the stream is cut.
func (s *Server) serveStream(conn net.Conn) {
	defer s.ingestWG.Done()
	defer conn.Close()
	fmt.Fprintln(conn, canbridge.Format(canbridge.Greeting))
	sc := bufio.NewScanner(conn)
	ss, err := s.bindStream(conn, sc)
	if err != nil {
		fmt.Fprintln(conn, canbridge.Format(canbridge.MsgErr{Msg: err.Error()}))
		return
	}
	fmt.Fprintln(conn, canbridge.Format(canbridge.MsgOK{}))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		reply, stop := ss.command(line)
		fmt.Fprintln(conn, canbridge.Format(reply))
		if stop {
			break
		}
	}
	// EOF with no scanner error is a clean finalisation; a closed or
	// dropped connection is a truncated stream.
	ss.end(sc.Err() == nil)
}

// bindStream reads the client's HELLO and binds the stream its token
// names. The connection leaves the awaiting-HELLO table either way.
func (s *Server) bindStream(conn net.Conn, sc *bufio.Scanner) (*streamSession, error) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	line := ""
	for line == "" && sc.Scan() {
		line = strings.TrimSpace(sc.Text())
	}
	if line == "" {
		return nil, fmt.Errorf("jobserver: connection closed before HELLO")
	}
	msg, err := canbridge.Parse(line)
	if err != nil {
		return nil, err
	}
	hello, ok := msg.(canbridge.MsgHello)
	if !ok {
		return nil, fmt.Errorf("jobserver: expected HELLO <token>, got %q", line)
	}
	s.mu.Lock()
	ss := s.streams[hello.Subject]
	s.mu.Unlock()
	if ss == nil || !ss.bind(conn, s.clock.Now()) {
		s.met.StreamSessions.With("rejected").Inc()
		return nil, fmt.Errorf("jobserver: unknown or already-bound stream token")
	}
	return ss, nil
}

// bind attaches the stream to conn unless it is bound or has ended.
func (ss *streamSession) bind(conn net.Conn, now time.Duration) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.conn != nil || ss.ended {
		return false
	}
	ss.conn, ss.lastActive = conn, now
	return true
}

// command applies one stream line and returns the reply. stop reports a
// tripped budget: the reply is the stream's last.
func (ss *streamSession) command(line string) (reply canbridge.Message, stop bool) {
	msg, err := canbridge.Parse(line)
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.lastActive = ss.srv.clock.Now()
	switch m := msg.(type) {
	case canbridge.MsgSend:
		if len(ss.frames) >= ingestMaxFrames {
			ss.failReason = reasonFrameBudget
			return canbridge.MsgErr{Msg: "jobserver: stream " + reasonFrameBudget + " exceeded"}, true
		}
		f := m.Frame
		f.Timestamp = ss.at
		ss.frames = append(ss.frames, f)
		return canbridge.MsgOK{}, false
	case canbridge.MsgAdvance:
		if m.D > math.MaxInt64-ss.at {
			err = fmt.Errorf("jobserver: ADVANCE %v would carry stream time past its largest value", m.D)
			break
		}
		ss.at += m.D
		return canbridge.MsgOK{}, false
	default:
		if err == nil {
			err = fmt.Errorf("jobserver: unexpected %q during a stream", strings.Fields(line)[0])
		}
	}
	return canbridge.MsgErr{Msg: err.Error()}, false
}

// stop ends the stream from outside its connection, failing it for reason
// when one is given. A bound stream's connection is closed, which also
// unblocks a stalled write, and its serve loop then ends it; an unbound
// stream ends here.
func (ss *streamSession) stop(reason string) {
	ss.mu.Lock()
	if ss.failReason == "" {
		ss.failReason = reason
	}
	conn := ss.conn
	ss.mu.Unlock()
	if conn != nil {
		conn.Close()
		return
	}
	ss.end(false)
}

// end settles the stream once. complete means the client hung up
// cleanly; a guardrail reason, a job already ended or a draining server
// overrides it. A complete stream is screened for attack signatures and,
// if clean, queues its job with the frames it carried.
func (ss *streamSession) end(complete bool) {
	ss.mu.Lock()
	if ss.ended {
		ss.mu.Unlock()
		return
	}
	ss.ended = true
	frames, reason := ss.frames, ss.failReason
	ss.frames = nil
	ss.mu.Unlock()

	s, j := ss.srv, ss.job
	s.mu.Lock()
	delete(s.streams, ss.token)
	draining := s.draining
	s.mu.Unlock()

	outcome, errMsg := "complete", ""
	attrs := []telemetry.Attr{telemetry.Int("frames", len(frames))}
	switch {
	case j.State().Terminal():
		// Cancelled while streaming; the books are already settled.
		outcome = "truncated"
		attrs = append(attrs, telemetry.String("detail", "job already terminal"))
	case reason != "":
		// A guardrail kill carries its reason through to the session
		// metric and the job's terminal error.
		outcome, errMsg = reason, "stream session failed: "+reason
	case !complete:
		outcome, errMsg = "truncated", "stream truncated before completion"
	case draining:
		// The worker fleet may already be past the point of picking the
		// job up; refuse rather than strand it in the queue.
		outcome, errMsg = "truncated", "stream completed during server drain"
	default:
		// Transport-layer attack screening: a capture carrying attack
		// signatures is rejected before it can occupy a worker.
		if findings := reverser.ScreenFrames(frames); len(findings) > 0 {
			classes := make([]string, 0, len(findings))
			for _, f := range findings {
				classes = append(classes, fmt.Sprintf("%s on %03X", f.Class, f.ID))
			}
			sigs := strings.Join(classes, "; ")
			outcome, errMsg = "attack-rejected", "stream rejected at admission: attack signatures: "+sigs
			attrs = append(attrs, telemetry.String("signatures", sigs))
		}
	}
	s.met.StreamSessions.With(outcome).Inc()
	attrs = append(attrs, telemetry.String("outcome", outcome))
	if outcome != "complete" {
		j.log.Warn("stream-session-end", attrs...)
		if errMsg != "" {
			s.finalize(j, Failed, nil, errMsg)
		}
		return
	}
	j.log.Info("stream-session-end", attrs...)

	j.mu.Lock()
	if j.state.Terminal() { // cancelled since the check above
		j.mu.Unlock()
		return
	}
	j.capture = rig.Capture{Car: j.Car, Frames: frames}
	j.frames = len(frames)
	j.state = Queued
	j.notifyLocked()
	j.mu.Unlock()
	s.met.JobsByState.With(Streaming.String()).Add(-1)
	s.met.JobsByState.With(Queued.String()).Add(1)
	s.enqueue(j)
}

// expireIdleStreams fails every stream, bound or not, that has been
// silent for ingestIdleTimeout, and closes every connection that has
// waited that long without a HELLO. It returns how many it expired. The
// sweeper runs it on a wall-clock server; tests on a manual clock call it
// after advancing time.
func (s *Server) expireIdleStreams() int {
	now := s.clock.Now()
	var stale []net.Conn
	s.mu.Lock()
	for conn, at := range s.conns {
		if now-at >= ingestIdleTimeout {
			stale = append(stale, conn)
		}
	}
	s.mu.Unlock()
	for _, conn := range stale {
		conn.Close()
	}
	n := len(stale)
	for _, ss := range s.liveStreams() {
		ss.mu.Lock()
		idle := !ss.ended && ss.failReason == "" && now-ss.lastActive >= ingestIdleTimeout
		ss.mu.Unlock()
		if idle {
			ss.stop(reasonIdleTimeout)
			n++
		}
	}
	return n
}

// sweepIdle runs expireIdleStreams every quarter of ingestIdleTimeout
// until the server drains. New starts it on every wall-clock server,
// whether or not ServeIngest is called, since registered streams need
// expiring either way.
func (s *Server) sweepIdle() {
	defer s.ingestWG.Done()
	//dplint:allow determinism the sweep is paced in wall time; a manual-clock server runs no sweeper
	tick := time.NewTicker(ingestIdleTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-tick.C:
			s.expireIdleStreams()
		}
	}
}

// stopIngest tears the ingest layer down once admission is off: the
// sweeper and the listener stop, connections awaiting HELLO are closed, a
// bound stream is cut (its job fails as truncated) and a stream never
// dialled is cancelled, like a queued job. It returns once every ingest
// goroutine has exited.
func (s *Server) stopIngest() {
	close(s.quit)
	s.mu.Lock()
	l := s.ingest
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, conn := range conns {
		conn.Close()
	}
	for _, ss := range s.liveStreams() {
		ss.mu.Lock()
		bound := ss.conn != nil
		ss.mu.Unlock()
		if !bound {
			s.finalize(ss.job, Cancelled, nil, "")
		}
		ss.stop("")
	}
	s.ingestWG.Wait()
}

// stopStreamOf ends the live stream feeding j, if any. Cancel calls it,
// so a cancelled job's connection is closed instead of left open.
func (s *Server) stopStreamOf(j *Job) {
	for _, ss := range s.liveStreams() {
		if ss.job == j {
			ss.stop("")
			return
		}
	}
}

// liveStreams snapshots the registered streams, so they can be ended
// without holding the server lock.
func (s *Server) liveStreams() []*streamSession {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*streamSession, 0, len(s.streams))
	for _, ss := range s.streams {
		out = append(out, ss)
	}
	return out
}
