package canbridge

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"time"

	"dpreverser/internal/can"
)

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
