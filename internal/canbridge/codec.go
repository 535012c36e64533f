package canbridge

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"dpreverser/internal/can"
)

// This file is the single home of the canbridge wire grammar. Every end
// of the line protocol — the Server that exposes a simulated bus,
// StreamConn, the client side of an ingest session, and the job server's
// ingest listener (internal/jobserver) that accepts live streams into
// reverse-engineering jobs — parses and formats messages through Parse
// and Format, so the sides cannot drift apart.
//
// One message is one line. The grammar:
//
//	HELLO canbridge 1          greeting (server → client)
//	HELLO <token>              ingest-session handshake (client → server)
//	SEND 7E0#021003            inject / stream one frame (no timestamp)
//	ADVANCE 500                advance the virtual clock by 500 ms (at most
//	                           math.MaxInt64 ns, in whole milliseconds)
//	OK                         command accepted
//	ERR <message>              command refused
//	(000001.500000) 7E8#0650   bus traffic, candump notation

// Greeting is the HELLO every canbridge listener sends on accept.
var Greeting = MsgHello{Subject: "canbridge", Version: 1}

// Message is one protocol line, as a typed value. The concrete types are
// MsgHello, MsgSend, MsgAdvance, MsgOK, MsgErr and MsgFrame.
type Message interface {
	// line renders the message in wire form, without the trailing newline.
	line() string
}

// MsgHello is the HELLO line. The server greets with Subject "canbridge"
// and Version 1; an ingest client answers with its stream token as the
// Subject (Version 0, omitted on the wire).
type MsgHello struct {
	Subject string
	Version int
}

func (m MsgHello) line() string {
	if m.Version > 0 {
		return fmt.Sprintf("HELLO %s %d", m.Subject, m.Version)
	}
	return "HELLO " + m.Subject
}

// MsgSend injects one frame. The frame's Timestamp is not carried on the
// wire: the receiving side stamps it from its own virtual clock.
type MsgSend struct {
	Frame can.Frame
}

func (m MsgSend) line() string { return "SEND " + m.Frame.String() }

// MsgAdvance moves the receiver's virtual clock forward. The wire carries
// whole milliseconds.
type MsgAdvance struct {
	D time.Duration
}

func (m MsgAdvance) line() string { return fmt.Sprintf("ADVANCE %d", m.D.Milliseconds()) }

// MsgOK acknowledges the preceding command.
type MsgOK struct{}

func (MsgOK) line() string { return "OK" }

// MsgErr refuses the preceding command.
type MsgErr struct {
	Msg string
}

func (m MsgErr) line() string { return "ERR " + m.Msg }

// MsgFrame is one streamed bus frame, candump notation with a timestamp.
type MsgFrame struct {
	Frame can.Frame
}

func (m MsgFrame) line() string {
	return fmt.Sprintf("(%012.6f) %s", m.Frame.Timestamp.Seconds(), m.Frame.String())
}

// Format renders a message as its wire line, without the trailing newline.
func Format(m Message) string { return m.line() }

// Parse reads one wire line (already stripped of its newline) into a typed
// message. Leading/trailing whitespace is tolerated; verbs are
// case-insensitive, matching the historical server behaviour.
func Parse(line string) (Message, error) {
	line = strings.TrimSpace(line)
	if line == "" {
		return nil, fmt.Errorf("canbridge: empty line")
	}
	if strings.HasPrefix(line, "(") {
		f, err := can.ParseDumpLine(line)
		if err != nil {
			return nil, err
		}
		return MsgFrame{Frame: f}, nil
	}
	verb, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch strings.ToUpper(verb) {
	case "HELLO":
		subject, verText, _ := strings.Cut(rest, " ")
		if subject == "" {
			return nil, fmt.Errorf("canbridge: HELLO without a subject")
		}
		m := MsgHello{Subject: subject}
		if verText = strings.TrimSpace(verText); verText != "" {
			v, err := strconv.Atoi(verText)
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("canbridge: bad HELLO version %q", verText)
			}
			m.Version = v
		}
		return m, nil
	case "SEND":
		// The SEND payload is timestamp-less; reuse the dump parser by
		// prefixing a zero timestamp.
		f, err := can.ParseDumpLine("(000000.000000) " + rest)
		if err != nil {
			return nil, err
		}
		return MsgSend{Frame: f}, nil
	case "ADVANCE":
		// The bound keeps ms·1e6 from wrapping into a negative Duration.
		ms, err := strconv.ParseInt(rest, 10, 64)
		if err != nil || ms < 0 || ms > math.MaxInt64/int64(time.Millisecond) {
			return nil, fmt.Errorf("canbridge: bad ADVANCE argument %q", rest)
		}
		return MsgAdvance{D: time.Duration(ms) * time.Millisecond}, nil
	case "OK":
		if rest != "" {
			return nil, fmt.Errorf("canbridge: OK takes no argument, got %q", rest)
		}
		return MsgOK{}, nil
	case "ERR":
		return MsgErr{Msg: rest}, nil
	default:
		return nil, fmt.Errorf("canbridge: unknown command %q", verb)
	}
}
