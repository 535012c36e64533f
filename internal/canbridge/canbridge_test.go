package canbridge

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	"dpreverser/internal/can"
	"dpreverser/internal/sim"
	"dpreverser/internal/uds"
	"dpreverser/internal/vehicle"
)

// dial connects a test client with line helpers.
type client struct {
	conn net.Conn
	rd   *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	c := &client{conn: conn, rd: bufio.NewReader(conn)}
	if greeting := c.readLine(t); !strings.HasPrefix(greeting, "HELLO") {
		t.Fatalf("greeting = %q", greeting)
	}
	return c
}

func (c *client) send(t *testing.T, line string) {
	t.Helper()
	if _, err := c.conn.Write([]byte(line + "\n")); err != nil {
		t.Fatal(err)
	}
}

// readLine reads with a deadline so a hung test fails fast.
func (c *client) readLine(t *testing.T) string {
	t.Helper()
	if err := c.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	line, err := c.rd.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(line)
}

// readUntil reads lines until pred matches, returning that line.
func (c *client) readUntil(t *testing.T, pred func(string) bool) string {
	t.Helper()
	for i := 0; i < 200; i++ {
		line := c.readLine(t)
		if pred(line) {
			return line
		}
	}
	t.Fatal("pattern never arrived")
	return ""
}

func startVehicleBridge(t *testing.T) (string, *vehicle.Vehicle) {
	t.Helper()
	p, _ := vehicle.ProfileByCar("Car M")
	clock := sim.NewClock(0)
	veh := vehicle.Build(p, clock)
	t.Cleanup(veh.Close)
	srv := NewServer(veh.Bus, clock)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, veh
}

func TestBridgeInjectAndObserveUDSExchange(t *testing.T) {
	addr, veh := startVehicleBridge(t)
	c := dial(t, addr)

	did := veh.Bindings()[0].ECU.DIDs()[0]
	reqID := veh.Bindings()[0].ReqID
	respID := veh.Bindings()[0].RespID
	req, _ := uds.BuildRDBIRequest(did)
	frame := can.MustFrame(reqID, append([]byte{byte(len(req))}, req...))

	c.send(t, "SEND "+frame.String())

	// The stream must carry our request, the ECU's response, and the OK.
	sawResp := false
	c.readUntil(t, func(line string) bool {
		if strings.Contains(line, strings.ToUpper(frameIDHex(respID))+"#") {
			sawResp = true
		}
		return line == "OK"
	})
	if !sawResp {
		// The response may arrive after OK depending on interleave; scan a
		// little further.
		c.readUntil(t, func(line string) bool {
			return strings.Contains(line, strings.ToUpper(frameIDHex(respID))+"#")
		})
	}
}

func frameIDHex(id uint32) string {
	f := can.Frame{ID: id}
	s := f.String()
	return s[:strings.IndexByte(s, '#')]
}

func TestBridgeAdvanceMovesClock(t *testing.T) {
	addr, veh := startVehicleBridge(t)
	c := dial(t, addr)
	c.send(t, "ADVANCE 1500")
	c.readUntil(t, func(line string) bool { return line == "OK" })
	if veh.Clock.Now() != 1500*time.Millisecond {
		t.Fatalf("clock = %v", veh.Clock.Now())
	}
}

func TestBridgeRejectsBadCommands(t *testing.T) {
	addr, _ := startVehicleBridge(t)
	c := dial(t, addr)
	// An ADVANCE whose milliseconds overflow a Duration once wrapped to a
	// negative one, and the simulated clock's panic took the bridge down;
	// the lines after it check that the bridge still serves.
	for _, bad := range []string{"ADVANCE 18446744073709", "NOPE", "SEND zzz", "ADVANCE xyz", "ADVANCE -5"} {
		c.send(t, bad)
		line := c.readUntil(t, func(l string) bool { return strings.HasPrefix(l, "ERR") })
		if !strings.HasPrefix(line, "ERR") {
			t.Fatalf("response to %q: %q", bad, line)
		}
	}
}

func TestBridgeMultipleClients(t *testing.T) {
	addr, _ := startVehicleBridge(t)
	c1 := dial(t, addr)
	c2 := dial(t, addr)
	// A frame injected by client 1 must reach client 2's stream.
	c1.send(t, "SEND 123#DEADBEEF")
	c2.readUntil(t, func(line string) bool { return strings.Contains(line, "123#DEADBEEF") })
}

func TestBridgeFilterRewritesStream(t *testing.T) {
	p, _ := vehicle.ProfileByCar("Car M")
	clock := sim.NewClock(0)
	veh := vehicle.Build(p, clock)
	t.Cleanup(veh.Close)
	srv := NewServer(veh.Bus, clock)
	// Suppress frame 0x111 and duplicate frame 0x222 — the shape of a
	// fault injector.
	srv.SetFilter(func(f can.Frame) []can.Frame {
		switch f.ID {
		case 0x111:
			return nil
		case 0x222:
			return []can.Frame{f, f}
		}
		return []can.Frame{f}
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	c := dial(t, addr)
	c.send(t, "SEND 111#01")
	c.send(t, "SEND 222#02")
	c.send(t, "SEND 333#03")
	var dups, suppressed int
	c.readUntil(t, func(line string) bool {
		if strings.Contains(line, "111#") {
			suppressed++
		}
		if strings.Contains(line, "222#") {
			dups++
		}
		return strings.Contains(line, "333#")
	})
	if suppressed != 0 {
		t.Fatal("filtered frame leaked to the stream")
	}
	if dups != 2 {
		t.Fatalf("duplicated frame streamed %d times, want 2", dups)
	}
}

func TestConnWriterSlowClientCannotStall(t *testing.T) {
	// Regression: writes used to go to the socket synchronously under the
	// writer's mutex, so one stalled client blocked every bus broadcast.
	// net.Pipe has no buffering at all — the harshest possible peer: the
	// writer goroutine blocks on its very first write and stays blocked.
	server, client := net.Pipe()
	defer client.Close()
	w := newConnWriter(server)

	// Every enqueue must return promptly even though nothing is reading;
	// once the queue overflows, the connection is sacrificed instead.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < writerQueueDepth+8; i++ {
			w.enqueue("frame\n")
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("enqueue blocked on a stalled client")
	}

	// The overflow closed the pipe, which unblocks the writer goroutine;
	// close must therefore join it promptly.
	joined := make(chan struct{})
	go func() {
		w.close()
		close(joined)
	}()
	select {
	case <-joined:
	case <-time.After(5 * time.Second):
		t.Fatal("writer goroutine not joinable after overflow")
	}
}

func TestBridgeBroadcastSurvivesStalledClient(t *testing.T) {
	addr, _ := startVehicleBridge(t)

	// A client that reads its greeting and then never reads again.
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	buf := make([]byte, 64)
	if _, err := stalled.Read(buf); err != nil {
		t.Fatal(err)
	}

	// A healthy client must keep receiving traffic while the stalled one
	// falls arbitrarily far behind.
	c := dial(t, addr)
	for i := 0; i < writerQueueDepth+64; i++ {
		c.send(t, "SEND 7E0#0100")
		// The broadcast echo precedes the OK reply; seeing both every
		// iteration proves the stream is still flowing.
		c.readUntil(t, func(line string) bool { return strings.Contains(line, "7E0#0100") })
		c.readUntil(t, func(line string) bool { return line == "OK" })
	}
}

func TestBridgeCloseIdempotent(t *testing.T) {
	p, _ := vehicle.ProfileByCar("Car M")
	clock := sim.NewClock(0)
	veh := vehicle.Build(p, clock)
	defer veh.Close()
	srv := NewServer(veh.Bus, clock)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
