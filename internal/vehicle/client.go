package vehicle

import (
	"errors"
	"fmt"

	"dpreverser/internal/isotp"
	"dpreverser/internal/obd"
	"dpreverser/internal/vwtp"
)

// Client is a tool-side connection to one ECU: synchronous request /
// response over whatever transport the car uses. The simulated diagnostic
// tools hold one Client per ECU they talk to.
type Client interface {
	// Request sends one application-layer request and returns the
	// response payload.
	Request(req []byte) ([]byte, error)
	// Close releases the transport binding.
	Close()
}

// ErrNoResponse reports that the ECU did not answer (wrong address, closed
// vehicle, or the request never completed).
var ErrNoResponse = errors.New("vehicle: no response from ECU")

// Connect opens a tool-side client to the ECU behind binding b.
func Connect(v *Vehicle, b ECUBinding) (Client, error) {
	switch v.Profile.Transport {
	case ISOTP, BMWExt:
		cfg := isotp.EndpointConfig{TxID: b.ReqID, RxID: b.RespID, Pad: 0xCC}
		if v.Profile.Transport == BMWExt {
			cfg = isotp.EndpointConfig{TxID: b.ReqID, RxID: b.RespID, Extended: true, TxAddr: b.Addr, RxAddr: testerAddr}
		}
		return newEndpointClient(func(onMsg func([]byte)) (sender, func()) {
			ep := isotp.NewEndpoint(v.Bus, cfg)
			ep.OnMessage = onMsg
			return ep, ep.Close
		}), nil
	case VWTP:
		ch, err := vwtp.Dial(v.Bus, b.Addr)
		if err != nil {
			return nil, fmt.Errorf("vehicle connect: %w", err)
		}
		c := &endpointClient{send: ch, close: ch.Close}
		ch.OnMessage = c.deliver
		return c, nil
	default:
		return nil, fmt.Errorf("vehicle connect: unknown transport %v", v.Profile.Transport)
	}
}

// ConnectOBD opens a client on the standard OBD-II functional address.
func ConnectOBD(v *Vehicle) Client {
	return newEndpointClient(func(onMsg func([]byte)) (sender, func()) {
		ep := isotp.NewEndpoint(v.Bus, isotp.EndpointConfig{
			TxID: obd.FunctionalRequestID, RxID: obd.FirstResponseID, Pad: 0x55,
		})
		ep.OnMessage = onMsg
		return ep, ep.Close
	})
}

// sender abstracts the transport endpoints' Send method.
type sender interface {
	Send(payload []byte) error
}

type endpointClient struct {
	send  sender
	close func()
	last  []byte
}

func newEndpointClient(build func(onMsg func([]byte)) (sender, func())) *endpointClient {
	c := &endpointClient{}
	c.send, c.close = build(c.deliver)
	return c
}

func (c *endpointClient) deliver(p []byte) {
	c.last = append([]byte(nil), p...)
}

// Request exploits the synchronous simulated bus: the response handler has
// already run by the time Send returns.
func (c *endpointClient) Request(req []byte) ([]byte, error) {
	c.last = nil
	if err := c.send.Send(req); err != nil {
		return nil, err
	}
	if c.last == nil {
		return nil, ErrNoResponse
	}
	return c.last, nil
}

func (c *endpointClient) Close() {
	if c.close != nil {
		c.close()
		c.close = nil
	}
}
