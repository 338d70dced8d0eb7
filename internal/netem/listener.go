package netem

import (
	"fmt"
	"net"
	"sync"
)

// Listener is an in-memory net.Listener: Dial hands Accept the other end of
// a net.Pipe. It shapes no byte. A session charges its downloads on a
// SessionNet in virtual time; the listener only carries the HTTP exchange
// in process, without loopback TCP.
type Listener struct {
	acc  chan net.Conn
	done chan struct{}
	once sync.Once
}

// Listen returns an in-memory listener for a profile that shapes nothing:
// every phase's Params must be the zero value, as in "ideal" (at any MTU).
// The seed, time-scale and metrics arguments are ignored. They remain only
// for the benchmark harness's call, and go once it moves to a listener
// without them.
func Listen(p *Profile, _ int64, _ float64, _ *Metrics) (*Listener, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	for i, ph := range p.Phases {
		if ph.Params != (Params{}) {
			return nil, fmt.Errorf("netem: Listen carries bytes unshaped, but profile %q phase %d shapes them", p.Name, i)
		}
	}
	return &Listener{acc: make(chan net.Conn), done: make(chan struct{})}, nil
}

// Dial opens a connection, handing its other end to Accept.
func (l *Listener) Dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.acc <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, net.ErrClosed
	}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.acc:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener: pending and later Dial and Accept calls
// return net.ErrClosed.
func (l *Listener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return pipeAddr{} }

// pipeAddr is the listener's address, named as net.Pipe names its ends.
type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
