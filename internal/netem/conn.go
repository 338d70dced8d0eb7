package netem

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ptile360/internal/stats"
)

// ErrLinkDead reports that the emulated link dropped a chunk past its
// retransmission budget; the connection is unusable afterwards.
var ErrLinkDead = errors.New("netem: link dead")

// A Conn direction moves bytes in chunks: each Write copies a run of up to
// chunkPackets MTU packets into one pooled chunk, and at most
// connQueueChunks chunks queue per direction — so at most
// chunkPackets × connQueueChunks = 256 MTU packets are ever in flight.
const (
	chunkPackets    = 64
	connQueueChunks = 4
)

// chunk is one run of in-order MTU packets crossing a Conn direction.
// Packet i holds data[i·mtu : (i+1)·mtu] and becomes readable at due[i],
// a wall-clock offset from the pipe's start; in-order delivery makes due
// non-decreasing. off is the reader's position in data.
type chunk struct {
	data []byte
	mtu  int
	due  [chunkPackets]time.Duration
	off  int
}

// chunkPool recycles chunks: the reader returns each one once drained.
var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// newChunk copies payload (at most chunkPackets MTU packets) into a pooled
// chunk.
func newChunk(payload []byte, mtu int) *chunk {
	ck := chunkPool.Get().(*chunk)
	if cap(ck.data) < len(payload) {
		ck.data = make([]byte, 0, chunkPackets*mtu)
	}
	ck.data = append(ck.data[:0], payload...)
	ck.mtu, ck.off = mtu, 0
	return ck
}

// packets returns the number of MTU packets the chunk carries.
func (ck *chunk) packets() int { return (len(ck.data) + ck.mtu - 1) / ck.mtu }

// readyEnd returns the end of the unread bytes whose packets are due at
// now; the packet holding the first unread byte must already be due.
func (ck *chunk) readyEnd(now time.Duration) int {
	i := ck.off / ck.mtu
	for i+1 < ck.packets() && ck.due[i+1] <= now {
		i++
	}
	return min((i+1)*ck.mtu, len(ck.data))
}

// dirState is one direction of an emulated connection: a Link plus the
// loss RNG and the in-order delivery clamp. Guarded by mu because HTTP
// stacks write from multiple goroutines over a connection's lifetime.
type dirState struct {
	mu          sync.Mutex
	link        *Link
	rng         *stats.RNG
	lastDeliver float64
	metrics     *Metrics
}

// Conn is one end of an emulated duplex connection. Bytes written on one
// end arrive on the other after the link's emulated queueing, propagation,
// loss-retransmission, and droptail-retransmission delays — in order and
// reliably, like TCP over the lossy link. The wall-clock mapping is
// emulated-seconds = elapsed-real-seconds × timeScale.
//
// Conn implements net.Conn including read deadlines, which http.Server's
// idle timeout relies on.
type Conn struct {
	name string

	// out is this end's transmit direction; in is the peer's.
	out *dirState
	ch  chan *chunk // peer -> us deliveries; closed by peer's Close

	peer *Conn

	start     time.Time
	timeScale float64

	readDeadline connDeadline

	localDone chan struct{}
	closeOnce sync.Once
	broken    atomic.Bool // set when the link died mid-write

	// pending is a delivered chunk the reader has not drained yet
	// (single-reader, like net.Conn's contract).
	pending *chunk
}

// Pipe returns a connected client/server pair running over two fresh links
// compiled from the profile (one per direction). seed drives both loss
// processes; timeScale ≤ 0 defaults to 1 (real time). m may be nil.
func Pipe(p *Profile, seed int64, timeScale float64, m *Metrics) (client, server net.Conn, err error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if timeScale <= 0 || math.IsNaN(timeScale) || math.IsInf(timeScale, 0) {
		timeScale = 1
	}
	mk := func(seed int64) (*dirState, error) {
		link, err := NewLink(p)
		if err != nil {
			return nil, err
		}
		return &dirState{link: link, rng: stats.NewRNG(seed), metrics: m}, nil
	}
	up, err := mk(seed)
	if err != nil {
		return nil, nil, err
	}
	down, err := mk(seed + 1)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	c := &Conn{name: "client", out: up, start: start, timeScale: timeScale,
		ch: make(chan *chunk, connQueueChunks), localDone: make(chan struct{}), readDeadline: makeConnDeadline()}
	s := &Conn{name: "server", out: down, start: start, timeScale: timeScale,
		ch: make(chan *chunk, connQueueChunks), localDone: make(chan struct{}), readDeadline: makeConnDeadline()}
	c.peer, s.peer = s, c
	return c, s, nil
}

// emuNow maps the wall clock into emulated seconds since the pipe opened.
func (c *Conn) emuNow() float64 {
	return time.Since(c.start).Seconds() * c.timeScale
}

// Write sends p toward the peer through this end's emulated link. Each run
// of up to 64 MTU packets is copied once into a pooled chunk and pushed
// through the link under one lock; every packet still draws its own loss,
// retransmits at +RTO on loss or droptail, and is clamped to in-order
// delivery, and the chunk records each packet's delivery time. Write
// blocks only when the peer's four-chunk delivery queue is full.
func (c *Conn) Write(p []byte) (int, error) {
	if c.broken.Load() {
		return 0, ErrLinkDead
	}
	select {
	case <-c.localDone:
		return 0, io.ErrClosedPipe
	case <-c.peer.localDone:
		return 0, io.ErrClosedPipe
	default:
	}
	written := 0
	mtu := c.out.link.MTU()
	for written < len(p) {
		end := min(written+chunkPackets*mtu, len(p))
		ck := newChunk(p[written:end], mtu)
		if err := c.out.transmit(ck, c.emuNow(), c.timeScale); err != nil {
			chunkPool.Put(ck)
			c.broken.Store(true)
			c.peer.broken.Store(true)
			return written, err
		}
		select {
		case c.peer.ch <- ck:
		case <-c.localDone:
			return written, io.ErrClosedPipe
		case <-c.peer.localDone:
			return written, io.ErrClosedPipe
		}
		written = end
	}
	return written, nil
}

// transmit pushes the chunk's packets through the direction's link in
// order, all sent at emulated time at: each packet is retried at +RTO on
// loss or droptail, and its emulated arrival, clamped to in-order
// delivery, is recorded in ck.due as a wall-clock offset from the pipe's
// start.
func (d *dirState) transmit(ck *chunk, at, timeScale float64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := 0; i < ck.packets(); i++ {
		size := min(ck.mtu, len(ck.data)-i*ck.mtu)
		t := at
		for attempt := 0; ; attempt++ {
			if attempt >= maxSendAttempts {
				return fmt.Errorf("%w: packet dropped %d times at t=%.3f", ErrLinkDead, attempt, t)
			}
			p := d.link.ParamsAt(t)
			rto := math.Max(2*p.RTTSec, minRTOSec)
			if p.LossProb > 0 && d.rng.Float64() < p.LossProb {
				d.metrics.dropLoss()
				d.metrics.retransmit()
				t += rto
				continue
			}
			served, dropped := d.link.Send(size, t)
			if dropped {
				d.metrics.dropTail()
				d.metrics.retransmit()
				t += rto
				continue
			}
			if math.IsInf(served, 1) {
				return fmt.Errorf("%w: service horizon exceeded at t=%.3f", ErrLinkDead, t)
			}
			d.metrics.packet(served - t)
			d.lastDeliver = math.Max(served+p.RTTSec/2, d.lastDeliver)
			ck.due[i] = time.Duration(d.lastDeliver / timeScale * float64(time.Second))
			break
		}
	}
	return nil
}

// Read receives in-order bytes from the peer. It waits until the packet
// holding the first unread byte is due on the (scaled) wall clock, then
// returns every following byte whose packet is due too — never a byte
// early. A drained chunk goes back to the pool.
func (c *Conn) Read(p []byte) (int, error) {
	if c.broken.Load() {
		return 0, ErrLinkDead
	}
	for {
		// Local close wins over any other ready case (net.Pipe semantics).
		select {
		case <-c.localDone:
			return 0, io.ErrClosedPipe
		default:
		}
		if ck := c.pending; ck != nil {
			if err := c.waitUntil(ck.due[ck.off/ck.mtu]); err != nil {
				return 0, err
			}
			n := copy(p, ck.data[ck.off:ck.readyEnd(time.Since(c.start))])
			ck.off += n
			if ck.off == len(ck.data) {
				c.pending = nil
				chunkPool.Put(ck)
			}
			return n, nil
		}
		select {
		case ck, ok := <-c.ch:
			if !ok {
				return 0, io.EOF
			}
			c.pending = ck
		case <-c.readDeadline.wait():
			return 0, os.ErrDeadlineExceeded
		case <-c.localDone:
			return 0, io.ErrClosedPipe
		case <-c.peerClosed():
			// Peer closed: drain anything already in flight, then EOF.
			select {
			case ck, ok := <-c.ch:
				if !ok {
					return 0, io.EOF
				}
				c.pending = ck
			default:
				return 0, io.EOF
			}
		}
	}
}

// peerClosed returns the peer's done channel (closed on peer Close).
func (c *Conn) peerClosed() <-chan struct{} { return c.peer.localDone }

// waitUntil blocks until due has passed since the pipe opened, the read
// deadline fires, or the conn closes.
func (c *Conn) waitUntil(due time.Duration) error {
	d := due - time.Since(c.start)
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.readDeadline.wait():
		return os.ErrDeadlineExceeded
	case <-c.localDone:
		return io.ErrClosedPipe
	}
}

// Close shuts this end down: blocked reads and writes on both ends wake.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.localDone) })
	return nil
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return netemAddr(c.name) }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return netemAddr(c.peer.name) }

// SetDeadline implements net.Conn; only the read side is enforced (writes
// never block on the emulated wire beyond backpressure).
func (c *Conn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.readDeadline.set(t)
	return nil
}

// SetWriteDeadline implements net.Conn as a no-op.
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }

type netemAddr string

func (a netemAddr) Network() string { return "netem" }
func (a netemAddr) String() string  { return "netem:" + string(a) }

// connDeadline mirrors net.Pipe's deadline helper: wait() returns a channel
// that is closed once the deadline passes; set replaces it.
type connDeadline struct {
	mu     sync.Mutex
	timer  *time.Timer
	cancel chan struct{}
}

func makeConnDeadline() connDeadline {
	return connDeadline{cancel: make(chan struct{})}
}

func (d *connDeadline) set(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.timer != nil && !d.timer.Stop() {
		<-d.cancel // timer fired: drain by replacing below
	}
	d.timer = nil
	closed := isClosedChan(d.cancel)
	if t.IsZero() {
		if closed {
			d.cancel = make(chan struct{})
		}
		return
	}
	dur := time.Until(t)
	if dur <= 0 {
		if !closed {
			close(d.cancel)
		}
		return
	}
	if closed {
		d.cancel = make(chan struct{})
	}
	cancel := d.cancel
	d.timer = time.AfterFunc(dur, func() {
		close(cancel)
	})
}

func (d *connDeadline) wait() chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cancel
}

func isClosedChan(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// Listener is an in-memory net.Listener whose accepted connections run over
// the emulated link. Dial it from an http.Transport via DialContext; each
// dialled connection forks a fresh deterministic seed.
type Listener struct {
	profile   *Profile
	timeScale float64
	metrics   *Metrics

	mu    sync.Mutex
	seed  int64
	dials int64
	acc   chan net.Conn
	done  chan struct{}
	once  sync.Once
}

// Listen builds a listener over the profile. timeScale ≤ 0 means real time.
func Listen(p *Profile, seed int64, timeScale float64, m *Metrics) (*Listener, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Listener{
		profile:   p,
		timeScale: timeScale,
		metrics:   m,
		seed:      seed,
		acc:       make(chan net.Conn, 16),
		done:      make(chan struct{}),
	}, nil
}

// Dial opens a new emulated connection, handing the server end to Accept.
func (l *Listener) Dial() (net.Conn, error) {
	select {
	case <-l.done:
		return nil, net.ErrClosed
	default:
	}
	l.mu.Lock()
	l.dials++
	// Pipe consumes seed and seed+1; stride past both per dial.
	seed := l.seed + l.dials*2
	l.mu.Unlock()
	client, server, err := Pipe(l.profile, seed, l.timeScale, l.metrics)
	if err != nil {
		return nil, err
	}
	select {
	case l.acc <- server:
		return client, nil
	case <-l.done:
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

// Close implements net.Listener.
func (l *Listener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return netemAddr("listener:" + l.profile.Name) }
