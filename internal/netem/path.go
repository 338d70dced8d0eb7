package netem

import (
	"fmt"
	"math"

	"ptile360/internal/stats"
)

// PacketSample is one delivered packet's timing as the receiver saw it —
// the raw input of a delay-gradient estimator.
type PacketSample struct {
	// SendSec is when the sender put the packet on the wire.
	SendSec float64
	// RecvSec is when the packet arrived at the client.
	RecvSec float64
	// Bytes is the packet size.
	Bytes int
}

// SessionConfig configures one client's packet-level download path.
type SessionConfig struct {
	// Profile is the link schedule. Required.
	Profile *Profile
	// Seed drives the loss process; identical seeds replay identically.
	Seed int64
	// SegmentSec is the media duration of one segment, used to derive the
	// paced sending rate. Required when PaceFactor > 0.
	SegmentSec float64
	// PaceFactor scales the paced sending rate: the server transmits at
	// PaceFactor × sizeBits/SegmentSec instead of dumping the whole
	// segment as one burst. 0 disables pacing (burst dump).
	PaceFactor float64
	// Metrics optionally publishes netem_* instruments; nil is silent.
	Metrics *Metrics
}

// SessionStats aggregates one session's packet accounting.
type SessionStats struct {
	Packets     int
	DropsTail   int
	DropsLoss   int
	Retransmits int
	Downloads   int
}

// SessionNet is a deterministic packet-level download path: request
// propagation, packetization, (optionally paced) sending through the shared
// droptail Link, i.i.d. loss, and RTO-driven retransmission — all solved in
// virtual time. For a fixed (Profile, Seed) every Download sequence is
// bit-identical across runs, machines, and worker counts.
//
// A SessionNet is single-session state, like *lte.Trace in the
// segment-level model, and is not safe for concurrent use.
type SessionNet struct {
	cfg   SessionConfig
	link  *Link
	rng   *stats.RNG
	stats SessionStats

	// packets holds the delivered samples of the most recent Download, in
	// arrival order, reused across calls.
	packets []PacketSample
	// pending holds the retransmissions a Download has scheduled and not yet
	// sent: pending[pendHead:] sorted by (atSec, seq), the storage reused
	// across calls. First transmissions never wait here; they leave in seq
	// order from a cursor, since their send times already ascend.
	pending  []pendingSend
	pendHead int
}

// pendingSend is one packet awaiting (re)transmission.
type pendingSend struct {
	atSec    float64
	seq      int // stable tie-break and FIFO identity
	bytes    int
	attempts int
}

// maxSendAttempts bounds retransmission before a download fails.
const maxSendAttempts = 10

// minRTOSec floors the retransmission timeout.
const minRTOSec = 0.2

// NewSessionNet validates the configuration and builds the path.
func NewSessionNet(cfg SessionConfig) (*SessionNet, error) {
	if cfg.Profile == nil {
		return nil, fmt.Errorf("netem: SessionConfig.Profile is required")
	}
	if cfg.PaceFactor < 0 || math.IsNaN(cfg.PaceFactor) || math.IsInf(cfg.PaceFactor, 0) {
		return nil, fmt.Errorf("netem: bad pace factor %g", cfg.PaceFactor)
	}
	if cfg.PaceFactor > 0 && cfg.SegmentSec <= 0 {
		return nil, fmt.Errorf("netem: PaceFactor %g needs SegmentSec > 0", cfg.PaceFactor)
	}
	link, err := NewLink(cfg.Profile)
	if err != nil {
		return nil, err
	}
	return &SessionNet{cfg: cfg, link: link, rng: stats.NewRNG(cfg.Seed)}, nil
}

// Profile returns the link schedule this path runs over.
func (n *SessionNet) Profile() *Profile { return n.cfg.Profile }

// Stats returns the cumulative packet accounting.
func (n *SessionNet) Stats() SessionStats { return n.stats }

// RateAt returns the bandwidth available to this flow at time t — scheduled
// capacity minus cross traffic, floored at 1 kbit/s. Unlimited capacity
// reports 1 Tbit/s. It seeds estimators the way lte.Trace.At does.
func (n *SessionNet) RateAt(t float64) float64 {
	p := n.link.ParamsAt(t)
	if p.CapacityBps <= 0 {
		return 1e12
	}
	avail := p.CapacityBps - p.CrossBps
	if avail < 1e3 {
		avail = 1e3
	}
	return avail
}

// Packets returns the delivered packet samples of the most recent Download
// in arrival order. The slice is reused by the next Download.
func (n *SessionNet) Packets() []PacketSample { return n.packets }

// Download transfers sizeBits starting at startSec and returns the transfer
// duration in seconds: request propagation, per-MTU packetization, paced or
// burst sending through the droptail queue, loss, and retransmission. It
// rejects a size whose byte count overflows int and a start so late that
// the link schedule can no longer step past it; otherwise it fails only
// when the link is effectively dead (a packet exceeded the retransmission
// budget or the service horizon).
func (n *SessionNet) Download(sizeBits float64, startSec float64) (float64, error) {
	n.packets = n.packets[:0]
	if sizeBits <= 0 || math.IsNaN(sizeBits) || math.IsInf(sizeBits, 0) {
		return 0, fmt.Errorf("netem: bad download size %g bits", sizeBits)
	}
	sizeBytes := math.Ceil(sizeBits / 8)
	if sizeBytes >= float64(math.MaxInt) {
		return 0, fmt.Errorf("netem: download size %g bits overflows the byte count", sizeBits)
	}
	if math.IsNaN(startSec) || math.IsInf(startSec, 0) || startSec < 0 {
		return 0, fmt.Errorf("netem: bad download start %g", startSec)
	}
	s0 := n.link.at(startSec)
	if s0.next <= startSec {
		return 0, fmt.Errorf("netem: download start %g is past the link schedule's time resolution", startSec)
	}
	n.pending, n.pendHead = n.pending[:0], 0

	// The request rides the uplink: half an RTT to reach the server.
	sendBase := startSec + s0.p.RTTSec/2

	mtu := n.link.MTU()
	totalBytes := int(sizeBytes)
	var paceRate float64 // bytes/s on the wire when pacing
	if n.cfg.PaceFactor > 0 {
		paceRate = n.cfg.PaceFactor * sizeBits / n.cfg.SegmentSec / 8
	}
	// first is the next first transmission: packet first.seq carries the
	// MTU-sized run of bytes from sentBytes on.
	first := pendingSend{atSec: sendBase, bytes: min(mtu, totalBytes)}
	sentBytes := 0

	// Send in (atSec, seq) order so the FIFO link sees monotone arrivals:
	// each step takes whichever head comes first, the next first
	// transmission or the earliest retransmission (every pair is distinct).
	done := startSec
	for sentBytes < totalBytes || n.pendHead < len(n.pending) {
		var ps pendingSend
		if sentBytes < totalBytes && (n.pendHead == len(n.pending) || pendingLess(first, n.pending[n.pendHead])) {
			ps = first
			sentBytes += ps.bytes
			first.seq++
			first.bytes = min(mtu, totalBytes-sentBytes)
			if paceRate > 0 {
				// Interval-budget pacing in closed form: each packet departs
				// once the budget accrued at paceRate covers the bytes before
				// it. A burst dump (paceRate 0) sends everything at sendBase.
				first.atSec = sendBase + float64(sentBytes)/paceRate
			}
		} else {
			ps = n.pending[n.pendHead]
			n.pendHead++
		}
		if ps.attempts >= maxSendAttempts {
			return 0, fmt.Errorf("netem: packet seq %d dropped %d times at t=%.3f: link dead", ps.seq, ps.attempts, ps.atSec)
		}
		pAt := n.link.ParamsAt(ps.atSec)
		if pAt.LossProb > 0 && n.rng.Float64() < pAt.LossProb {
			n.stats.DropsLoss++
			n.cfg.Metrics.dropLoss()
			n.retransmit(ps, pAt.RTTSec)
			continue
		}
		served, dropped := n.link.Send(ps.bytes, ps.atSec)
		if dropped {
			n.stats.DropsTail++
			n.cfg.Metrics.dropTail()
			n.retransmit(ps, pAt.RTTSec)
			continue
		}
		if math.IsInf(served, 1) {
			return 0, fmt.Errorf("netem: packet seq %d exceeded service horizon at t=%.3f: link dead", ps.seq, ps.atSec)
		}
		recv := served + pAt.RTTSec/2
		n.stats.Packets++
		n.cfg.Metrics.packet(served - ps.atSec)
		n.packets = append(n.packets, PacketSample{SendSec: ps.atSec, RecvSec: recv, Bytes: ps.bytes})
		if recv > done {
			done = recv
		}
	}
	n.stats.Downloads++
	n.cfg.Metrics.download()
	dur := done - startSec
	if dur <= 0 {
		dur = 1e-9
	}
	return dur, nil
}

// retransmit schedules a dropped packet again one RTO later, RTO being
// max(2·RTT, minRTOSec) at the drop. It inserts from the tail of the sorted
// queue: the packet lands behind every queued one unless the RTT fell since
// they were dropped.
func (n *SessionNet) retransmit(ps pendingSend, rttSec float64) {
	n.stats.Retransmits++
	n.cfg.Metrics.retransmit()
	ps.atSec += math.Max(2*rttSec, minRTOSec)
	ps.attempts++
	if q := n.pending; len(q) == cap(q) && 2*n.pendHead >= len(q) {
		// Reclaim the sent prefix instead of growing once it is half the
		// queue: each copy moves no more entries than were sent before it.
		n.pending, n.pendHead = q[:copy(q, q[n.pendHead:])], 0
	}
	n.pending = append(n.pending, ps)
	i := len(n.pending) - 1
	for ; i > n.pendHead && pendingLess(ps, n.pending[i-1]); i-- {
		n.pending[i] = n.pending[i-1]
	}
	n.pending[i] = ps
}

func pendingLess(a, b pendingSend) bool {
	if a.atSec != b.atSec {
		return a.atSec < b.atSec
	}
	return a.seq < b.seq
}
