package netem

import (
	"fmt"
	"math"
)

// Link is the bottleneck: a droptail FIFO queue of app packets drained at
// the residual capacity the competing fluid flow leaves over
// (CapacityBps − CrossBps, floored at zero — cross traffic interleaves
// with our packets in service, so our flow's goodput is the residual). All
// timing is computed analytically over the piecewise-constant schedule —
// no wall clock, no goroutines — so a Link is bit-deterministic and can be
// driven in pure virtual time.
//
// A Link is single-flow and not safe for concurrent use; SessionNet and
// Conn each own one per direction and serialize access.
type Link struct {
	sched *schedule
	mtu   int

	// now is the time the queue state was last advanced to. Sends must be
	// non-decreasing in time (FIFO); earlier sends are clamped to now.
	now float64
	// queuedBytes is this flow's bottleneck backlog. QueueBytes bounds it:
	// the droptail cap models our flow's share of the buffer.
	queuedBytes float64

	// drops counts droptail losses; cross-fluid overflow is not counted
	// (the competing flow's losses are not our flow's signal).
	drops int

	// memo holds the two most recent schedule lookups, keyed on the exact
	// instant, so it is exact by construction: a packet's send looks up at
	// most two distinct instants, the link's clock and its own send time,
	// four times in all. memoNext is the entry the next miss overwrites.
	memo     [2]instant
	memoNext int
}

// instant is the schedule at one time: the parameters in force and the
// first breakpoint strictly after it.
type instant struct {
	t, next float64
	p       Params
}

// solveHorizonSec bounds the service solver: if a packet would not finish
// service within this many seconds of its arrival the link is effectively
// dead and Send reports +Inf.
const solveHorizonSec = 3600

// NewLink validates and compiles the profile into a link.
func NewLink(p *Profile) (*Link, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	l := &Link{sched: p.compile(), mtu: p.MTU()}
	l.memo[0].t, l.memo[1].t = math.NaN(), math.NaN() // NaN matches no instant
	return l, nil
}

// at returns the schedule at time t, from the memo when t was one of the
// last two instants looked up. The entry stays valid until the next call.
func (l *Link) at(t float64) *instant {
	for i := range l.memo {
		if l.memo[i].t == t {
			return &l.memo[i]
		}
	}
	e := &l.memo[l.memoNext]
	l.memoNext ^= 1
	*e = instant{t: t, next: l.sched.nextBoundary(t), p: l.sched.at(t)}
	return e
}

// ParamsAt returns the scheduled parameters in force at time t.
func (l *Link) ParamsAt(t float64) Params { return l.at(t).p }

// MTU returns the packetization unit.
func (l *Link) MTU() int { return l.mtu }

// Now returns the time the queue state was last advanced to.
func (l *Link) Now() float64 { return l.now }

// QueuedBytes returns the current bottleneck backlog.
func (l *Link) QueuedBytes() float64 { return l.queuedBytes }

// Drops returns the cumulative droptail loss count for app packets.
func (l *Link) Drops() int { return l.drops }

// residualRate returns the service rate our flow sees in bytes/s, or -1
// for unlimited capacity.
func residualRate(p Params) float64 {
	if p.CapacityBps <= 0 {
		return -1
	}
	r := (p.CapacityBps - p.CrossBps) / 8
	if r < 0 {
		return 0
	}
	return r
}

// advance evolves the queue state from l.now to t: the backlog drains at
// the residual capacity, piecewise-constant interval by interval. Capacity
// 0 means unlimited: the queue empties instantly. An empty queue stays
// empty, so the walk stops there and the clock jumps to t.
func (l *Link) advance(t float64) {
	for l.now < t && l.queuedBytes > 0 {
		e := l.at(l.now)
		end := math.Min(t, e.next)
		if end <= l.now {
			// Defensive: a boundary exactly at now must not spin.
			end = t
		}
		dt := end - l.now
		switch r := residualRate(e.p); {
		case r < 0:
			l.queuedBytes = 0
		case r > 0:
			l.queuedBytes -= r * dt
			if l.queuedBytes < 0 {
				l.queuedBytes = 0
			}
		}
		l.now = end
	}
	if t > l.now {
		l.now = t
	}
}

// Send enqueues one app packet of the given size at atSec and returns the
// time it finishes service at the bottleneck (propagation delay is the
// caller's concern). dropped reports a droptail loss; deliveredSec is then
// meaningless. A send earlier than the last one is clamped to link time.
func (l *Link) Send(bytes int, atSec float64) (deliveredSec float64, dropped bool) {
	if bytes <= 0 {
		return atSec, false
	}
	if atSec < l.now {
		atSec = l.now
	}
	l.advance(atSec)
	p := &l.at(atSec).p
	if p.CapacityBps <= 0 {
		// Unlimited capacity: no queue, instantaneous service.
		return atSec, false
	}
	if p.QueueBytes > 0 && l.queuedBytes+float64(bytes) > p.QueueBytes {
		l.drops++
		return 0, true
	}
	// FIFO: everything queued at arrival is ahead of this packet. Service
	// completes when the residual-capacity integral from atSec covers
	// backlog + the packet itself.
	deliveredSec = l.serviceDone(atSec, l.queuedBytes+float64(bytes))
	l.queuedBytes += float64(bytes)
	return deliveredSec, false
}

// serviceDone returns the time at which `bytes` of queued data ahead of and
// including a packet arriving at `from` have been serviced.
func (l *Link) serviceDone(from, bytes float64) float64 {
	t := from
	remaining := bytes
	for remaining > 0 {
		e := l.at(t)
		rate := residualRate(e.p)
		if rate < 0 {
			return t
		}
		end := e.next
		if rate > 0 {
			need := remaining / rate
			if math.IsInf(end, 1) || t+need <= end {
				return t + need
			}
			remaining -= rate * (end - t)
		} else if math.IsInf(end, 1) {
			// Cross traffic saturates the link forever: never serviced.
			return math.Inf(1)
		}
		if end <= t {
			// The schedule can no longer step past t (ulp(t) exceeds its
			// steps), so the clock cannot move: never serviced.
			return math.Inf(1)
		}
		t = end
		if t-from > solveHorizonSec {
			return math.Inf(1)
		}
	}
	return t
}

// Reset rewinds the link to an empty queue at time 0, keeping the schedule.
func (l *Link) Reset() {
	l.now = 0
	l.queuedBytes = 0
	l.drops = 0
}

// String describes the link state for logs and test failures.
func (l *Link) String() string {
	return fmt.Sprintf("netem.Link{t=%.3f queued=%.0fB drops=%d}", l.now, l.queuedBytes, l.drops)
}
