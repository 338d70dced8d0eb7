package predict

import (
	"fmt"
	"math"
)

// PacketObserver is the optional packet-timing feed of an estimator. The
// packet-level network path (internal/netem) calls ObservePacket for every
// delivered packet of a download, in arrival order, before reporting the
// segment-level throughput via Observe. Estimators that cannot use packet
// timing simply do not implement it.
type PacketObserver interface {
	// ObservePacket records one delivered packet's wire timing. Non-finite
	// timestamps are ignored.
	ObservePacket(sendSec, recvSec float64, bytes int)
}

// DelayGradient is a GCC-style congestion estimator: packets are coalesced
// into arrival groups (~5 ms send spacing), the inter-group delay variation
// d(i) = (recv_i − recv_{i−1}) − (send_i − send_{i−1}) is accumulated and
// smoothed, and a trendline fitted over the last groups yields the queueing
// -delay slope. A sustained positive slope means the bottleneck queue is
// growing — overuse — even though no packet was lost, which is exactly the
// signal harmonic-mean throughput averaging cannot see on a buffer-bloated
// link (throughput stays at capacity while latency climbs). The rate
// control is AIMD: β×(received rate) on overuse, a bounded multiplicative
// probe otherwise.
//
// Without a packet feed DelayGradient degrades to a bounded last-sample
// tracker, so it stays usable on the segment-level lte.Trace path.
type DelayGradient struct {
	// AIMD rate state.
	rateBps float64
	ready   bool

	// Overuse latch: set by the packet feed, consumed by the next Observe.
	overuse bool

	// Current arrival group being coalesced.
	groupOpen                    bool
	groupFirstSend               float64
	groupLastSend, groupLastRecv float64

	// Previous completed group, for the inter-group delta.
	havePrev                   bool
	prevLastSend, prevLastRecv float64

	// Trendline over the last trendWindow groups: (arrival, smoothed
	// accumulated delay) pairs in a ring.
	accumDelay    float64
	smoothedDelay float64
	firstArrival  float64
	points        [trendWindow]trendPoint
	count, head   int

	// Consecutive positive-slope detections; overuse latches at
	// overuseCount.
	overruns int
}

type trendPoint struct {
	arrival float64
	delay   float64
}

const (
	// burstIntervalSec coalesces packets sent within this span into one
	// arrival group (the GCC burst interval).
	burstIntervalSec = 0.005
	// trendWindow is how many inter-group deltas the slope is fitted over.
	trendWindow = 20
	// trendSmoothing is the EWMA retention of the accumulated delay.
	trendSmoothing = 0.9
	// minTrendPoints gates the fit: fewer points than this yields no
	// detection.
	minTrendPoints = 5
	// slopeThreshold is the overuse boundary in seconds of queueing delay
	// growth per second. The emulated link is noiseless, so 10 ms/s
	// cleanly separates a growing standing queue from jitter.
	slopeThreshold = 0.010
	// overuseCount is how many consecutive positive-slope fits latch
	// overuse (the GCC sustained-time requirement, in groups).
	overuseCount = 2
	// drainBeta is the AIMD multiplicative decrease applied to the
	// received rate on overuse.
	drainBeta = 0.85
	// probeGain is the multiplicative increase per observation when the
	// link shows no overuse. GCC applies eta = 1.08 once per ~100 ms
	// response interval; our Observe cadence is one media segment (~1 s),
	// so the per-observation gain compounds ten intervals (1.08^10). The
	// probeCap below still bounds every step to what the link actually
	// delivered.
	probeGain = 2.16
	// probeCap bounds the estimate relative to the latest received rate,
	// so probing cannot run away from reality.
	probeCap = 1.25
)

// NewDelayGradient returns a delay-gradient estimator.
func NewDelayGradient() *DelayGradient { return &DelayGradient{} }

// Compile-time interface checks.
var (
	_ Estimator      = (*DelayGradient)(nil)
	_ PacketObserver = (*DelayGradient)(nil)
)

// ObservePacket implements PacketObserver: coalesce into arrival groups and
// update the trendline detector at each group boundary.
func (e *DelayGradient) ObservePacket(sendSec, recvSec float64, bytes int) {
	if math.IsNaN(sendSec) || math.IsInf(sendSec, 0) ||
		math.IsNaN(recvSec) || math.IsInf(recvSec, 0) || bytes <= 0 {
		return
	}
	if !e.groupOpen {
		e.openGroup(sendSec, recvSec)
		return
	}
	if sendSec-e.groupFirstSend >= burstIntervalSec {
		e.closeGroup()
		e.openGroup(sendSec, recvSec)
		return
	}
	if sendSec > e.groupLastSend {
		e.groupLastSend = sendSec
	}
	if recvSec > e.groupLastRecv {
		e.groupLastRecv = recvSec
	}
}

func (e *DelayGradient) openGroup(sendSec, recvSec float64) {
	e.groupOpen = true
	e.groupFirstSend = sendSec
	e.groupLastSend = sendSec
	e.groupLastRecv = recvSec
}

// closeGroup completes the current arrival group and feeds the inter-group
// delay variation into the trendline.
func (e *DelayGradient) closeGroup() {
	if !e.groupOpen {
		return
	}
	e.groupOpen = false
	if e.havePrev {
		d := (e.groupLastRecv - e.prevLastRecv) - (e.groupLastSend - e.prevLastSend)
		e.accumDelay += d
		e.smoothedDelay = trendSmoothing*e.smoothedDelay + (1-trendSmoothing)*e.accumDelay
		if e.count == 0 {
			e.firstArrival = e.groupLastRecv
		}
		e.points[e.head] = trendPoint{arrival: e.groupLastRecv - e.firstArrival, delay: e.smoothedDelay}
		e.head = (e.head + 1) % trendWindow
		if e.count < trendWindow {
			e.count++
		}
		e.detect()
	}
	e.havePrev = true
	e.prevLastSend = e.groupLastSend
	e.prevLastRecv = e.groupLastRecv
}

// detect fits the trendline and updates the overuse latch.
func (e *DelayGradient) detect() {
	if e.count < minTrendPoints {
		return
	}
	// Least-squares slope over the ring, in fixed (oldest-first) order so
	// the arithmetic is deterministic.
	var sumX, sumY float64
	for i := 0; i < e.count; i++ {
		p := e.points[(e.head+trendWindow-e.count+i)%trendWindow]
		sumX += p.arrival
		sumY += p.delay
	}
	n := float64(e.count)
	meanX, meanY := sumX/n, sumY/n
	var num, den float64
	for i := 0; i < e.count; i++ {
		p := e.points[(e.head+trendWindow-e.count+i)%trendWindow]
		num += (p.arrival - meanX) * (p.delay - meanY)
		den += (p.arrival - meanX) * (p.arrival - meanX)
	}
	if den <= 0 {
		return
	}
	slope := num / den
	if slope > slopeThreshold {
		e.overruns++
		if e.overruns >= overuseCount {
			e.overuse = true
		}
	} else {
		e.overruns = 0
	}
}

// Observe implements Estimator: rateBps is the completed download's
// received throughput; the AIMD control combines it with the packet feed's
// overuse verdict accumulated since the previous Observe.
func (e *DelayGradient) Observe(rateBps float64) error {
	r, err := sanitizeRate(rateBps)
	if err != nil {
		return err
	}
	// Close any half-open group so the last packets of the download count.
	e.closeGroup()
	switch {
	case !e.ready:
		e.rateBps = r
		e.ready = true
	case e.overuse:
		e.rateBps = drainBeta * r
	default:
		e.rateBps = math.Min(e.rateBps*probeGain, probeCap*r)
	}
	if e.rateBps > maxSaneRateBps {
		e.rateBps = maxSaneRateBps
	}
	e.overuse = false
	e.overruns = 0
	return nil
}

// Estimate implements Estimator.
func (e *DelayGradient) Estimate() (float64, error) {
	if !e.ready {
		return 0, fmt.Errorf("predict: no bandwidth history")
	}
	return e.rateBps, nil
}

// Ready implements Estimator.
func (e *DelayGradient) Ready() bool { return e.ready }
