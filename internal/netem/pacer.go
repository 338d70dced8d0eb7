package netem

import (
	"fmt"
	"io"
	"math"
	"time"

	"ptile360/internal/obs"
)

// Pacer is a WebRTC-style interval budget: credit accrues continuously at
// the target rate and is spent by sends. A send is allowed whenever the
// budget is positive (it may overdraw — packets are not split), so short
// bursts up to the budget cap are permitted but the long-run rate converges
// to the target. The cap bounds how large a burst an idle period can bank.
//
// The Pacer is pure arithmetic over a caller-supplied clock, and it drives
// only the real-time PacedWriter. The virtual-time SessionNet.Download does
// not use it: it applies the interval-budget rule in closed form (path.go),
// each packet departing once the credit accrued at the pacing rate covers
// the bytes sent before it.
type Pacer struct {
	rateBytesPerSec float64
	budgetBytes     float64
	maxBudgetBytes  float64
	lastSec         float64
}

// pacerBurstSec is how much credit an idle pacer may bank, in seconds of
// target rate. 40 ms ≈ a few MTUs at streaming rates: enough to absorb
// scheduler jitter, far too little to re-create a segment burst.
const pacerBurstSec = 0.040

// NewPacer returns a pacer targeting rateBps bits/s, starting at nowSec
// with an empty budget.
func NewPacer(rateBps, nowSec float64) (*Pacer, error) {
	if rateBps <= 0 || math.IsNaN(rateBps) || math.IsInf(rateBps, 0) {
		return nil, fmt.Errorf("netem: bad pacing rate %g bps", rateBps)
	}
	r := rateBps / 8
	return &Pacer{rateBytesPerSec: r, maxBudgetBytes: r * pacerBurstSec, lastSec: nowSec}, nil
}

// RateBps returns the target rate in bits/s.
func (p *Pacer) RateBps() float64 { return p.rateBytesPerSec * 8 }

// Advance accrues budget up to nowSec. Time never moves backwards.
func (p *Pacer) Advance(nowSec float64) {
	if nowSec <= p.lastSec {
		return
	}
	p.budgetBytes += p.rateBytesPerSec * (nowSec - p.lastSec)
	if p.budgetBytes > p.maxBudgetBytes {
		p.budgetBytes = p.maxBudgetBytes
	}
	p.lastSec = nowSec
}

// CanSend reports whether a packet may leave now.
func (p *Pacer) CanSend() bool { return p.budgetBytes > 0 }

// OnSent spends budget for a sent packet; the budget may go negative.
func (p *Pacer) OnSent(bytes int) { p.budgetBytes -= float64(bytes) }

// DelayUntilSend returns how long from the last Advance until the budget
// turns positive again; 0 when sending is already allowed.
func (p *Pacer) DelayUntilSend() float64 {
	if p.budgetBytes > 0 {
		return 0
	}
	return (-p.budgetBytes + 1) / p.rateBytesPerSec
}

// PacerMetrics bundles the pacing_* instruments; nil is silent.
type PacerMetrics struct {
	Bytes    *obs.Counter // pacing_bytes_total
	SleepSec *obs.Counter // pacing_sleep_seconds_total
	Writes   *obs.Counter // pacing_writes_total
}

// NewPacerMetrics registers the pacing instruments on reg.
func NewPacerMetrics(reg *obs.Registry) *PacerMetrics {
	return &PacerMetrics{
		Bytes:    reg.Counter("pacing_bytes_total", "Bytes written through the paced sender."),
		SleepSec: reg.Counter("pacing_sleep_seconds_total", "Time the paced sender spent waiting for budget."),
		Writes:   reg.Counter("pacing_writes_total", "Write calls through the paced sender."),
	}
}

// PacedWriter throttles an io.Writer to a pacer's budget in real time,
// writing in pacedChunkBytes slices and sleeping whenever the budget is
// exhausted. The clock and sleep functions are injectable so tests run the
// writer deterministically in virtual time.
type PacedWriter struct {
	w       io.Writer
	pacer   *Pacer
	nowSec  func() float64
	sleep   func(sec float64)
	metrics *PacerMetrics
}

// pacedChunkBytes is the slice size the writer releases per budget check —
// one MTU-ish quantum so the wire sees packet-sized spacing, not bursts.
const pacedChunkBytes = 1460

// NewPacedWriter wraps w with pacing at rateBps bits/s. nowSec and sleep
// may be nil, defaulting to the wall clock.
func NewPacedWriter(w io.Writer, rateBps float64, nowSec func() float64, sleep func(sec float64), m *PacerMetrics) (*PacedWriter, error) {
	if nowSec == nil {
		start := time.Now()
		nowSec = func() float64 { return time.Since(start).Seconds() }
	}
	if sleep == nil {
		sleep = func(sec float64) { time.Sleep(time.Duration(sec * float64(time.Second))) }
	}
	pacer, err := NewPacer(rateBps, nowSec())
	if err != nil {
		return nil, err
	}
	return &PacedWriter{w: w, pacer: pacer, nowSec: nowSec, sleep: sleep, metrics: m}, nil
}

// Write implements io.Writer, releasing p chunk by chunk as budget allows.
func (pw *PacedWriter) Write(p []byte) (int, error) {
	if pw.metrics != nil {
		pw.metrics.Writes.Inc()
	}
	written := 0
	for written < len(p) {
		pw.pacer.Advance(pw.nowSec())
		if !pw.pacer.CanSend() {
			d := pw.pacer.DelayUntilSend()
			if pw.metrics != nil {
				pw.metrics.SleepSec.Add(d)
			}
			pw.sleep(d)
			pw.pacer.Advance(pw.nowSec())
		}
		end := written + pacedChunkBytes
		if end > len(p) {
			end = len(p)
		}
		n, err := pw.w.Write(p[written:end])
		written += n
		pw.pacer.OnSent(n)
		if pw.metrics != nil {
			pw.metrics.Bytes.Add(float64(n))
		}
		if err != nil {
			return written, err
		}
	}
	return written, nil
}
