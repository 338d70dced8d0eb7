package httpstream

import (
	"ptile360/internal/obs"
	"ptile360/internal/sim"
)

// Session telemetry is the client-side answer to the paper's headline
// series. Every stepped segment's event, sim.SegmentTrace, carries the
// delivered size and frame rate, the rebuffer (stall) time, the QoE loss
// against the best version the plan offered, and the modeled
// transmission/decode/render energy (Eq. 1). The Telemetry callback
// receives it as a SegmentEvent, which cmd/stream prints as JSON lines;
// with a registry attached, the same numbers feed counters and histograms
// a scrape can watch live.

// SegmentEvent is one segment's telemetry: the step's event, addressed by
// session and video. Its JSON is session, video, then the event's fields.
type SegmentEvent struct {
	// Session identifies the client session (ClientConfig.ClientID).
	Session string `json:"session,omitempty"`
	// Video is the streamed video's ID.
	Video int `json:"video"`
	sim.SegmentTrace
}

// clientObs holds the client's registry handles: one atomic add per
// segment event, created once in NewClient.
type clientObs struct {
	tracer    *obs.Tracer
	served    *obs.Counter
	abandoned *obs.Counter
	retries   *obs.Counter
	degraded  *obs.Counter
	bytes     *obs.Counter
	stallSec  *obs.Counter
	energyMJ  *obs.Counter
	qoeLoss   *obs.Histogram
}

// qoeLossBuckets resolve the paper's ≤5 % region finely.
var qoeLossBuckets = []float64{0.005, 0.01, 0.02, 0.03, 0.05, 0.075, 0.1, 0.15, 0.25, 0.5, 1}

func newClientObs(reg *obs.Registry) *clientObs {
	return &clientObs{
		tracer: obs.NewTracer(reg, "client_segment"),
		served: reg.Counter("client_segments_total",
			"Segments downloaded by the streaming client.", obs.L("result", "served")),
		abandoned: reg.Counter("client_segments_total",
			"Segments downloaded by the streaming client.", obs.L("result", "abandoned")),
		retries: reg.Counter("client_retries_total",
			"Failed download attempts across the session."),
		degraded: reg.Counter("client_degraded_segments_total",
			"Segments served below the controller's chosen rung."),
		bytes: reg.Counter("client_bytes_total",
			"Payload bytes received."),
		stallSec: reg.Counter("client_stall_seconds_total",
			"Rebuffering time charged across the session."),
		energyMJ: reg.Counter("client_energy_millijoules_total",
			"Modeled Eq. 1 segment energy across the session."),
		qoeLoss: reg.Histogram("client_qoe_loss",
			"Per-segment QoE loss relative to the best offered version.", qoeLossBuckets),
	}
}

// observe feeds one segment's event into the registry.
func (o *clientObs) observe(ev sim.SegmentTrace) {
	if o == nil {
		return
	}
	if ev.Abandoned {
		o.abandoned.Inc()
	} else {
		o.served.Inc()
	}
	o.retries.Add(float64(ev.Retries))
	if ev.DegradeSteps > 0 {
		o.degraded.Inc()
	}
	o.bytes.Add(float64(ev.Bytes))
	o.stallSec.Add(ev.StallSec)
	o.energyMJ.Add(ev.EnergyMJ)
	o.qoeLoss.Observe(ev.QoELoss)
}
