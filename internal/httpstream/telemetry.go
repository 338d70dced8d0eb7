package httpstream

import (
	"ptile360/internal/obs"
)

// Session telemetry is the client-side answer to the paper's headline
// series: for every downloaded segment the client emits one TelemetryRecord
// carrying the chosen bitrate and frame rate, the rebuffer (stall) time,
// the QoE loss against the best version the ladder offered, and the
// modeled transmission/decode/render energy (Eq. 1). cmd/stream prints the
// records as JSON lines; with a registry attached, the same numbers feed
// counters and histograms a scrape can watch live.

// TelemetryRecord is the per-segment session telemetry datum.
type TelemetryRecord struct {
	// Session identifies the client session (ClientID when set).
	Session string `json:"session,omitempty"`
	// Video and Segment address the content.
	Video   int `json:"video"`
	Segment int `json:"segment"`
	// Quality is the served version's quality level (0 when abandoned).
	Quality int `json:"quality"`
	// FrameRate is the served frame rate in fps (0 when abandoned).
	FrameRate float64 `json:"frame_rate"`
	// BitrateMbps is the served segment size over the segment duration.
	BitrateMbps float64 `json:"bitrate_mbps"`
	// ThroughputMbps is the measured goodput of the successful download.
	ThroughputMbps float64 `json:"throughput_mbps"`
	// Bytes is the payload size received.
	Bytes int64 `json:"bytes"`
	// StallSec is the rebuffering time charged to the segment.
	StallSec float64 `json:"stall_sec"`
	// QoE is the delivered perceived quality Q0 of the served version.
	QoE float64 `json:"qoe"`
	// QoEBest is the best perceived quality any offered version had.
	QoEBest float64 `json:"qoe_best"`
	// QoELoss is (QoEBest − QoE) / QoEBest — the paper's ≤5 % constraint
	// watches exactly this quantity. 1 for an abandoned segment.
	QoELoss float64 `json:"qoe_loss"`
	// EnergyMJ is the total Eq. 1 segment energy; TxEnergyMJ and
	// DecodeEnergyMJ split out the transmission and decode terms
	// (render is the remainder).
	EnergyMJ       float64 `json:"energy_mj"`
	TxEnergyMJ     float64 `json:"tx_energy_mj"`
	DecodeEnergyMJ float64 `json:"decode_energy_mj"`
	// FromPtile reports whether a Ptile served the segment.
	FromPtile bool `json:"from_ptile"`
	// Retries, DegradeSteps, and Abandoned are the resilience accounting.
	Retries      int  `json:"retries"`
	DegradeSteps int  `json:"degrade_steps,omitempty"`
	Abandoned    bool `json:"abandoned,omitempty"`
	// BufferSec is the buffer level when the download started.
	BufferSec float64 `json:"buffer_sec"`
	// ViewX/ViewY are the predicted viewport center the segment was fetched
	// for (panorama degrees) — the viewport report internal/ptilelive
	// clusters into online Ptiles.
	ViewX float64 `json:"view_x"`
	ViewY float64 `json:"view_y"`
}

// telemetryFrom converts one segment's accounting into the wire record.
func telemetryFrom(session string, videoID int, segmentSec float64, rec SegmentRecord) TelemetryRecord {
	tr := TelemetryRecord{
		Session:        session,
		Video:          videoID,
		Segment:        rec.Segment,
		Quality:        int(rec.Quality),
		FrameRate:      rec.FrameRate,
		ThroughputMbps: rec.ThroughputBps / 1e6,
		Bytes:          rec.Bytes,
		StallSec:       rec.StallSec,
		QoE:            rec.PerceivedQuality,
		QoEBest:        rec.BestPerceivedQuality,
		QoELoss:        rec.qoeLoss(),
		EnergyMJ:       rec.EnergyMJ,
		TxEnergyMJ:     rec.TxEnergyMJ,
		DecodeEnergyMJ: rec.DecodeEnergyMJ,
		FromPtile:      rec.FromPtile,
		Retries:        rec.Retries,
		DegradeSteps:   rec.DegradeSteps,
		Abandoned:      rec.Abandoned,
		BufferSec:      rec.BufferSec,
		ViewX:          rec.ViewCenter.X,
		ViewY:          rec.ViewCenter.Y,
	}
	if segmentSec > 0 {
		tr.BitrateMbps = float64(rec.Bytes) * 8 / segmentSec / 1e6
	}
	return tr
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

// observe feeds one segment's telemetry into the registry.
func (o *clientObs) observe(tr TelemetryRecord) {
	if o == nil {
		return
	}
	if tr.Abandoned {
		o.abandoned.Inc()
	} else {
		o.served.Inc()
	}
	o.retries.Add(float64(tr.Retries))
	if tr.DegradeSteps > 0 {
		o.degraded.Inc()
	}
	o.bytes.Add(float64(tr.Bytes))
	o.stallSec.Add(tr.StallSec)
	o.energyMJ.Add(tr.EnergyMJ)
	o.qoeLoss.Observe(tr.QoELoss)
}
