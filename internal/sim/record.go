package sim

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"ptile360/internal/geom"
	"ptile360/internal/video"
)

// SegmentTrace is the one per-segment event, recorded by the step when
// Config.RecordSegments is set. Every link records it the same way, so a
// simulated, emulated or HTTP session's rows compare field for field; the
// HTTP client's report, telemetry, metrics and flight events are views of
// it, and WriteSegmentsCSV writes it for plotting.
type SegmentTrace struct {
	// StepInfo is the step's timing: the segment index, the wait, the whole
	// fetch, the stall, the wall clock at completion and the buffer after
	// the segment was appended.
	StepInfo
	// Quality and FrameRate are the version delivered; zero when abandoned.
	Quality   video.Quality `json:"quality"`
	FrameRate float64       `json:"frame_rate"`
	// SizeBits is the delivered payload and Bytes its wire size,
	// SegmentBytes(SizeBits); both 0 when abandoned.
	SizeBits float64 `json:"size_bits"`
	Bytes    int64   `json:"bytes"`
	// ThroughputBps is the measured download throughput.
	ThroughputBps float64 `json:"throughput_bps"`
	// RequestBufferSec is the buffer level when the request was issued
	// (after the β wait).
	RequestBufferSec float64 `json:"request_buffer_sec"`
	// PerceivedQuality is the delivered Q0 and Q the segment's Eq. 2 QoE.
	PerceivedQuality float64 `json:"perceived_quality"`
	Q                float64 `json:"q"`
	// BestPerceivedQuality is the highest Q0 the plan offered, and QoELoss
	// the loss against it, (best − Q0) / best: the quantity the paper's
	// ε = 5 % constraint bounds. QoELoss is 1 for an abandoned segment.
	BestPerceivedQuality float64 `json:"best_perceived_quality"`
	QoELoss              float64 `json:"qoe_loss"`
	// EnergyMJ is the segment's Eq. 1 energy; TxEnergyMJ and DecodeEnergyMJ
	// are its transmission and decode terms (render is the remainder).
	EnergyMJ       float64 `json:"energy_mj"`
	TxEnergyMJ     float64 `json:"tx_energy_mj"`
	DecodeEnergyMJ float64 `json:"decode_energy_mj"`
	// FromPtile reports whether a Ptile served the segment.
	FromPtile bool `json:"from_ptile"`
	// Emergency reports a stall-accepting fallback decision.
	Emergency bool `json:"emergency"`
	// Retries counts failed download attempts charged to this segment, and
	// DegradeSteps the ladder rungs below the controller's choice it was
	// served on (both zero on the trace and netem links, which never
	// retry).
	Retries      int `json:"retries"`
	DegradeSteps int `json:"degrade_steps"`
	// Abandoned reports playback skipped the segment after the resilience
	// ladder was exhausted.
	Abandoned bool `json:"abandoned"`
	// Center is the predicted viewport center the plan was built for: the
	// viewport report the online Ptile pipeline clusters.
	Center geom.Point `json:"center"`
}

// SegmentBytes is the wire size of a segment priced at bits: whole bytes,
// at least one. The server writes exactly this many and the client accepts
// nothing else.
func SegmentBytes(bits float64) int64 { return max(int64(bits/8), 1) }

// WriteSegmentsCSV serializes per-segment traces as CSV for external
// analysis/plotting.
func WriteSegmentsCSV(w io.Writer, traces []SegmentTrace) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	header := []string{
		"segment", "quality", "fps", "size_bits", "throughput_bps",
		"buffer_sec", "q0", "q", "stall_sec", "energy_mj", "from_ptile", "emergency",
		"retries", "degraded", "abandoned",
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("sim: write header: %w", err)
	}
	for _, tr := range traces {
		rec := []string{
			strconv.Itoa(tr.Segment),
			strconv.Itoa(int(tr.Quality)),
			strconv.FormatFloat(tr.FrameRate, 'f', 1, 64),
			strconv.FormatFloat(tr.SizeBits, 'f', 0, 64),
			strconv.FormatFloat(tr.ThroughputBps, 'f', 0, 64),
			strconv.FormatFloat(tr.RequestBufferSec, 'f', 3, 64),
			strconv.FormatFloat(tr.PerceivedQuality, 'f', 2, 64),
			strconv.FormatFloat(tr.Q, 'f', 2, 64),
			strconv.FormatFloat(tr.StallSec, 'f', 3, 64),
			strconv.FormatFloat(tr.EnergyMJ, 'f', 1, 64),
			strconv.FormatBool(tr.FromPtile),
			strconv.FormatBool(tr.Emergency),
			strconv.Itoa(tr.Retries),
			strconv.FormatBool(tr.DegradeSteps > 0),
			strconv.FormatBool(tr.Abandoned),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("sim: write segment %d: %w", tr.Segment, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}
