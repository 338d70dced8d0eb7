package sim

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"ptile360/internal/video"
)

// SegmentTrace is the per-segment record emitted when Config.RecordSegments
// is set: everything needed to plot a session timeline or debug a
// controller decision.
type SegmentTrace struct {
	// Segment is the index within the video.
	Segment int
	// Quality and FrameRate are the chosen version.
	Quality video.Quality
	// FrameRate is in fps.
	FrameRate float64
	// SizeBits is the downloaded payload.
	SizeBits float64
	// ThroughputBps is the measured download throughput.
	ThroughputBps float64
	// BufferSec is the buffer level when the request was issued (after the
	// β wait).
	BufferSec float64
	// Q0 and Q are the segment's perceived quality and Eq. 2 QoE.
	Q0, Q float64
	// StallSec is the rebuffering duration charged to this segment.
	StallSec float64
	// EnergyMJ is the segment's Eq. 1 energy; TxEnergyMJ and DecodeEnergyMJ
	// are its transmission and decode terms (render is the remainder).
	EnergyMJ       float64
	TxEnergyMJ     float64
	DecodeEnergyMJ float64
	// FromPtile reports whether a Ptile served the segment.
	FromPtile bool
	// Emergency reports a stall-accepting fallback decision.
	Emergency bool
	// Retries counts failed download attempts charged to this segment
	// (zero on the trace and netem links, which never retry).
	Retries int
	// Degraded reports the segment was served below the controller's
	// chosen rung by the resilience ladder.
	Degraded bool
	// Abandoned reports playback skipped the segment after the resilience
	// ladder was exhausted.
	Abandoned bool
}

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
			strconv.FormatFloat(tr.BufferSec, 'f', 3, 64),
			strconv.FormatFloat(tr.Q0, 'f', 2, 64),
			strconv.FormatFloat(tr.Q, 'f', 2, 64),
			strconv.FormatFloat(tr.StallSec, 'f', 3, 64),
			strconv.FormatFloat(tr.EnergyMJ, 'f', 1, 64),
			strconv.FormatBool(tr.FromPtile),
			strconv.FormatBool(tr.Emergency),
			strconv.Itoa(tr.Retries),
			strconv.FormatBool(tr.Degraded),
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
