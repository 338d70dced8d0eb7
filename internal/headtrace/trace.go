// Package headtrace models and generates head-movement traces for 360°
// video viewers, standing in for the MMSys'17 public dataset [8] the paper
// evaluates on (48 users watching the Table III videos, sampled at 50 Hz).
//
// The generator composes three behavioural mechanisms observed in that
// dataset and exploited by the paper:
//
//   - Smooth pursuit: users track per-video salient "attention trajectories"
//     with a first-order chase dynamic, producing the 10–50°/s pursuit
//     speeds of Fig. 5.
//   - Saccades: occasional rapid re-targeting (target jumps followed by
//     rate-limited fast chase) producing the >50°/s tail of Fig. 5.
//   - Common interest: users watching the same video share trajectories
//     (with per-user offsets), so their per-segment viewing centers
//     cluster — the property Ptile construction relies on (Figs. 6–7).
//     Focused videos (1–4) share one trajectory; exploring videos (5–8)
//     spread users over several and include free-roaming "wanderers".
package headtrace

import (
	"fmt"
	"sync"

	"ptile360/internal/geom"
	"ptile360/internal/stats"
	"ptile360/internal/video"
)

// SampleRate is the sensor sampling rate in Hz (Section IV-B).
const SampleRate = 50.0

// Sample is one sensor reading.
type Sample struct {
	// T is the timestamp in seconds from playback start.
	T float64
	// O is the viewing orientation.
	O geom.Orientation
}

// Trace is one user's head-movement record for one video.
type Trace struct {
	// UserID identifies the viewer (0-based).
	UserID int
	// VideoID is the Table III video number.
	VideoID int
	// Samples are the 50 Hz sensor readings, in time order.
	Samples []Sample

	// peakMu guards peakCache, the per-segSec memo of SegmentPeakSpeed:
	// session loops query the same segment peaks once per scheme per
	// horizon slot, so the 98th-percentile scan is paid once per trace.
	// The memo is transparent — Samples are immutable after generation —
	// and lazily built, so traces must be shared by pointer (they already
	// are throughout).
	peakMu    sync.Mutex
	peakCache []segPeaks

	// xyOnce guards xs and ys, the memo of XYSeries: every session of a
	// viewer predicts from the same unwrapped series, so it is built once
	// per trace and shared by every path that streams the trace.
	xyOnce sync.Once
	xs, ys []float64
}

// segPeaks is the memoized SegmentPeakSpeed sequence for one segment
// duration: peaks[i] is the segment-i peak; indices ≥ len(peaks) are beyond
// the trace end.
type segPeaks struct {
	segSec float64
	peaks  []float64
}

// Duration returns the trace length in seconds (0 for empty traces).
func (tr *Trace) Duration() float64 {
	if len(tr.Samples) == 0 {
		return 0
	}
	return tr.Samples[len(tr.Samples)-1].T
}

// OrientationAt returns the orientation at time t by nearest-sample lookup.
func (tr *Trace) OrientationAt(t float64) (geom.Orientation, error) {
	if len(tr.Samples) == 0 {
		return geom.Orientation{}, fmt.Errorf("headtrace: empty trace")
	}
	if t <= tr.Samples[0].T {
		return tr.Samples[0].O, nil
	}
	if t >= tr.Duration() {
		return tr.Samples[len(tr.Samples)-1].O, nil
	}
	idx := int(t * SampleRate)
	if idx >= len(tr.Samples) {
		idx = len(tr.Samples) - 1
	}
	return tr.Samples[idx].O, nil
}

// ViewingCenter returns the panorama point the user looks at in the middle
// of segment segIdx (segments of segSec seconds) — the per-segment viewing
// center used for clustering and viewport checks.
func (tr *Trace) ViewingCenter(segIdx int, segSec float64) (geom.Point, error) {
	if segIdx < 0 {
		return geom.Point{}, fmt.Errorf("headtrace: negative segment index %d", segIdx)
	}
	if segSec <= 0 {
		return geom.Point{}, fmt.Errorf("headtrace: non-positive segment duration %g", segSec)
	}
	o, err := tr.OrientationAt((float64(segIdx) + 0.5) * segSec)
	if err != nil {
		return geom.Point{}, err
	}
	return geom.PointOf(o), nil
}

// SwitchingSpeeds returns the Eq. 5 view-switching speed between every pair
// of consecutive samples, in degrees per second.
func (tr *Trace) SwitchingSpeeds() []float64 {
	if len(tr.Samples) < 2 {
		return nil
	}
	return tr.AppendSwitchingSpeeds(make([]float64, 0, len(tr.Samples)-1))
}

// AppendSwitchingSpeeds appends the trace's switching speeds to dst and
// returns it, letting bulk consumers (the Fig. 5 aggregation) reuse one
// buffer across traces. Each sample's direction vector is computed once and
// carried to the next pair, halving the trigonometry of the pairwise form
// while producing bit-identical speeds.
func (tr *Trace) AppendSwitchingSpeeds(dst []float64) []float64 {
	if len(tr.Samples) < 2 {
		return dst
	}
	va := tr.Samples[0].O.Vector()
	for i := 1; i < len(tr.Samples); i++ {
		vb := tr.Samples[i].O.Vector()
		dt := tr.Samples[i].T - tr.Samples[i-1].T
		if dt > 0 {
			dst = append(dst, geom.AngleBetweenVectors(va, vb)/dt)
		}
		va = vb
	}
	return dst
}

// segmentSpeeds collects the per-sample switching speeds inside segment
// segIdx.
func (tr *Trace) segmentSpeeds(segIdx int, segSec float64) ([]float64, error) {
	return tr.segmentSpeedsInto(nil, segIdx, segSec)
}

// segmentSpeedsInto is segmentSpeeds appending into a reusable buffer
// (reset to length 0 first), with the same vector caching as
// AppendSwitchingSpeeds.
func (tr *Trace) segmentSpeedsInto(dst []float64, segIdx int, segSec float64) ([]float64, error) {
	if segIdx < 0 || segSec <= 0 {
		return nil, fmt.Errorf("headtrace: bad segment query (%d, %g)", segIdx, segSec)
	}
	t0 := float64(segIdx) * segSec
	t1 := t0 + segSec
	lo := int(t0 * SampleRate)
	hi := int(t1 * SampleRate)
	if lo >= len(tr.Samples)-1 {
		return nil, fmt.Errorf("headtrace: segment %d beyond trace end", segIdx)
	}
	if hi > len(tr.Samples)-1 {
		hi = len(tr.Samples) - 1
	}
	if cap(dst) == 0 {
		dst = make([]float64, 0, hi-lo)
	}
	speeds := dst[:0]
	va := tr.Samples[lo].O.Vector()
	for i := lo + 1; i <= hi; i++ {
		vb := tr.Samples[i].O.Vector()
		dt := tr.Samples[i].T - tr.Samples[i-1].T
		if dt > 0 {
			speeds = append(speeds, geom.AngleBetweenVectors(va, vb)/dt)
		}
		va = vb
	}
	return speeds, nil
}

// SegmentPeakSpeed returns the peak (98th-percentile) switching speed within
// segment segIdx — the S_fov fed into the Eq. 4 sensitivity α. The peak
// (rather than the mean) captures whether the segment contains a fast view
// switch: the paper's blurred-vision argument (Section III-C2) applies to
// the fast phase of the movement, and a segment with a saccade tolerates
// frame drops even if its average speed is modest. The 98th percentile
// rejects single-sample sensor-noise spikes.
func (tr *Trace) SegmentPeakSpeed(segIdx int, segSec float64) (float64, error) {
	if segIdx < 0 || segSec <= 0 {
		return 0, fmt.Errorf("headtrace: bad segment query (%d, %g)", segIdx, segSec)
	}
	tr.peakMu.Lock()
	var peaks []float64
	for i := range tr.peakCache {
		if tr.peakCache[i].segSec == segSec {
			peaks = tr.peakCache[i].peaks
			break
		}
	}
	if peaks == nil {
		peaks = tr.buildSegmentPeaks(segSec)
		tr.peakCache = append(tr.peakCache, segPeaks{segSec: segSec, peaks: peaks})
	}
	tr.peakMu.Unlock()
	if segIdx >= len(peaks) {
		return 0, fmt.Errorf("headtrace: segment %d beyond trace end", segIdx)
	}
	return peaks[segIdx], nil
}

// buildSegmentPeaks computes the peak speed of every segment in one pass,
// reusing a single speeds buffer. Each entry reproduces the uncached
// computation exactly: segment speeds via segmentSpeedsInto, then the 0.98
// quantile (0 for an empty segment). The valid prefix is contiguous because
// the segment start index grows monotonically with segIdx.
func (tr *Trace) buildSegmentPeaks(segSec float64) []float64 {
	var peaks []float64
	var buf []float64
	for segIdx := 0; ; segIdx++ {
		speeds, err := tr.segmentSpeedsInto(buf, segIdx, segSec)
		if err != nil {
			return peaks
		}
		buf = speeds
		if len(speeds) == 0 {
			peaks = append(peaks, 0)
			continue
		}
		// Quantile cannot fail on a non-empty slice with q = 0.98.
		peak, _ := stats.Quantile(speeds, 0.98)
		peaks = append(peaks, peak)
	}
}

// XYSeries returns the viewing-center coordinate streams (x and y panorama
// coordinates in degrees) for ridge-regression viewport prediction. The x
// series is unwrapped (continuous across the 0/360 seam) so the regression
// sees a smooth signal.
//
// The series is computed on the first call and memoized on the trace, so
// every call returns the same slices: callers must treat them as read-only.
// Like the peak-speed memo, it assumes Samples do not change after the
// first call.
func (tr *Trace) XYSeries() (xs, ys []float64) {
	tr.xyOnce.Do(func() {
		tr.xs = make([]float64, len(tr.Samples))
		tr.ys = make([]float64, len(tr.Samples))
		var cum, prevRaw float64
		for i, s := range tr.Samples {
			p := geom.PointOf(s.O)
			if i == 0 {
				cum = p.X
			} else {
				cum += geom.WrapDeltaX(prevRaw, p.X)
			}
			prevRaw = p.X
			tr.xs[i] = cum
			tr.ys[i] = p.Y
		}
	})
	return tr.xs, tr.ys
}

// Dataset bundles all traces for one video.
type Dataset struct {
	// Video is the content profile the traces were generated for.
	Video video.Profile
	// Traces holds one entry per user.
	Traces []*Trace
}

// SplitTrainEval partitions the dataset into nTrain training users (used to
// construct Ptiles) and the remainder for evaluation, mirroring the paper's
// 40/8 split (Section V-A). The split is deterministic for a given seed.
func (d *Dataset) SplitTrainEval(nTrain int, seed int64) (train, eval []*Trace, err error) {
	if nTrain <= 0 || nTrain >= len(d.Traces) {
		return nil, nil, fmt.Errorf("headtrace: train size %d outside (0, %d)", nTrain, len(d.Traces))
	}
	rng := stats.NewRNG(seed)
	perm := rng.Perm(len(d.Traces))
	train = make([]*Trace, 0, nTrain)
	eval = make([]*Trace, 0, len(d.Traces)-nTrain)
	for i, idx := range perm {
		if i < nTrain {
			train = append(train, d.Traces[idx])
		} else {
			eval = append(eval, d.Traces[idx])
		}
	}
	return train, eval, nil
}

// Stats summarizes a dataset's head-movement behaviour: the aggregate
// switching-speed distribution and per-segment center dispersion the Ptile
// calibration relies on.
type Stats struct {
	// Users and Samples count the dataset size.
	Users, Samples int
	// Speed summarizes the Eq. 5 switching-speed samples.
	Speed stats.Summary
	// FracAbove10 is the share of samples above 10°/s (Fig. 5's claim).
	FracAbove10 float64
	// MeanPairwiseDist is the mean pairwise viewing-center distance across
	// users, averaged over sampled segments (degrees).
	MeanPairwiseDist float64
}

// Statistics computes dataset statistics, sampling every strideth segment
// for the dispersion metric (stride ≤ 0 means 10).
func (d *Dataset) Statistics(segSec float64, stride int) (Stats, error) {
	if len(d.Traces) == 0 {
		return Stats{}, fmt.Errorf("headtrace: empty dataset")
	}
	if segSec <= 0 {
		return Stats{}, fmt.Errorf("headtrace: non-positive segment duration %g", segSec)
	}
	if stride <= 0 {
		stride = 10
	}
	var speeds []float64
	out := Stats{Users: len(d.Traces)}
	for _, tr := range d.Traces {
		out.Samples += len(tr.Samples)
		speeds = tr.AppendSwitchingSpeeds(speeds)
	}
	summary, err := stats.Summarize(speeds)
	if err != nil {
		return Stats{}, err
	}
	out.Speed = summary
	out.FracAbove10 = stats.FractionAbove(speeds, 10)

	nSeg := d.Video.Segments(segSec)
	var sum float64
	var count int
	for seg := 0; seg < nSeg; seg += stride {
		centers := make([]geom.Point, 0, len(d.Traces))
		for _, tr := range d.Traces {
			if c, err := tr.ViewingCenter(seg, segSec); err == nil {
				centers = append(centers, c)
			}
		}
		for i := range centers {
			for j := i + 1; j < len(centers); j++ {
				sum += geom.Dist(centers[i], centers[j])
				count++
			}
		}
	}
	if count > 0 {
		out.MeanPairwiseDist = sum / float64(count)
	}
	return out, nil
}
