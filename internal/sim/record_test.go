package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"ptile360/internal/power"
	"ptile360/internal/predict"
)

// requireSessionInvariants checks a recorded session's events against the
// step's rules and its Result's totals:
//
//   - the clock: WallSec_k = WallSec_{k−1} + WaitSec_k + DownloadSec_k;
//   - the wait rule: WaitSec_k = max(BufferSec_{k−1} − β, 0), and the
//     request-time buffer RequestBufferSec_k = BufferSec_{k−1} − WaitSec_k;
//   - the buffer: 0 ≤ BufferSec ≤ β + L;
//   - energy: every term ≥ 0, and Tx + decode ≤ the segment total;
//   - the wire size: a served row's Bytes is SegmentBytes(SizeBits);
//   - abandoned rows: no energy, bits or bytes, Q0 = Q = 0, QoE loss 1;
//   - totals: the rows sum to the Result's bits, Tx and decode energy,
//     stall seconds and Ptile, stall and emergency counts exactly. The
//     total energy matches within 1e-9 relative, because a row carries its
//     Eq. 1 sum and the Result sums each term first.
func requireSessionInvariants(t *testing.T, cfg Config, res *Result) {
	t.Helper()
	beta, L := cfg.BufferCapSec, cfg.SegmentSec
	if len(res.PerSegment) != res.Segments {
		t.Fatalf("%d rows for %d segments", len(res.PerSegment), res.Segments)
	}
	var prev StepInfo
	var energy, tx, decode, bits, stallSec float64
	var ptiles, stalls, emergencies int
	for k, row := range res.PerSegment {
		fail := func(what string, got, want any) {
			t.Helper()
			t.Fatalf("segment %d: %s %v, want %v\nrow %+v", k, what, got, want, row)
		}
		if row.Segment != k {
			fail("index", row.Segment, k)
		}
		if want := math.Max(prev.BufferSec-beta, 0); row.WaitSec != want {
			fail("wait", row.WaitSec, want)
		}
		if want := prev.BufferSec - row.WaitSec; row.RequestBufferSec != want {
			fail("request-time buffer", row.RequestBufferSec, want)
		}
		if want := prev.WallSec + row.WaitSec + row.DownloadSec; row.WallSec != want {
			fail("wall clock", row.WallSec, want)
		}
		if row.BufferSec < 0 || row.BufferSec > beta+L {
			fail("buffer", row.BufferSec, "within [0, β + L]")
		}
		if row.EnergyMJ < 0 || row.TxEnergyMJ < 0 || row.DecodeEnergyMJ < 0 || row.TxEnergyMJ+row.DecodeEnergyMJ > row.EnergyMJ {
			fail("energy terms (total, tx, decode)", [3]float64{row.EnergyMJ, row.TxEnergyMJ, row.DecodeEnergyMJ}, "non-negative with tx + decode ≤ total")
		}
		switch {
		case row.Abandoned:
			if row.EnergyMJ != 0 || row.SizeBits != 0 || row.Bytes != 0 || row.PerceivedQuality != 0 || row.Q != 0 || row.QoELoss != 1 {
				fail("abandoned row (energy, bits, bytes, Q0, Q, QoE loss)",
					[]float64{row.EnergyMJ, row.SizeBits, float64(row.Bytes), row.PerceivedQuality, row.Q, row.QoELoss}, []float64{0, 0, 0, 0, 0, 1})
			}
		case row.Bytes != SegmentBytes(row.SizeBits):
			fail("bytes", row.Bytes, SegmentBytes(row.SizeBits))
		}
		energy += row.EnergyMJ
		tx += row.TxEnergyMJ
		decode += row.DecodeEnergyMJ
		bits += row.SizeBits
		stallSec += row.StallSec
		if row.FromPtile {
			ptiles++
		}
		if row.StallSec > 0 {
			stalls++
		}
		if row.Emergency {
			emergencies++
		}
		prev = row.StepInfo
	}
	for _, m := range []struct {
		what      string
		rows, res float64
	}{
		{"bits", bits, res.BitsDownloaded},
		{"tx energy", tx, res.Energy.Tx},
		{"decode energy", decode, res.Energy.Decode},
		{"stall seconds", stallSec, res.QoE.StallSec},
		{"Ptile segments", float64(ptiles), float64(res.PtileSegments)},
		{"stalls", float64(stalls), float64(res.QoE.Stalls)},
		{"emergencies", float64(emergencies), float64(res.Emergencies)},
	} {
		if math.Float64bits(m.rows) != math.Float64bits(m.res) {
			t.Fatalf("rows sum to %s %v, Result %v", m.what, m.rows, m.res)
		}
	}
	if total := res.Energy.Total(); math.Abs(energy-total) > 1e-9*math.Abs(total) {
		t.Fatalf("rows sum to energy %v, Result %v", energy, total)
	}
}

func TestRecordSegments(t *testing.T) {
	fx := fixture(t)
	cfg, err := DefaultConfig(SchemeOurs, power.Pixel3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RecordSegments = true
	res, err := Run(fx.cat, fx.eval[0], fx.trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSegment) != res.Segments {
		t.Fatalf("recorded %d traces for %d segments", len(res.PerSegment), res.Segments)
	}
	var energy, bits float64
	for i, tr := range res.PerSegment {
		if tr.Segment != i {
			t.Fatalf("trace %d has segment index %d", i, tr.Segment)
		}
		if tr.Quality < 1 || tr.Quality > 5 || tr.FrameRate <= 0 || tr.SizeBits <= 0 {
			t.Fatalf("malformed trace: %+v", tr)
		}
		if tr.RequestBufferSec < 0 || tr.ThroughputBps <= 0 {
			t.Fatalf("malformed trace: %+v", tr)
		}
		if want := (tr.BestPerceivedQuality - tr.PerceivedQuality) / tr.BestPerceivedQuality; tr.BestPerceivedQuality <= 0 || tr.QoELoss != want {
			t.Fatalf("QoE loss %g against best %g, want %g: %+v", tr.QoELoss, tr.BestPerceivedQuality, want, tr)
		}
		energy += tr.EnergyMJ
		bits += tr.SizeBits
	}
	// Per-segment records must reconcile with the session totals.
	if diff := energy - res.Energy.Total(); diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("per-segment energy %g != session total %g", energy, res.Energy.Total())
	}
	if diff := bits - res.BitsDownloaded; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("per-segment bits %g != session total %g", bits, res.BitsDownloaded)
	}
	requireSessionInvariants(t, cfg, res)
}

func TestRecordSegmentsOffByDefault(t *testing.T) {
	fx := fixture(t)
	cfg, _ := DefaultConfig(SchemeCtile, power.Pixel3)
	res, err := Run(fx.cat, fx.eval[0], fx.trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerSegment != nil {
		t.Fatal("PerSegment should be nil when recording is off")
	}
}

func TestWriteSegmentsCSV(t *testing.T) {
	fx := fixture(t)
	cfg, _ := DefaultConfig(SchemeOurs, power.Pixel3)
	cfg.RecordSegments = true
	res, err := Run(fx.cat, fx.eval[0], fx.trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSegmentsCSV(&buf, res.PerSegment); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != res.Segments+1 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), res.Segments+1)
	}
	if !strings.HasPrefix(lines[0], "segment,quality,fps") {
		t.Fatalf("header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if got := strings.Count(line, ","); got != 14 {
			t.Fatalf("row %q has %d commas, want 14", line, got)
		}
	}
	// The bytes are pinned, so a renamed field cannot move a column:
	// buffer_sec is RequestBufferSec, q0 PerceivedQuality and degraded
	// DegradeSteps > 0.
	const pinned = "3cf63ea7510c762ad182f02da660abb9a6030ce4f317720dc195d039e79f1ce7"
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != pinned {
		t.Fatalf("CSV sha256 %x (%d bytes), pinned %s", sum, buf.Len(), pinned)
	}
}

func TestEstimatorKindsRun(t *testing.T) {
	// Every estimator family must drive a session to completion with sane
	// accounting (the relative stall behaviour is workload-dependent and is
	// explored by BenchmarkAblationBandwidthEstimator, not asserted here).
	fx := fixture(t)
	for _, kind := range []struct {
		name string
		k    int
	}{
		{"harmonic", 1}, {"last-sample", 2}, {"ewma", 3}, {"moving-average", 4},
	} {
		cfg, _ := DefaultConfig(SchemeOurs, power.Pixel3)
		cfg.Estimator = estimatorKindFromInt(kind.k)
		res, err := Run(fx.cat, fx.eval[0], fx.trace, cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind.name, err)
		}
		if res.Segments != len(fx.cat.Content) || res.Energy.Total() <= 0 {
			t.Fatalf("%s: malformed result", kind.name)
		}
		if res.QoE.Stalls > res.Segments/4 {
			t.Fatalf("%s: %d stalls over %d segments", kind.name, res.QoE.Stalls, res.Segments)
		}
	}
}

// estimatorKindFromInt maps 1..4 to the predict estimator kinds without
// importing the package constants into the test table literal.
func estimatorKindFromInt(k int) predict.EstimatorKind { return predict.EstimatorKind(k) }
