package sim

import (
	"math"
	"reflect"
	"testing"

	"ptile360/internal/abr"
	"ptile360/internal/lte"
	"ptile360/internal/netem"
	"ptile360/internal/power"
)

// scriptedLink is a bandwidth trace whose downloads follow a script on two
// segments: on degrade, two failed attempts burn 0.4 s and the next rung
// down is delivered, one degrade step below the choice; on abandon, the
// link gives up after 0.7 s. Every other segment passes through: the chosen
// version, nothing wasted. With inconsistent set, the degraded delivery
// reports no degrade step.
type scriptedLink struct {
	tr               *lte.Trace
	degrade, abandon int
	inconsistent     bool
	// used and dl record the degraded delivery.
	used abr.OptionMeta
	dl   float64
}

func (l *scriptedLink) Download(f *Fetch) error {
	used := f.Chosen
	switch f.Segment {
	case l.abandon:
		f.WastedSec, f.Retries, f.Abandoned = 0.7, 3, true
		return nil
	case l.degrade:
		f.WastedSec, f.Retries = 0.4, 2
		if !l.inconsistent {
			f.DegradeSteps = 1
		}
		used = abr.OptionMeta{}
		for _, o := range f.Options {
			if o.SizeBits < f.Chosen.SizeBits && o.SizeBits > used.SizeBits {
				used = o
			}
		}
	}
	dl, err := l.tr.DownloadTime(used.SizeBits, f.StartSec+f.WastedSec)
	f.Used, f.DownloadSec = used, dl
	if f.Segment == l.degrade {
		l.used, l.dl = used, dl
	}
	return err
}

func (l *scriptedLink) RateAt(t float64) float64 { return l.tr.At(t) }

func (l *scriptedLink) Packets() []netem.PacketSample { return nil }

// claimingLink passes every segment through but claims a degrade step on
// segment seg, whose chosen version it delivered.
type claimingLink struct {
	scriptedLink
	seg int
}

func (l *claimingLink) Download(f *Fetch) error {
	err := l.scriptedLink.Download(f)
	if f.Segment == l.seg {
		f.DegradeSteps = 1
	}
	return err
}

// TestLinkOutcomes pins how a step accounts a link's outcome: a degraded
// delivery is charged as the version used, with the failed attempts'
// time draining the buffer and counting in the stall; an abandoned segment
// charges only its stall and leaves the estimator and the previous-choice
// memory alone; a delivery whose degrade steps disagree with the version
// used fails the step; and a pass-through link is sim.Run to the bit.
func TestLinkOutcomes(t *testing.T) {
	fx := fixture(t)
	cfg, err := DefaultConfig(SchemeOurs, power.Pixel3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RecordSegments = true
	pm, err := power.TableI(cfg.Phone)
	if err != nil {
		t.Fatal(err)
	}
	user := fx.eval[0]
	L := cfg.SegmentSec

	t.Run("pass-through", func(t *testing.T) {
		st, err := NewStepper(fx.cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		state, err := st.NewStateLink(user, &scriptedLink{tr: fx.trace, degrade: -1, abandon: -1})
		if err != nil {
			t.Fatal(err)
		}
		for done := false; !done; {
			info, err := st.Step(state)
			if err != nil {
				t.Fatal(err)
			}
			done = info.Done
		}
		got, err := st.Finish(state)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(fx.cat, user, fx.trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range [][2]float64{
			{got.Energy.Total(), want.Energy.Total()},
			{got.QoE.MeanQ, want.QoE.MeanQ},
			{got.QoE.StallSec, want.QoE.StallSec},
			{got.BitsDownloaded, want.BitsDownloaded},
		} {
			if math.Float64bits(m[0]) != math.Float64bits(m[1]) {
				t.Fatalf("pass-through link %v, sim.Run %v", m[0], m[1])
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass-through result diverges from sim.Run:\ngot  %+v\nwant %+v", got, want)
		}
		requireSessionInvariants(t, cfg, got)
	})

	const degradeSeg, abandonSeg = 30, 60

	// A link whose degrade steps disagree with the version it delivered
	// fails the step, which leaves the session where it was.
	for _, tc := range []struct {
		name string
		link Link
	}{
		{"cheaper rung without a step", &scriptedLink{tr: fx.trace, degrade: degradeSeg, abandon: -1, inconsistent: true}},
		{"chosen rung with a step", &claimingLink{scriptedLink{tr: fx.trace, degrade: -1, abandon: -1}, degradeSeg}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := NewStepper(fx.cat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			state, err := st.NewStateLink(user, tc.link)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < degradeSeg; k++ {
				if _, err := st.Step(state); err != nil {
					t.Fatalf("segment %d: %v", k, err)
				}
			}
			before := snapshotOf(state)
			if _, err := st.Step(state); err == nil {
				t.Fatal("inconsistent degrade report accepted")
			}
			if after := snapshotOf(state); after != before || len(state.PerSegment()) != degradeSeg {
				t.Fatalf("failed step moved the state\nbefore: %+v\nafter:  %+v (%d rows)", before, after, len(state.PerSegment()))
			}
		})
	}

	st, err := NewStepper(fx.cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	link := &scriptedLink{tr: fx.trace, degrade: degradeSeg, abandon: abandonSeg}
	state, err := st.NewStateLink(user, link)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < st.Segments(); k++ {
		bufferBefore, wallBefore := state.BufferSec(), state.WallSec()
		estBefore, prevBefore, prevQ0Before := state.EstimateBps(), state.prevChoice, state.prevQ0
		info, err := st.Step(state)
		if err != nil {
			t.Fatal(err)
		}
		row := state.PerSegment()[k]
		B := row.RequestBufferSec
		if k != degradeSeg && k != abandonSeg {
			if row.Retries != 0 || row.DegradeSteps != 0 || row.Abandoned {
				t.Fatalf("segment %d: pass-through row marks resilience: %+v", k, row)
			}
			continue
		}
		if B != bufferBefore-info.WaitSec {
			t.Fatalf("segment %d: row buffer %g is not the request-time buffer %g − %g", k, B, bufferBefore, info.WaitSec)
		}
		if got := wallBefore + info.WaitSec + info.DownloadSec; math.Abs(state.WallSec()-got) > 1e-9 {
			t.Fatalf("segment %d: wall %g, want %g", k, state.WallSec(), got)
		}

		if k == abandonSeg {
			if !row.Abandoned || row.DegradeSteps != 0 || row.Retries != 3 {
				t.Fatalf("abandoned row columns: %+v", row)
			}
			if row.Quality != 0 || row.SizeBits != 0 || row.EnergyMJ != 0 || row.PerceivedQuality != 0 || row.Q != 0 || row.FromPtile || row.ThroughputBps != 0 {
				t.Fatalf("abandoned segment charged a delivery: %+v", row)
			}
			if want := math.Max(0.7-B, 0) + L; row.StallSec != want || info.StallSec != want {
				t.Fatalf("abandoned stall %g (info %g), want max(0.7 − %g, 0) + L = %g", row.StallSec, info.StallSec, B, want)
			}
			if want := math.Max(B-0.7, 0); state.BufferSec() != want {
				t.Fatalf("abandoned buffer %g, want max(%g − 0.7, 0) = %g", state.BufferSec(), B, want)
			}
			if state.EstimateBps() != estBefore {
				t.Fatalf("abandoned step moved the estimate %g → %g", estBefore, state.EstimateBps())
			}
			if state.prevChoice != prevBefore || state.prevQ0 != prevQ0Before {
				t.Fatal("abandoned step updated the previous-choice memory")
			}
			continue
		}

		used, dl := link.used, link.dl
		if used.SizeBits == 0 {
			t.Fatalf("segment %d: chosen version has no cheaper rung", k)
		}
		if row.DegradeSteps != 1 || row.Abandoned || row.Retries != 2 {
			t.Fatalf("degraded row columns: %+v", row)
		}
		if row.Quality != used.Quality || row.FrameRate != used.FrameRate || row.SizeBits != used.SizeBits {
			t.Fatalf("row version (%d, %g, %g) is not the version used %+v", row.Quality, row.FrameRate, row.SizeBits, used)
		}
		rate := used.SizeBits / dl
		decode := power.Ctile
		if row.FromPtile {
			decode = power.PtileScheme
		}
		e, err := pm.Segment(decode, used.SizeBits, rate, used.FrameRate, L)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(row.EnergyMJ) != math.Float64bits(e.Total()) || row.TxEnergyMJ != e.Tx || row.DecodeEnergyMJ != e.Decode {
			t.Fatalf("degraded energy %g (tx %g, decode %g), used version costs %+v", row.EnergyMJ, row.TxEnergyMJ, row.DecodeEnergyMJ, e)
		}
		speed, err := user.SegmentPeakSpeed(k, L)
		if err != nil {
			speed = 0
		}
		q0, err := st.s.quality(k, used.Quality, used.FrameRate, speed)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(row.PerceivedQuality) != math.Float64bits(q0) {
			t.Fatalf("degraded Q0 %g, used version's %g", row.PerceivedQuality, q0)
		}
		if want := math.Max(0.4+used.SizeBits/rate-B, 0); math.Float64bits(row.StallSec) != math.Float64bits(want) {
			t.Fatalf("degraded stall %g, want max(0.4 + S/R − %g, 0) = %g", row.StallSec, B, want)
		}
		if want := math.Max(B-(0.4+dl), 0) + L; state.BufferSec() != want {
			t.Fatalf("degraded buffer %g, want max(%g − 0.4 − %g, 0) + L = %g", state.BufferSec(), B, dl, want)
		}
		if info.DownloadSec != 0.4+dl {
			t.Fatalf("degraded fetch took %g, want 0.4 + %g", info.DownloadSec, dl)
		}
		if state.prevChoice != used.Option {
			t.Fatalf("previous choice %+v, want the version used %+v", state.prevChoice, used.Option)
		}
	}

	res, err := st.Finish(state)
	if err != nil {
		t.Fatal(err)
	}
	var bits float64
	ptiles := 0
	for _, row := range res.PerSegment {
		bits += row.SizeBits
		if row.FromPtile {
			ptiles++
		}
	}
	if res.BitsDownloaded != bits || res.PtileSegments != ptiles || res.Segments != st.Segments() {
		t.Fatalf("totals do not reconcile with the rows: %g bits vs %g, %d Ptile segments vs %d",
			res.BitsDownloaded, bits, res.PtileSegments, ptiles)
	}
	requireSessionInvariants(t, cfg, res)
}
