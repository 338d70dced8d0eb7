package qoe

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultWeights(t *testing.T) {
	w := DefaultWeights()
	if w.Variation != 1 || w.Rebuffer != 1 {
		t.Fatalf("weights = %+v, want (1, 1)", w)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Weights{Variation: -1, Rebuffer: 1}).Validate(); err == nil {
		t.Fatal("want error for negative weight")
	}
}

func TestSegmentNoImpairments(t *testing.T) {
	b, err := Segment(SegmentInput{
		Q0: 80, PrevQ0: 80, SizeBits: 1e6, RateBps: 4e6, BufferSec: 2,
	}, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if b.Variation != 0 || b.Rebuffer != 0 || b.StallSec != 0 {
		t.Fatalf("unexpected impairments: %+v", b)
	}
	if b.Q != 80 {
		t.Fatalf("Q = %g, want 80", b.Q)
	}
}

func TestSegmentVariation(t *testing.T) {
	b, err := Segment(SegmentInput{
		Q0: 60, PrevQ0: 80, SizeBits: 1e6, RateBps: 4e6, BufferSec: 2,
	}, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if b.Variation != 20 {
		t.Fatalf("variation = %g, want 20", b.Variation)
	}
	if b.Q != 40 {
		t.Fatalf("Q = %g, want 40", b.Q)
	}
	// Symmetric: upswings also count.
	b2, _ := Segment(SegmentInput{Q0: 80, PrevQ0: 60, SizeBits: 1e6, RateBps: 4e6, BufferSec: 2}, DefaultWeights())
	if b2.Variation != 20 {
		t.Fatalf("upward variation = %g, want 20", b2.Variation)
	}
}

func TestSegmentRebuffer(t *testing.T) {
	// 8 Mbit at 2 Mbps = 4 s download against a 2 s buffer: 2 s stall.
	b, err := Segment(SegmentInput{
		Q0: 50, PrevQ0: 50, SizeBits: 8e6, RateBps: 2e6, BufferSec: 2,
	}, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.StallSec-2) > 1e-9 {
		t.Fatalf("stall = %g, want 2", b.StallSec)
	}
	// I_r = stall/B · Q0 = 2/2 · 50 = 50.
	if math.Abs(b.Rebuffer-50) > 1e-9 {
		t.Fatalf("rebuffer = %g, want 50", b.Rebuffer)
	}
	if math.Abs(b.Q-0) > 1e-9 {
		t.Fatalf("Q = %g, want 0", b.Q)
	}
	// 1.5 s burned by failed attempts drains the buffer first: 3.5 s stall.
	b, err = Segment(SegmentInput{
		Q0: 50, PrevQ0: 50, SizeBits: 8e6, RateBps: 2e6, BufferSec: 2, WastedSec: 1.5,
	}, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.StallSec-3.5) > 1e-9 || math.Abs(b.Rebuffer-87.5) > 1e-9 {
		t.Fatalf("with waste: stall = %g, rebuffer = %g; want 3.5, 87.5", b.StallSec, b.Rebuffer)
	}
}

func TestSegmentEmptyBufferStall(t *testing.T) {
	b, err := Segment(SegmentInput{
		Q0: 70, PrevQ0: 70, SizeBits: 1e6, RateBps: 1e6, BufferSec: 0,
	}, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if b.Rebuffer != 70 {
		t.Fatalf("empty-buffer rebuffer = %g, want full Q0", b.Rebuffer)
	}
}

func TestSegmentValidation(t *testing.T) {
	w := DefaultWeights()
	cases := []SegmentInput{
		{Q0: 50, SizeBits: -1, RateBps: 1e6, BufferSec: 1},
		{Q0: 50, SizeBits: 1e6, RateBps: 0, BufferSec: 1},
		{Q0: 50, SizeBits: 1e6, RateBps: 1e6, BufferSec: -1},
		{Q0: 50, SizeBits: 1e6, RateBps: 1e6, BufferSec: 1, WastedSec: -1},
	}
	for i, in := range cases {
		if _, err := Segment(in, w); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	if _, err := Segment(SegmentInput{SizeBits: 1, RateBps: 1, BufferSec: 1}, Weights{Variation: -1}); err == nil {
		t.Fatal("want weight validation error")
	}
}

// Property: Q never exceeds Q0, and with zero impairments equals Q0.
func TestQUpperBound(t *testing.T) {
	w := DefaultWeights()
	check := func(q0, prev, size, rate, buf float64) bool {
		in := SegmentInput{
			Q0:        math.Mod(math.Abs(q0), 100),
			PrevQ0:    math.Mod(math.Abs(prev), 100),
			SizeBits:  math.Mod(math.Abs(size), 1e7),
			RateBps:   math.Mod(math.Abs(rate), 1e7) + 1e5,
			BufferSec: math.Mod(math.Abs(buf), 5),
		}
		b, err := Segment(in, w)
		if err != nil {
			return false
		}
		return b.Q <= b.Q0+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	segs := []Breakdown{
		{Q0: 80, Variation: 0, Rebuffer: 0, Q: 80},
		{Q0: 60, Variation: 20, Rebuffer: 10, StallSec: 0.5, Q: 30},
	}
	s, err := Summarize(segs)
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanQ != 55 || s.MeanQ0 != 70 || s.MeanVariation != 10 || s.MeanRebuffer != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Stalls != 1 || s.StallSec != 0.5 || s.Segments != 2 {
		t.Fatalf("stall accounting = %+v", s)
	}
	if _, err := Summarize(nil); err == nil {
		t.Fatal("want error for empty session")
	}
}
