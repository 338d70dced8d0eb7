package predict

import (
	"math"
	"testing"
)

// allEstimatorKinds lists every registered kind for table-driven suites.
var allEstimatorKinds = []EstimatorKind{
	EstimatorHarmonic, EstimatorLastSample, EstimatorEWMA,
	EstimatorMovingAverage, EstimatorDelayGradient,
}

// TestObservePoisonRejected pins the hardening contract for every
// estimator kind: zero/negative/NaN/±Inf observations return an error and
// leave the estimate bit-identical, and absurd finite samples clamp
// instead of dominating the window.
func TestObservePoisonRejected(t *testing.T) {
	poisons := []float64{0, -1, -1e9, math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, kind := range allEstimatorKinds {
		t.Run(kind.String(), func(t *testing.T) {
			e, err := NewEstimator(kind, 5)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []float64{8e6, 12e6, 10e6} {
				if err := e.Observe(r); err != nil {
					t.Fatalf("good sample %g rejected: %v", r, err)
				}
			}
			before, err := e.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range poisons {
				if err := e.Observe(p); err == nil {
					t.Fatalf("poison sample %g accepted", p)
				}
				after, err := e.Estimate()
				if err != nil {
					t.Fatalf("estimate broken after rejected %g: %v", p, err)
				}
				if math.Float64bits(after) != math.Float64bits(before) {
					t.Fatalf("rejected sample %g changed estimate: %g -> %g", p, before, after)
				}
			}
			// A finite but absurd sample clamps; the estimate stays finite
			// and within the sane ceiling.
			if err := e.Observe(1e300); err != nil {
				t.Fatalf("clampable sample rejected: %v", err)
			}
			got, err := e.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(got) || math.IsInf(got, 0) || got > maxSaneRateBps {
				t.Fatalf("estimate %g escaped the sane ceiling after clamp", got)
			}
		})
	}
}

// TestObservePoisonOnFreshEstimator checks the window stays empty when the
// first-ever sample is poison.
func TestObservePoisonOnFreshEstimator(t *testing.T) {
	for _, kind := range allEstimatorKinds {
		t.Run(kind.String(), func(t *testing.T) {
			e, err := NewEstimator(kind, 5)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Observe(math.NaN()); err == nil {
				t.Fatal("NaN accepted as first sample")
			}
			if e.Ready() {
				t.Fatal("estimator became ready from a rejected sample")
			}
			if _, err := e.Estimate(); err == nil {
				t.Fatal("estimate available after only a rejected sample")
			}
		})
	}
}

// feedSteady feeds packets of a download where the queueing delay stays
// flat: send and recv advance in lockstep.
func feedSteady(e *DelayGradient, start float64, groups int) {
	for g := 0; g < groups; g++ {
		base := start + float64(g)*0.010
		for k := 0; k < 3; k++ {
			ts := base + float64(k)*0.001
			e.ObservePacket(ts, ts+0.020, 1500)
		}
	}
}

// feedBloat feeds packets whose one-way delay grows linearly — a standing
// queue building under the flow.
func feedBloat(e *DelayGradient, start float64, groups int) {
	delay := 0.020
	for g := 0; g < groups; g++ {
		base := start + float64(g)*0.010
		for k := 0; k < 3; k++ {
			ts := base + float64(k)*0.001
			e.ObservePacket(ts, ts+delay, 1500)
		}
		delay += 0.008 // ~0.8 s/s slope, far above threshold
	}
}

func TestDelayGradientSteadyProbesUp(t *testing.T) {
	e := NewDelayGradient()
	if err := e.Observe(10e6); err != nil {
		t.Fatal(err)
	}
	feedSteady(e, 1, 30)
	if err := e.Observe(10e6); err != nil {
		t.Fatal(err)
	}
	got, _ := e.Estimate()
	if got <= 10e6 || got > probeCap*10e6 {
		t.Fatalf("steady link estimate %g, want a bounded probe above 10e6", got)
	}
}

func TestDelayGradientDetectsBufferbloat(t *testing.T) {
	e := NewDelayGradient()
	if err := e.Observe(24e6); err != nil {
		t.Fatal(err)
	}
	feedBloat(e, 1, 30)
	if err := e.Observe(24e6); err != nil {
		t.Fatal(err)
	}
	got, _ := e.Estimate()
	want := drainBeta * 24e6
	if math.Abs(got-want) > 1 {
		t.Fatalf("bloated link estimate %g, want AIMD backoff to %g", got, want)
	}
	// The latch clears: a following clean segment probes again.
	feedSteady(e, 10, 30)
	if err := e.Observe(24e6); err != nil {
		t.Fatal(err)
	}
	got2, _ := e.Estimate()
	if got2 <= got {
		t.Fatalf("estimate did not recover after overuse cleared: %g -> %g", got, got2)
	}
}

func TestDelayGradientIgnoresBadPackets(t *testing.T) {
	e := NewDelayGradient()
	e.ObservePacket(math.NaN(), 1, 100)
	e.ObservePacket(1, math.Inf(1), 100)
	e.ObservePacket(1, 2, 0)
	e.ObservePacket(1, 2, -5)
	if err := e.Observe(5e6); err != nil {
		t.Fatal(err)
	}
	got, err := e.Estimate()
	if err != nil || math.IsNaN(got) {
		t.Fatalf("bad packets poisoned the estimator: %g, %v", got, err)
	}
}

// TestEstimatorsDeterministic pins the property the fleet's cohorts share a
// session state on: an estimator is a function of the calls it was fed. For every kind, two
// estimators fed the same throughput samples — and, for a PacketObserver,
// the same packets, flat-delay and bloating in turn — return
// Float64bits-equal estimates after every call.
func TestEstimatorsDeterministic(t *testing.T) {
	rates := []float64{8e6, 12e6, 3e6, 10e6, 25e6, 1e300, 7e6, 9e6}
	for _, kind := range allEstimatorKinds {
		t.Run(kind.String(), func(t *testing.T) {
			var pair [2]Estimator
			for i := range pair {
				e, err := NewEstimator(kind, 5)
				if err != nil {
					t.Fatal(err)
				}
				pair[i] = e
			}
			calls := 0
			requireSame := func() {
				t.Helper()
				calls++
				a, errA := pair[0].Estimate()
				b, errB := pair[1].Estimate()
				if (errA == nil) != (errB == nil) || math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("call %d: estimates diverge: %g (%v) vs %g (%v)", calls, a, errA, b, errB)
				}
			}
			requireSame()
			for seg, r := range rates {
				if _, ok := pair[0].(PacketObserver); ok {
					for g := 0; g < 10; g++ {
						delay := 0.020
						if seg%2 == 1 {
							delay += 0.008 * float64(g)
						}
						for k := 0; k < 3; k++ {
							ts := float64(seg) + float64(g)*0.010 + float64(k)*0.001
							for _, e := range pair {
								e.(PacketObserver).ObservePacket(ts, ts+delay, 1500)
							}
							requireSame()
						}
					}
				}
				for _, e := range pair {
					if err := e.Observe(r); err != nil {
						t.Fatal(err)
					}
				}
				requireSame()
			}
		})
	}
}

func TestEstimatorKindDelayGradientRegistered(t *testing.T) {
	if EstimatorDelayGradient.String() != "delay-gradient" {
		t.Fatalf("String() = %q", EstimatorDelayGradient.String())
	}
	e, err := NewEstimator(EstimatorDelayGradient, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*DelayGradient); !ok {
		t.Fatalf("NewEstimator returned %T", e)
	}
	if _, ok := e.(PacketObserver); !ok {
		t.Fatal("delay-gradient estimator does not expose PacketObserver")
	}
}
