package netem

import (
	"math"
	"testing"
)

// profileSpecCorpus seeds both fuzzers with profile specs: every built-in,
// each override key, and malformed specs.
var profileSpecCorpus = []string{
	"ideal",
	"stable,capacity=10,rtt=20,queue=64,loss=0.01,cross=2",
	"bufferbloat,mtu=576",
	"suddendrop,repeat=120",
	"crossflow, capacity = 1e3 ,rtt=1e-9",
	"stable,capacity=",
	"stable,loss=nan",
	",,,=,==",
}

// FuzzParseProfile hammers the profile spec parser: any input must either
// fail cleanly or yield a profile that validates, compiles, and drives a
// link without panics, NaNs, or time going backwards.
func FuzzParseProfile(f *testing.F) {
	for _, spec := range profileSpecCorpus {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseProfile(spec)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParseProfile(%q) returned invalid profile: %v", spec, err)
		}
		s := p.compile()
		prev := 0.0
		for _, ts := range []float64{0, 0.05, 1, 17.3, 1e4} {
			pr := s.at(ts)
			if err := pr.Validate(); err != nil {
				t.Fatalf("compiled params invalid at %g: %v", ts, err)
			}
			nb := s.nextBoundary(prev)
			if !math.IsInf(nb, 1) && nb <= prev {
				t.Fatalf("boundary %g not after %g", nb, prev)
			}
		}
		link, err := NewLink(p)
		if err != nil {
			t.Fatalf("NewLink on validated profile: %v", err)
		}
		last := 0.0
		for i := 0; i < 8; i++ {
			at := float64(i) * 0.25
			served, dropped := link.Send(1200, at)
			if dropped {
				continue
			}
			if math.IsNaN(served) {
				t.Fatalf("NaN service time at %g", at)
			}
			if !math.IsInf(served, 1) && served < last {
				t.Fatalf("service time went backwards: %g after %g", served, last)
			}
			if !math.IsInf(served, 1) {
				last = served
			}
		}
	})
}

// FuzzSessionNetDownload drives a SessionNet built from a fuzzed profile
// spec, seed and pace factor through three downloads of fuzzed sizes,
// separated by fuzzed gaps. Every call must return an error or a finite
// positive duration, and its packet samples and Stats must account for
// each other: no panic, no NaN, no byte lost or invented. A size whose byte
// count overflows int and a start the link schedule cannot step past must
// return an error. Arrival order is not checked: a ramp tick whose start
// rounds below its schedule boundary can deliver a later packet first.
func FuzzSessionNetDownload(f *testing.F) {
	for i, spec := range profileSpecCorpus {
		f.Add(spec, int64(i), float64(i%3)*0.75, 4e6, 0.5, 2e7, 0.0, 3e5)
	}
	f.Add("bufferbloat", int64(1), 1.25, 8e6, 0.3, 2e6, 0.3, 5e6)
	f.Add("suddendrop,rtt=150,loss=0.01", int64(2), 0.0, 3e7, 19.0, 1e6, 1.0, 1e-3)
	f.Add("crossflow,cross=40", int64(3), 2.0, 1e6, 1.0, 1e6, -5.0, math.NaN())
	f.Add("stable", int64(4), 0.0, 1e6, 0.5, math.NaN(), 0.0, 1e6)
	f.Add("stable", int64(5), 0.0, 1e20, 0.0, 1e6, 0.0, 1e6)
	f.Add("crossflow,cross=40", int64(6), 0.0, 1e5, 1e300, 1e5, 0.0, 1e5)
	f.Fuzz(func(t *testing.T, spec string, seed int64, pace, size0, gap0, size1, gap1, size2 float64) {
		p, err := ParseProfile(spec)
		if err != nil {
			return
		}
		n, err := NewSessionNet(SessionConfig{Profile: p, Seed: seed, SegmentSec: 1, PaceFactor: pace})
		if err != nil {
			return
		}
		start := 0.0
		for i, c := range []struct{ size, gap float64 }{{size0, gap0}, {size1, gap1}, {size2, 0}} {
			// A download's work and memory grow with its packet count, so
			// sizes stay in realistic ranges, apart from those whose byte
			// count overflows int: Download rejects them up front.
			overflows := math.Ceil(c.size/8) >= float64(math.MaxInt)
			if math.Abs(c.size)/8 > 2e4*float64(p.MTU()) && !overflows {
				return
			}
			stuck := n.link.at(start).next <= start
			before := n.Stats()
			dur, err := n.Download(c.size, start)
			if (overflows || stuck) && err == nil {
				t.Fatalf("download %d (%g bits at %g) accepted: byte count overflows %v, schedule stuck %v", i, c.size, start, overflows, stuck)
			}
			after := n.Stats()
			pkts := n.Packets()
			if err == nil && (math.IsNaN(dur) || math.IsInf(dur, 0) || dur <= 0) {
				t.Fatalf("download %d (%g bits at %g): duration %g", i, c.size, start, dur)
			}
			if got := after.Packets - before.Packets; got != len(pkts) {
				t.Fatalf("download %d: Stats().Packets grew by %d, Packets() has %d", i, got, len(pkts))
			}
			if after.Retransmits != after.DropsTail+after.DropsLoss {
				t.Fatalf("download %d: %d retransmits for %d tail + %d loss drops", i, after.Retransmits, after.DropsTail, after.DropsLoss)
			}
			bytes, lastSend := 0, math.Inf(-1)
			for j, s := range pkts {
				if math.IsNaN(s.SendSec) || math.IsNaN(s.RecvSec) || s.RecvSec < s.SendSec {
					t.Fatalf("download %d packet %d: sent %g, received %g", i, j, s.SendSec, s.RecvSec)
				}
				if s.SendSec < lastSend {
					t.Fatalf("download %d packet %d: sent at %g after %g", i, j, s.SendSec, lastSend)
				}
				lastSend = s.SendSec
				bytes += s.Bytes
			}
			if err != nil {
				start++
				continue
			}
			if want := int(math.Ceil(c.size / 8)); bytes != want {
				t.Fatalf("download %d: delivered %d bytes of %d", i, bytes, want)
			}
			start += dur + c.gap
		}
	})
}
