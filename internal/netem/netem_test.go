package netem

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func mustProfile(t testing.TB, name string) *Profile {
	t.Helper()
	p, err := Named(name)
	if err != nil {
		t.Fatalf("Named(%q): %v", name, err)
	}
	return p
}

func TestProfileValidate(t *testing.T) {
	base := func() *Profile {
		return &Profile{Name: "x", Phases: []Phase{{Params: Params{CapacityBps: 1e6, RTTSec: 0.01}}}}
	}
	cases := []struct {
		name   string
		mutate func(*Profile)
		ok     bool
	}{
		{"valid", func(*Profile) {}, true},
		{"unnamed", func(p *Profile) { p.Name = "" }, false},
		{"no phases", func(p *Profile) { p.Phases = nil }, false},
		{"first phase nonzero start", func(p *Profile) { p.Phases[0].StartSec = 1 }, false},
		{"first phase ramp", func(p *Profile) { p.Phases[0].Ramp = true }, false},
		{"negative capacity", func(p *Profile) { p.Phases[0].CapacityBps = -1 }, false},
		{"NaN capacity", func(p *Profile) { p.Phases[0].CapacityBps = math.NaN() }, false},
		{"Inf capacity", func(p *Profile) { p.Phases[0].CapacityBps = math.Inf(1) }, false},
		{"huge RTT", func(p *Profile) { p.Phases[0].RTTSec = 120 }, false},
		{"loss 1.0", func(p *Profile) { p.Phases[0].LossProb = 1 }, false},
		{"negative loss", func(p *Profile) { p.Phases[0].LossProb = -0.1 }, false},
		{"non-ascending phases", func(p *Profile) {
			p.Phases = append(p.Phases, Phase{StartSec: 5, Params: p.Phases[0].Params},
				Phase{StartSec: 5, Params: p.Phases[0].Params})
		}, false},
		{"repeat before last phase", func(p *Profile) {
			p.Phases = append(p.Phases, Phase{StartSec: 10, Params: p.Phases[0].Params})
			p.RepeatSec = 5
		}, false},
		{"bad MTU", func(p *Profile) { p.MTUBytes = 1 << 20 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base()
			tc.mutate(p)
			err := p.Validate()
			if tc.ok && err != nil {
				t.Fatalf("want valid, got %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("want error, got nil")
			}
		})
	}
}

func TestNamedProfilesValid(t *testing.T) {
	for _, name := range ProfileNames() {
		p := mustProfile(t, name)
		if p.Name != name {
			t.Fatalf("Named(%q).Name = %q", name, p.Name)
		}
		// The compiled schedule must answer queries far past the phases.
		s := p.compile()
		for _, ts := range []float64{0, 0.5, 10, 59.9, 60, 1000} {
			pr := s.at(ts)
			if err := pr.Validate(); err != nil {
				t.Fatalf("%s at(%g): %v", name, ts, err)
			}
		}
	}
}

func TestParseProfile(t *testing.T) {
	cases := []struct {
		spec string
		ok   bool
		chk  func(*Profile) bool
	}{
		{"ideal", true, func(p *Profile) bool { return p.Name == "ideal" }},
		{"stable", true, nil},
		{"bufferbloat", true, nil},
		{"suddendrop", true, nil},
		{"crossflow", true, nil},
		{"stable,capacity=10", true, func(p *Profile) bool { return p.Phases[0].CapacityBps == Mbps(10) }},
		{"stable,rtt=100", true, func(p *Profile) bool { return p.Phases[0].RTTSec == 0.1 }},
		{"stable,queue=64", true, func(p *Profile) bool { return p.Phases[0].QueueBytes == 64*1024 }},
		{"stable,loss=0.02", true, func(p *Profile) bool { return p.Phases[0].LossProb == 0.02 }},
		{"stable,cross=5", true, func(p *Profile) bool { return p.Phases[0].CrossBps == Mbps(5) }},
		{"stable,mtu=576", true, func(p *Profile) bool { return p.MTU() == 576 }},
		{"suddendrop,repeat=120", true, func(p *Profile) bool { return p.RepeatSec == 120 }},
		{"stable, capacity=10 , rtt=20", true, nil},
		{"stable,,", true, nil},
		{"nosuch", false, nil},
		{"", false, nil},
		{"stable,capacity", false, nil},
		{"stable,capacity=abc", false, nil},
		{"stable,bogus=1", false, nil},
		{"stable,loss=1.5", false, nil},
		{"stable,capacity=-4", false, nil},
		{"stable,mtu=1.5", false, nil},
		{"stable,rtt=nan", false, nil},
		{"suddendrop,repeat=10", false, nil}, // before last phase start
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			p, err := ParseProfile(tc.spec)
			if tc.ok && err != nil {
				t.Fatalf("want ok, got %v", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatalf("want error, got profile %+v", p)
				}
				return
			}
			if tc.chk != nil && !tc.chk(p) {
				t.Fatalf("check failed for %+v", p)
			}
		})
	}
}

func TestScheduleAtAndBoundary(t *testing.T) {
	p := mustProfile(t, "suddendrop") // phases at 0, 20, ramp to 45, repeat 60
	s := p.compile()
	if got := s.at(0).CapacityBps; got != Mbps(60) {
		t.Fatalf("at(0) capacity = %g", got)
	}
	if got := s.at(20).CapacityBps; got != Mbps(6) {
		t.Fatalf("at(20) capacity = %g", got)
	}
	// Mid-ramp capacity must be strictly between the endpoints.
	mid := s.at(32.5).CapacityBps
	if mid <= Mbps(6) || mid >= Mbps(60) {
		t.Fatalf("mid-ramp capacity %g not in (6M, 60M)", mid)
	}
	// Repeat wraps: t=60 is t=0 again.
	if got := s.at(60).CapacityBps; got != Mbps(60) {
		t.Fatalf("at(60) capacity = %g", got)
	}
	if got := s.at(80).CapacityBps; got != Mbps(6) {
		t.Fatalf("at(80) capacity = %g (want wrapped t=20)", got)
	}
	// Boundaries advance strictly and wrap with the repeat period.
	tcur := 0.0
	for i := 0; i < 10000; i++ {
		next := s.nextBoundary(tcur)
		if next <= tcur {
			t.Fatalf("boundary %g not after %g", next, tcur)
		}
		tcur = next
		if tcur > 500 {
			return
		}
	}
	t.Fatalf("boundaries stopped advancing at %g", tcur)
}

func TestScheduleNoRepeatHoldsLastPhase(t *testing.T) {
	p := mustProfile(t, "stable")
	s := p.compile()
	if got := s.nextBoundary(0); !math.IsInf(got, 1) {
		t.Fatalf("single-phase boundary = %g, want +Inf", got)
	}
	if got := s.at(1e6).CapacityBps; got != Mbps(40) {
		t.Fatalf("at(1e6) = %g", got)
	}
}

func TestLinkIdealInstant(t *testing.T) {
	l, err := NewLink(mustProfile(t, "ideal"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		at := float64(i) * 0.01
		served, dropped := l.Send(1500, at)
		if dropped || served != at {
			t.Fatalf("ideal send %d: served=%g dropped=%v", i, served, dropped)
		}
	}
	if l.QueuedBytes() != 0 {
		t.Fatalf("ideal queue %g", l.QueuedBytes())
	}
}

func TestLinkSerializationTime(t *testing.T) {
	// 24 Mbps = 3 MB/s: a 3000-byte packet serializes in 1 ms.
	l, err := NewLink(mustProfile(t, "bufferbloat"))
	if err != nil {
		t.Fatal(err)
	}
	served, dropped := l.Send(3000, 0)
	if dropped {
		t.Fatal("unexpected drop")
	}
	if math.Abs(served-0.001) > 1e-9 {
		t.Fatalf("served=%g want 0.001", served)
	}
	// A second packet sent at the same instant queues behind the first.
	served2, _ := l.Send(3000, 0)
	if math.Abs(served2-0.002) > 1e-9 {
		t.Fatalf("served2=%g want 0.002", served2)
	}
	// After the queue drains, service is back to one serialization delay.
	served3, _ := l.Send(3000, 1)
	if math.Abs(served3-1.001) > 1e-9 {
		t.Fatalf("served3=%g want 1.001", served3)
	}
}

func TestLinkDroptail(t *testing.T) {
	p := mustProfile(t, "stable")
	p.Phases[0].QueueBytes = 4000
	l, err := NewLink(p)
	if err != nil {
		t.Fatal(err)
	}
	// Burst at t=0: 40 Mbps drains 5 MB/s; queue cap 4000 B fits two
	// 1500 B packets plus change, so a long burst must shed.
	drops := 0
	for i := 0; i < 10; i++ {
		if _, dropped := l.Send(1500, 0); dropped {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("droptail never fired on a 10-packet burst into a 4000B queue")
	}
	if l.Drops() != drops {
		t.Fatalf("Drops()=%d want %d", l.Drops(), drops)
	}
}

func TestLinkCrossTrafficSlowsService(t *testing.T) {
	base := mustProfile(t, "stable")
	withCross, err := ParseProfile("stable,cross=30")
	if err != nil {
		t.Fatal(err)
	}
	lb, _ := NewLink(base)
	lc, _ := NewLink(withCross)
	// Let cross fluid build a standing queue, then compare service times.
	servedBase, _ := lb.Send(1500, 2)
	servedCross, _ := lc.Send(1500, 2)
	if servedCross <= servedBase {
		t.Fatalf("cross traffic did not slow service: base=%g cross=%g", servedBase, servedCross)
	}
}

func TestLinkBufferbloatQueueGrows(t *testing.T) {
	l, err := NewLink(mustProfile(t, "bufferbloat"))
	if err != nil {
		t.Fatal(err)
	}
	// Dump 2 MB at t=0 into a 24 Mbps (3 MB/s) unbounded queue: the last
	// packet serves ~0.667s later, and nothing drops.
	var last float64
	for sent := 0; sent < 2<<20; sent += 1500 {
		served, dropped := l.Send(1500, 0)
		if dropped {
			t.Fatal("bufferbloat profile must never drop")
		}
		if served < last {
			t.Fatalf("service went backwards: %g after %g", served, last)
		}
		last = served
	}
	if last < 0.6 || last > 0.8 {
		t.Fatalf("last packet served at %g, want ~0.67", last)
	}
}

func TestSessionNetDeterministicReplay(t *testing.T) {
	for _, name := range []string{"stable", "bufferbloat", "suddendrop", "crossflow"} {
		t.Run(name, func(t *testing.T) {
			mk := func() *SessionNet {
				p := mustProfile(t, name)
				p.Phases[0].LossProb = 0.01 // exercise the RNG path everywhere
				n, err := NewSessionNet(SessionConfig{Profile: p, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
			a, b := mk(), mk()
			tWall := 0.0
			for seg := 0; seg < 20; seg++ {
				da, errA := a.Download(4e6, tWall)
				db, errB := b.Download(4e6, tWall)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("seg %d: errs diverge: %v vs %v", seg, errA, errB)
				}
				if errA != nil {
					continue
				}
				if math.Float64bits(da) != math.Float64bits(db) {
					t.Fatalf("seg %d: durations diverge: %x vs %x", seg, math.Float64bits(da), math.Float64bits(db))
				}
				pa, pb := a.Packets(), b.Packets()
				if len(pa) != len(pb) {
					t.Fatalf("seg %d: packet counts diverge: %d vs %d", seg, len(pa), len(pb))
				}
				for i := range pa {
					if math.Float64bits(pa[i].SendSec) != math.Float64bits(pb[i].SendSec) ||
						math.Float64bits(pa[i].RecvSec) != math.Float64bits(pb[i].RecvSec) ||
						pa[i].Bytes != pb[i].Bytes {
						t.Fatalf("seg %d packet %d diverges: %+v vs %+v", seg, i, pa[i], pb[i])
					}
				}
				tWall += da + 1
			}
			if a.Stats() != b.Stats() {
				t.Fatalf("stats diverge: %+v vs %+v", a.Stats(), b.Stats())
			}
		})
	}
}

func TestSessionNetDownloadDuration(t *testing.T) {
	// 8 Mbit over a clean 24 Mbps link ≈ 1/3 s + RTT overheads.
	n, err := NewSessionNet(SessionConfig{Profile: mustProfile(t, "bufferbloat"), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dur, err := n.Download(8e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dur < 0.33 || dur > 0.45 {
		t.Fatalf("8Mb @ 24Mbps took %gs, want ~0.33-0.45", dur)
	}
	// Packet samples arrive in order and cover the payload.
	var bytes int
	prev := math.Inf(-1)
	for _, ps := range n.Packets() {
		if ps.RecvSec < prev {
			t.Fatalf("arrival order violated: %g after %g", ps.RecvSec, prev)
		}
		prev = ps.RecvSec
		bytes += ps.Bytes
	}
	if bytes != int(math.Ceil(8e6/8)) {
		t.Fatalf("delivered %d bytes, want %d", bytes, int(math.Ceil(8e6/8)))
	}
}

func TestSessionNetPacingReducesQueueDelay(t *testing.T) {
	// Same link, same segment: the paced sender must see a smaller worst
	// queueing delay than the burst dump (it never builds the standing
	// queue), at a modest duration cost.
	mk := func(pace float64) (float64, float64) {
		n, err := NewSessionNet(SessionConfig{
			Profile: mustProfile(t, "bufferbloat"), Seed: 7,
			SegmentSec: 1, PaceFactor: pace,
		})
		if err != nil {
			t.Fatal(err)
		}
		dur, err := n.Download(8e6, 0)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for _, ps := range n.Packets() {
			if d := ps.RecvSec - ps.SendSec; d > worst {
				worst = d
			}
		}
		return dur, worst
	}
	_, worstBurst := mk(0)
	durPaced, worstPaced := mk(2) // pace at 2× encode rate: 16 Mbps < 24 Mbps capacity
	if worstPaced >= worstBurst/2 {
		t.Fatalf("pacing did not tame queue delay: paced %g vs burst %g", worstPaced, worstBurst)
	}
	if durPaced > 1.0 {
		t.Fatalf("paced download too slow: %g", durPaced)
	}
}

func TestSessionNetLossRetransmits(t *testing.T) {
	p, err := ParseProfile("stable,loss=0.05")
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewSessionNet(SessionConfig{Profile: p, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Download(8e6, 0); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.DropsLoss == 0 || st.Retransmits == 0 {
		t.Fatalf("5%% loss produced no retransmissions: %+v", st)
	}
	if st.Retransmits < st.DropsLoss {
		t.Fatalf("retransmits %d < loss drops %d", st.Retransmits, st.DropsLoss)
	}
}

func TestSessionNetRejectsBadInput(t *testing.T) {
	n, err := NewSessionNet(SessionConfig{Profile: mustProfile(t, "stable"), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A byte count that overflows int used to convert to a negative count
	// and "download" in 1 ns.
	for _, sz := range []float64{0, -1, math.NaN(), math.Inf(1), 1e20, 8 * float64(math.MaxInt)} {
		if _, err := n.Download(sz, 0); err == nil {
			t.Fatalf("Download(%g, 0) accepted", sz)
		}
	}
	for _, at := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := n.Download(1e6, at); err == nil {
			t.Fatalf("Download(1e6, %g) accepted", at)
		}
	}
	if _, err := NewSessionNet(SessionConfig{Profile: mustProfile(t, "stable"), PaceFactor: 1}); err == nil {
		t.Fatal("PaceFactor without SegmentSec accepted")
	}
	if _, err := NewSessionNet(SessionConfig{}); err == nil {
		t.Fatal("nil profile accepted")
	}
}

// TestSessionNetRejectsStuckStart: at a start so late that ulp(t) exceeds
// the link schedule's steps, the schedule cannot step past t. Such a start
// used to spin forever on a saturated link, and to "download" in 1 ns on a
// serving one; Download now rejects it, and the link's service solver
// reports such a time as never serviced.
func TestSessionNetRejectsStuckStart(t *testing.T) {
	serving, err := NewSessionNet(SessionConfig{Profile: mustProfile(t, "bufferbloat"), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dur, err := serving.Download(1e5, 1e300); err == nil {
		t.Fatalf("Download(1e5, 1e300) on bufferbloat = %g, nil; want an error", dur)
	}
	p, err := ParseProfile("crossflow,cross=40")
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewSessionNet(SessionConfig{Profile: p, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	link, err := NewLink(p)
	if err != nil {
		t.Fatal(err)
	}
	// Both calls used to spin; a regression must fail, not hang the suite.
	done := make(chan error, 1)
	go func() {
		if _, err := n.Download(1e5, 1e300); err == nil {
			done <- fmt.Errorf("Download(1e5, 1e300) accepted")
			return
		}
		if served, dropped := link.Send(1500, 1e300); dropped || !math.IsInf(served, 1) {
			done <- fmt.Errorf("Send at 1e300 = %g, dropped %v; want never serviced", served, dropped)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a download or send at t = 1e300 did not return within 10 s")
	}
}

func TestSessionNetRateAt(t *testing.T) {
	n, err := NewSessionNet(SessionConfig{Profile: mustProfile(t, "crossflow"), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.RateAt(0); got != Mbps(30) {
		t.Fatalf("RateAt(0) = %g", got)
	}
	if got := n.RateAt(15); got != Mbps(10) {
		t.Fatalf("RateAt(15) = %g (want capacity - cross)", got)
	}
	ideal, _ := NewSessionNet(SessionConfig{Profile: mustProfile(t, "ideal"), Seed: 1})
	if got := ideal.RateAt(0); got != 1e12 {
		t.Fatalf("ideal RateAt = %g", got)
	}
}

func TestPacerBudget(t *testing.T) {
	p, err := NewPacer(8e6, 0) // 1 MB/s
	if err != nil {
		t.Fatal(err)
	}
	if p.CanSend() {
		t.Fatal("fresh pacer has budget")
	}
	p.Advance(0.001) // 1 ms = 1000 bytes of credit
	if !p.CanSend() {
		t.Fatal("1ms of credit denied")
	}
	p.OnSent(1500)
	if p.CanSend() {
		t.Fatal("overdrawn pacer still allows send")
	}
	d := p.DelayUntilSend()
	if d <= 0 || d > 0.001 {
		t.Fatalf("delay %g, want ~500B/1MBps", d)
	}
	p.Advance(0.001 + d)
	if !p.CanSend() {
		t.Fatal("delay did not restore budget")
	}
	// Idle banking is capped.
	p.Advance(100)
	if p.budgetBytes > p.maxBudgetBytes {
		t.Fatalf("budget %g exceeds cap %g", p.budgetBytes, p.maxBudgetBytes)
	}
	if _, err := NewPacer(0, 0); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := NewPacer(math.NaN(), 0); err == nil {
		t.Fatal("NaN rate accepted")
	}
}

func TestPacedWriterVirtualClock(t *testing.T) {
	// Drive the writer on a fake clock that only advances when it sleeps:
	// writing 1 MB at 8 Mbit/s must consume ~1 virtual second.
	var now float64
	var sb strings.Builder
	pw, err := NewPacedWriter(&sb, 8e6,
		func() float64 { return now },
		func(sec float64) { now += sec },
		nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1<<20)
	n, err := pw.Write(payload)
	if err != nil || n != len(payload) {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	if sb.Len() != len(payload) {
		t.Fatalf("wrote %d bytes downstream", sb.Len())
	}
	want := float64(len(payload)) / (8e6 / 8)
	if now < want*0.95 || now > want*1.05 {
		t.Fatalf("paced 1MB took %gs virtual, want ~%g", now, want)
	}
}
