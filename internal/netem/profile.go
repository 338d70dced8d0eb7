package netem

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Mbps converts megabits/s to bits/s for profile literals.
func Mbps(m float64) float64 { return m * 1e6 }

// Named builds one of the built-in link profiles:
//
//   - ideal: unlimited capacity, zero delay, zero loss — downloads complete
//     instantly; the only named profile Listen accepts.
//   - stable: a steady 40 Mbps LTE-class link, 40 ms RTT, sane queue.
//   - bufferbloat: same capacity but an unbounded bottleneck queue and no
//     pacing discipline below us — self-inflicted standing queues.
//   - suddendrop: 60 Mbps collapsing to 6 Mbps mid-session, then
//     recovering via a ramp.
//   - crossflow: periodic competing flow claiming ~2/3 of the bottleneck.
//
// The returned profile is freshly allocated; callers may mutate it.
func Named(name string) (*Profile, error) {
	var p *Profile
	switch name {
	case "ideal":
		p = &Profile{
			Name:   "ideal",
			Phases: []Phase{{StartSec: 0, Params: Params{}}},
		}
	case "stable":
		p = &Profile{
			Name: "stable",
			Phases: []Phase{{
				StartSec: 0,
				Params:   Params{CapacityBps: Mbps(40), RTTSec: 0.04, QueueBytes: 256 << 10},
			}},
		}
	case "bufferbloat":
		p = &Profile{
			Name: "bufferbloat",
			// QueueBytes 0 = unbounded: nothing ever drops, so delay — not
			// loss — is the only congestion signal. The capacity sags to a
			// twelfth mid-cycle while the deep queue silently absorbs the
			// overshoot: a loss-blind estimator keeps reading near-capacity
			// throughput off the draining queue and stalls on its own
			// bursts, which is exactly the regime a delay-gradient detector
			// exists for.
			Phases: []Phase{
				{StartSec: 0, Params: Params{CapacityBps: Mbps(24), RTTSec: 0.06}},
				{StartSec: 12, Params: Params{CapacityBps: Mbps(2), RTTSec: 0.06}},
				{StartSec: 20, Params: Params{CapacityBps: Mbps(2), RTTSec: 0.06}},
				{StartSec: 26, Ramp: true, Params: Params{CapacityBps: Mbps(24), RTTSec: 0.06}},
			},
			RepeatSec: 30,
		}
	case "suddendrop":
		p = &Profile{
			Name: "suddendrop",
			Phases: []Phase{
				{StartSec: 0, Params: Params{CapacityBps: Mbps(60), RTTSec: 0.04, QueueBytes: 256 << 10}},
				{StartSec: 20, Params: Params{CapacityBps: Mbps(6), RTTSec: 0.08, QueueBytes: 64 << 10}},
				{StartSec: 45, Ramp: true, Params: Params{CapacityBps: Mbps(60), RTTSec: 0.04, QueueBytes: 256 << 10}},
			},
			RepeatSec: 60,
		}
	case "crossflow":
		p = &Profile{
			Name: "crossflow",
			Phases: []Phase{
				{StartSec: 0, Params: Params{CapacityBps: Mbps(30), RTTSec: 0.05, QueueBytes: 192 << 10}},
				{StartSec: 10, Params: Params{CapacityBps: Mbps(30), RTTSec: 0.05, QueueBytes: 192 << 10, CrossBps: Mbps(20)}},
				{StartSec: 30, Params: Params{CapacityBps: Mbps(30), RTTSec: 0.05, QueueBytes: 192 << 10}},
			},
			RepeatSec: 40,
		}
	default:
		return nil, fmt.Errorf("netem: unknown profile %q (have %s)", name, strings.Join(ProfileNames(), ", "))
	}
	if err := p.Validate(); err != nil {
		panic("netem: built-in profile invalid: " + err.Error())
	}
	return p, nil
}

// ProfileNames lists the built-in profiles, sorted.
func ProfileNames() []string {
	names := []string{"ideal", "stable", "bufferbloat", "suddendrop", "crossflow"}
	sort.Strings(names)
	return names
}

// ParseProfile decodes a profile spec of the form
//
//	name[,key=value,...]
//
// where name is a built-in profile and the optional key=value overrides
// tweak it: capacity=<Mbps>, rtt=<ms>, queue=<KiB>, loss=<prob>,
// cross=<Mbps> apply to every phase; mtu=<bytes> and repeat=<sec> apply to
// the profile. The result is validated before being returned.
func ParseProfile(spec string) (*Profile, error) {
	parts := strings.Split(spec, ",")
	p, err := Named(strings.TrimSpace(parts[0]))
	if err != nil {
		return nil, err
	}
	for _, kv := range parts[1:] {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, valStr, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("netem: override %q is not key=value", kv)
		}
		key = strings.TrimSpace(key)
		val, err := strconv.ParseFloat(strings.TrimSpace(valStr), 64)
		if err != nil {
			return nil, fmt.Errorf("netem: override %q: %v", kv, err)
		}
		switch key {
		case "capacity":
			for i := range p.Phases {
				p.Phases[i].CapacityBps = Mbps(val)
			}
		case "rtt":
			for i := range p.Phases {
				p.Phases[i].RTTSec = val / 1000
			}
		case "queue":
			for i := range p.Phases {
				p.Phases[i].QueueBytes = val * 1024
			}
		case "loss":
			for i := range p.Phases {
				p.Phases[i].LossProb = val
			}
		case "cross":
			for i := range p.Phases {
				p.Phases[i].CrossBps = Mbps(val)
			}
		case "mtu":
			p.MTUBytes = int(val)
			if float64(p.MTUBytes) != val {
				return nil, fmt.Errorf("netem: mtu %g is not an integer", val)
			}
		case "repeat":
			p.RepeatSec = val
		default:
			return nil, fmt.Errorf("netem: unknown override key %q", key)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
