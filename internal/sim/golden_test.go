package sim

import (
	"math"
	"testing"

	"ptile360/internal/power"
)

// TestRunGoldenBits pins total energy, mean QoE and stall seconds of one
// sim.Run per scheme (plus the QoE-MPC and strict-viewport variants of Ours)
// on their Float64bits. The values were captured before the quality model
// was split into tabled Q₀ and per-plan frame-rate factors, on the fixture
// catalogue and eval user 0 (Nexus 5X, DefaultConfig). The plan-table and
// batch differential suites compare two paths of the same code, so an
// arithmetic change both paths share slips past them; this table moves only
// when the numbers a session produces move.
func TestRunGoldenBits(t *testing.T) {
	fx := fixture(t)
	cases := []struct {
		name                  string
		scheme                Scheme
		qoeMPC, strict        bool
		energy, qoe, stallSec uint64
	}{
		{name: "Ctile", scheme: SchemeCtile, energy: 0x41240367981defa9, qoe: 0x403b857f4599aef9, stallSec: 0x4001c750f9f3a73d},
		{name: "Ftile", scheme: SchemeFtile, energy: 0x41220af294613801, qoe: 0x403ebe18d57e0603, stallSec: 0x3ff90f3dc3b9113b},
		{name: "Nontile", scheme: SchemeNontile, energy: 0x411fbf57a9596a1d, qoe: 0x403716630d558729, stallSec: 0x3ff3fbdf98956ff9},
		{name: "Ptile", scheme: SchemePtile, energy: 0x412198b6a1437381, qoe: 0x4042e65faedc1e33, stallSec: 0x400237388537737d},
		{name: "Ours", scheme: SchemeOurs, energy: 0x4121833087dfbd08, qoe: 0x4042556560fa4e1f, stallSec: 0x40042a10397491be},
		{name: "Ours/qoe-mpc", scheme: SchemeOurs, qoeMPC: true, energy: 0x4122b7420c403675, qoe: 0x404949b5c01c6a64, stallSec: 0x403959280756bd68},
		{name: "Ours/strict", scheme: SchemeOurs, strict: true, energy: 0x4121833087dfbd08, qoe: 0x403b3b99440e2c19, stallSec: 0x40042a10397491be},
	}
	for _, c := range cases {
		cfg, err := DefaultConfig(c.scheme, power.Nexus5X)
		if err != nil {
			t.Fatal(err)
		}
		cfg.UseQoEMPC = c.qoeMPC
		cfg.StrictViewportQoE = c.strict
		res, err := Run(fx.cat, fx.eval[0], fx.trace, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, m := range []struct {
			what string
			got  float64
			want uint64
		}{
			{"energy", res.Energy.Total(), c.energy},
			{"mean QoE", res.QoE.MeanQ, c.qoe},
			{"stall seconds", res.QoE.StallSec, c.stallSec},
		} {
			if bits := math.Float64bits(m.got); bits != m.want {
				t.Errorf("%s: %s %v (bits %#x), pinned %v (bits %#x)",
					c.name, m.what, m.got, bits, math.Float64frombits(m.want), m.want)
			}
		}
	}
}
