package experiments

import (
	"fmt"

	"ptile360/internal/lte"
	"ptile360/internal/netem"
	"ptile360/internal/power"
	"ptile360/internal/predict"
	"ptile360/internal/sim"
	"ptile360/internal/stats"
)

// netemPaceFactor is the paced-sender factor used on the packet-level model:
// the server transmits at 1.25x the segment's media rate instead of dumping
// the whole segment as one burst. Without pacing a burst dump builds a
// standing queue out of its own serialization delay, and the delay-gradient
// detector would (correctly) latch overuse on every segment — self-inflicted
// signal, not network congestion. Tight pacing also blinds throughput-based
// estimators: a download served at 1.25x the media rate reveals only the
// rate the server sent, never the link's headroom, so the harmonic mean can
// neither climb after a cut nor see a sag coming — exactly the regime where
// reading congestion from packet timing pays.
const netemPaceFactor = 1.25

// netemProfiles returns the profile specs the experiment sweeps: the
// scale's one profile, or the default three.
func netemProfiles(scale Scale) []string {
	if scale.NetemProfile != "" {
		return []string{scale.NetemProfile}
	}
	return []string{"bufferbloat", "suddendrop", "crossflow"}
}

// NetemRow aggregates one (profile, bandwidth model, estimator) cell of the
// robustness figure over the evaluation users.
type NetemRow struct {
	// Profile is the netem profile name.
	Profile string
	// Model is the bandwidth model: "segment" (the fluid lte.Trace
	// abstraction, sampled from the same schedule) or "packet" (the full
	// packet-level SessionNet path).
	Model string
	// Estimator is the bandwidth-estimator family driving MPC.
	Estimator string
	// MeanQoE is the mean per-segment QoE (Eq. 2 q term) across users.
	MeanQoE float64
	// EnergyJ is the mean session energy in joules across users.
	EnergyJ float64
	// StallSec is the mean per-session stall time in seconds.
	StallSec float64
	// Stalls is the total stall count across users.
	Stalls int
	// Packets, Retransmits and DropsTail aggregate the packet accounting
	// across users (zero on the segment model, which has no packets).
	Packets     int
	Retransmits int
	DropsTail   int
}

// NetemResult holds the packet-level vs segment-level robustness sweep.
type NetemResult struct {
	// Video is the evaluated Table III video.
	Video int
	// Users is the number of evaluation users behind each row.
	Users int
	// Rows holds one aggregate per (profile, model, estimator).
	Rows []NetemRow
}

// NetemFig compares MPC outcomes under the segment-level fluid bandwidth
// model against the packet-level emulator, for the harmonic-mean and
// delay-gradient estimators, across the adversarial link profiles (or the
// one scale.NetemProfile names). The segment model samples the same
// capacity schedule at 1 s granularity, so any divergence between the two
// models is purely packet dynamics: queueing delay, loss, retransmission,
// and the timing signal the delay-gradient estimator feeds on.
//
// Every (profile, estimator, model) cell streams each evaluation user as one
// job of a single pooled sweep; each cell then aggregates its users in
// order.
func NetemFig(videoID int, scale Scale) (*NetemResult, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	setup, err := setupVideo(videoID, scale)
	if err != nil {
		return nil, err
	}

	// Every cell's inputs are built before the pool starts; the sessions
	// only read them.
	type netemJob struct {
		prof  *netem.Profile
		kind  predict.EstimatorKind
		model string
		cfg   sim.Config
		// segTrace is the segment-level twin of the profile: its capacity
		// schedule (minus cross traffic) sampled at the segment cadence, one
		// trace for every user since the fluid model has no per-session
		// state. Nil on the packet model.
		segTrace *lte.Trace
	}
	var cells []netemJob
	for _, spec := range netemProfiles(scale) {
		prof, err := netem.ParseProfile(spec)
		if err != nil {
			return nil, err
		}
		segTrace, err := netemSegmentTrace(prof, scale.TraceSamples)
		if err != nil {
			return nil, err
		}
		for _, kind := range []predict.EstimatorKind{predict.EstimatorHarmonic, predict.EstimatorDelayGradient} {
			cfg, err := sim.DefaultConfig(sim.SchemeOurs, power.Pixel3)
			if err != nil {
				return nil, err
			}
			cfg.Estimator = kind
			cells = append(cells,
				netemJob{prof: prof, kind: kind, model: "segment", cfg: cfg, segTrace: segTrace},
				netemJob{prof: prof, kind: kind, model: "packet", cfg: cfg})
		}
	}

	type session struct {
		r   *sim.Result
		net netem.SessionStats
	}
	sessions, err := sweep(len(cells), len(setup.Eval), func(c, u int) (session, error) {
		cell := cells[c]
		var s session
		var err error
		if cell.segTrace != nil {
			s.r, err = sim.Run(setup.Catalog, setup.Eval[u], cell.segTrace, cell.cfg)
		} else {
			// A packet path carries per-session link state: each session
			// gets its own, seeded by the user's position.
			var pn *netem.SessionNet
			pn, err = netem.NewSessionNet(netem.SessionConfig{
				Profile:    cell.prof,
				Seed:       scale.Seed*1000 + int64(u),
				SegmentSec: cell.cfg.SegmentSec,
				PaceFactor: netemPaceFactor,
			})
			if err == nil {
				s.r, err = sim.RunNetem(setup.Catalog, setup.Eval[u], pn, cell.cfg)
				s.net = pn.Stats()
			}
		}
		if err != nil {
			return s, fmt.Errorf("experiments: netem %s/%s/%s: %w", cell.prof.Name, cell.model, cell.kind, err)
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}

	res := &NetemResult{Video: videoID, Users: len(setup.Eval)}
	for c, cell := range cells {
		row := NetemRow{Profile: cell.prof.Name, Model: cell.model, Estimator: cell.kind.String()}
		var qoes, energies, stallSecs []float64
		for _, s := range sessions[c] {
			qoes = append(qoes, s.r.QoE.MeanQ)
			energies = append(energies, s.r.Energy.Total())
			stallSecs = append(stallSecs, s.r.QoE.StallSec)
			row.Stalls += s.r.QoE.Stalls
			row.Packets += s.net.Packets
			row.Retransmits += s.net.Retransmits
			row.DropsTail += s.net.DropsTail
		}
		row.MeanQoE = stats.Mean(qoes)
		row.EnergyJ = stats.Mean(energies)
		row.StallSec = stats.Mean(stallSecs)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// netemSegmentTrace samples the profile's deliverable rate at 1 s intervals
// into an lte.Trace.
func netemSegmentTrace(prof *netem.Profile, samples int) (*lte.Trace, error) {
	pn, err := netem.NewSessionNet(netem.SessionConfig{Profile: prof})
	if err != nil {
		return nil, err
	}
	tr := &lte.Trace{IntervalSec: 1, Bps: make([]float64, samples)}
	for i := range tr.Bps {
		tr.Bps[i] = pn.RateAt(float64(i))
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// Render formats the sweep as a printable table.
func (r *NetemResult) Render() Table {
	t := Table{
		Title: fmt.Sprintf("Netem: MPC under segment-level vs packet-level bandwidth models (video %d, %d eval users)",
			r.Video, r.Users),
		Columns: []string{"Profile", "Model", "Estimator", "QoE", "Energy (J)", "Stall (s)", "Stalls", "Packets", "Rexmit", "Drops"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Profile, row.Model, row.Estimator,
			fmt.Sprintf("%.3f", row.MeanQoE),
			fmt.Sprintf("%.1f", row.EnergyJ),
			fmt.Sprintf("%.2f", row.StallSec),
			fmt.Sprintf("%d", row.Stalls),
			fmt.Sprintf("%d", row.Packets),
			fmt.Sprintf("%d", row.Retransmits),
			fmt.Sprintf("%d", row.DropsTail),
		})
	}
	return t
}
