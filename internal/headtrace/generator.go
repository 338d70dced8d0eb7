package headtrace

import (
	"fmt"
	"math"

	"ptile360/internal/geom"
	"ptile360/internal/parallel"
	"ptile360/internal/stats"
	"ptile360/internal/video"
)

// GeneratorConfig tunes the synthetic head-movement model. The defaults are
// calibrated so the aggregate statistics match the published ones: the
// Fig. 5 switching-speed distribution (>10°/s for more than 30 % of time)
// and the Fig. 7 Ptile counts and coverage per video class.
type GeneratorConfig struct {
	// NumUsers is the number of viewers per video (48 in the dataset).
	NumUsers int
	// ChaseGain is the first-order pursuit gain (1/s): how aggressively a
	// user closes on the attention target.
	ChaseGain float64
	// MaxHeadSpeed rate-limits head rotation in degrees per second.
	MaxHeadSpeed float64
	// JitterStd is the per-sample sensor/micro-movement noise in degrees.
	JitterStd float64
	// OffsetStd is the per-user personal offset from the shared attention
	// trajectory, in degrees.
	OffsetStd float64
	// SaccadeRate is the mean rate (per second) of attention re-targeting
	// for focused viewers.
	SaccadeRate float64
	// WandererFracFocused and WandererFracExploring are the fractions of
	// users who ignore the shared trajectories and roam freely.
	WandererFracFocused   float64
	WandererFracExploring float64
	// TrajSpeedScale scales the attention-trajectory drift speed; the
	// trajectory speed is additionally proportional to the video's TI.
	TrajSpeedScale float64
	// Workers bounds the goroutines simulating users in parallel (0 means
	// GOMAXPROCS). Each user's RNG is forked serially before the fan-out, so
	// the generated traces are identical for every worker count.
	Workers int
}

// DefaultGeneratorConfig returns the calibrated generator settings.
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{
		NumUsers:              48,
		ChaseGain:             3.0,
		MaxHeadSpeed:          240,
		JitterStd:             0.03,
		OffsetStd:             6.5,
		SaccadeRate:           0.25,
		WandererFracFocused:   0.08,
		WandererFracExploring: 0.14,
		TrajSpeedScale:        0.9,
	}
}

// Validate reports whether the configuration is usable.
func (c GeneratorConfig) Validate() error {
	if c.NumUsers <= 0 {
		return fmt.Errorf("headtrace: non-positive user count %d", c.NumUsers)
	}
	if c.ChaseGain <= 0 || c.MaxHeadSpeed <= 0 {
		return fmt.Errorf("headtrace: non-positive dynamics (gain %g, max speed %g)", c.ChaseGain, c.MaxHeadSpeed)
	}
	if c.JitterStd < 0 || c.OffsetStd < 0 || c.SaccadeRate < 0 || c.TrajSpeedScale < 0 {
		return fmt.Errorf("headtrace: negative noise/rate parameter")
	}
	if c.WandererFracFocused < 0 || c.WandererFracFocused > 1 ||
		c.WandererFracExploring < 0 || c.WandererFracExploring > 1 {
		return fmt.Errorf("headtrace: wanderer fraction outside [0, 1]")
	}
	return nil
}

// trajectory is one shared attention path: a slowly drifting point on the
// panorama that users with common interest track.
type trajectory struct {
	// x, y per sample step (panorama degrees, x unwrapped).
	x, y []float64
}

// genTrajectory simulates an attention point that alternates HOLD phases
// (the action stays put; viewers fixate) and MOVE phases (the action crosses
// the scene at moveSpeed degrees per second, as when a ball is passed). The
// hold/move duty cycle is what produces the Fig. 5 switching-speed
// distribution: ≈30–40 % of time above 10°/s.
func genTrajectory(steps int, dt, moveSpeed, yCenter float64, rng *stats.RNG) trajectory {
	const (
		holdMeanSec = 3.6
		moveMeanSec = 1.7
	)
	tr := trajectory{x: make([]float64, steps), y: make([]float64, steps)}
	x := rng.Uniform(0, 360)
	y := yCenter + rng.Normal(0, 8)
	moving := false
	phaseLeft := rng.Exp(holdMeanSec)
	var vx, vy float64
	for i := 0; i < steps; i++ {
		phaseLeft -= dt
		if phaseLeft <= 0 {
			moving = !moving
			if moving {
				phaseLeft = rng.Exp(moveMeanSec)
				speed := moveSpeed * (0.6 + 0.8*rng.Float64())
				// Mostly horizontal motion with a mild vertical component.
				if rng.Float64() < 0.5 {
					speed = -speed
				}
				vx = speed
				vy = rng.Normal(0, moveSpeed*0.2)
			} else {
				phaseLeft = rng.Exp(holdMeanSec)
				// Residual micro-drift while holding.
				vx = rng.Normal(0, 1.2)
				vy = rng.Normal(0, 0.8)
			}
		}
		x += vx * dt
		// Pull y back toward the equatorial band users favour.
		y += vy*dt + 0.3*(yCenter-y)*dt
		if y < 30 {
			y, vy = 30, math.Abs(vy)
		}
		if y > 150 {
			y, vy = 150, -math.Abs(vy)
		}
		tr.x[i] = x
		tr.y[i] = y
	}
	return tr
}

// Generate produces the full per-video dataset for profile p. The result is
// a pure function of (p, cfg, seed).
func Generate(p video.Profile, cfg GeneratorConfig, seed int64) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed ^ (int64(p.ID) << 20))
	dt := 1.0 / SampleRate
	steps := int(float64(p.DurationSec) * SampleRate)
	if steps <= 1 {
		return nil, fmt.Errorf("headtrace: video %d too short (%d samples)", p.ID, steps)
	}

	// Shared attention trajectories: their drift speed scales with the
	// video's temporal complexity (high-TI sports content moves fast).
	speed := cfg.TrajSpeedScale * p.TIMean
	nTraj := p.MotionTrajectories
	if nTraj < 1 {
		nTraj = 1
	}
	trajs := make([]trajectory, nTraj)
	for j := range trajs {
		trajs[j] = genTrajectory(steps, dt, speed, 90, rng.Fork())
	}

	wandererFrac := cfg.WandererFracFocused
	saccadeRate := cfg.SaccadeRate
	if p.Class == video.Exploring {
		wandererFrac = cfg.WandererFracExploring
		saccadeRate *= 2.2
	}
	if p.ID == 1 {
		// Basketball: users' gazing directions "frequently move" (Fig. 7a
		// discussion) — raise re-targeting rate.
		saccadeRate *= 1.8
	}

	// Fork every user's RNG (and draw its wanderer coin) serially so the
	// random streams are independent of scheduling, then simulate users on
	// the worker pool. One shared backing array holds every user's samples:
	// steps*NumUsers contiguous Samples instead of NumUsers separate
	// allocations, and each user writes only its own slice.
	type userSpec struct {
		rng      *stats.RNG
		wanderer bool
	}
	specs := make([]userSpec, cfg.NumUsers)
	for u := range specs {
		userRNG := rng.Fork()
		specs[u] = userSpec{rng: userRNG, wanderer: userRNG.Float64() < wandererFrac}
	}
	all := make([]Sample, steps*cfg.NumUsers)
	traces := make([]*Trace, cfg.NumUsers)
	parallel.ForEach(cfg.NumUsers, cfg.Workers, func(u int) error {
		buf := all[u*steps : (u+1)*steps : (u+1)*steps]
		traces[u] = genUser(u, p, trajs, specs[u].wanderer, saccadeRate, cfg, dt, steps, specs[u].rng, buf)
		return nil
	})
	return &Dataset{Video: p, Traces: traces}, nil
}

// genUser simulates one viewer with the chase dynamic, writing the steps
// samples into the caller-provided buffer.
func genUser(userID int, p video.Profile, trajs []trajectory, wanderer bool,
	saccadeRate float64, cfg GeneratorConfig, dt float64, steps int, rng *stats.RNG,
	samples []Sample) *Trace {
	// Personal offset from the shared trajectory: users look at the same
	// action from slightly different angles.
	offX := rng.Normal(0, cfg.OffsetStd)
	offY := rng.Normal(0, cfg.OffsetStd*0.6)
	traj := rng.Intn(len(trajs))

	// Free-roam target for wanderers, re-drawn at saccades.
	roamX := rng.Uniform(0, 360)
	roamY := rng.Uniform(60, 120)

	x := targetX(trajs, traj, 0, offX, roamX, wanderer)
	y := targetY(trajs, traj, 0, offY, roamY, wanderer)

	for i := 0; i < steps; i++ {
		// Attention re-targeting (saccade trigger).
		if rng.Float64() < saccadeRate*dt {
			if wanderer {
				roamX = rng.Uniform(0, 360)
				roamY = rng.Uniform(55, 125)
			} else if len(trajs) > 1 && rng.Float64() < 0.5 {
				traj = rng.Intn(len(trajs))
			} else {
				// Re-seat around the same trajectory (glance elsewhere then
				// return is modelled as an offset redraw).
				offX = rng.Normal(0, cfg.OffsetStd)
				offY = rng.Normal(0, cfg.OffsetStd*0.6)
			}
		}
		tx := targetX(trajs, traj, i, offX, roamX, wanderer)
		ty := targetY(trajs, traj, i, offY, roamY, wanderer)

		// First-order chase with rate limiting: small errors → fixation
		// micro-drift, moving targets → smooth pursuit, fresh targets →
		// saccadic fast chase at MaxHeadSpeed.
		ex := geom.WrapDeltaX(x, wrapTo360(tx))
		ey := ty - y
		vx := cfg.ChaseGain * ex
		vy := cfg.ChaseGain * ey
		vmag := math.Hypot(vx, vy)
		if vmag > cfg.MaxHeadSpeed {
			scale := cfg.MaxHeadSpeed / vmag
			vx *= scale
			vy *= scale
		}
		x = geom.NormalizeYaw(x + vx*dt + rng.Normal(0, cfg.JitterStd))
		y += vy*dt + rng.Normal(0, cfg.JitterStd*0.6)
		if y < 0 {
			y = 0
		}
		if y > 180 {
			y = 180
		}
		samples[i] = Sample{
			T: float64(i) * dt,
			O: geom.OrientationOf(geom.Point{X: x, Y: y}),
		}
	}
	return &Trace{UserID: userID, VideoID: p.ID, Samples: samples}
}

// wrapTo360 maps an unwrapped coordinate into [0, 360), bit-identical to the
// double-fmod form math.Mod(math.Mod(tx, 360)+360, 360) it replaces in the
// chase loop, at one fmod instead of two. With m = Mod(tx, 360)+360 ∈
// (0, 720], the outer fmod is m−360 for m ∈ [360, 720) (exact by Sterbenz),
// +0 when the addition rounds m to exactly 720, and m otherwise; NaN falls
// through every comparison unchanged.
func wrapTo360(tx float64) float64 {
	m := math.Mod(tx, 360) + 360
	if m >= 720 {
		return m - 720
	}
	if m >= 360 {
		return m - 360
	}
	return m
}

func targetX(trajs []trajectory, j, i int, off, roamX float64, wanderer bool) float64 {
	if wanderer {
		return roamX
	}
	return trajs[j].x[i] + off
}

func targetY(trajs []trajectory, j, i int, off, roamY float64, wanderer bool) float64 {
	if wanderer {
		return roamY
	}
	return trajs[j].y[i] + off
}
