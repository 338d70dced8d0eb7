// Package experiments contains one harness per table and figure of the
// paper's evaluation (Section V), regenerating the same rows and series from
// the synthetic substrates. See DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured numbers.
package experiments

import (
	"fmt"

	"ptile360/internal/netem"
	"ptile360/internal/parallel"
	"ptile360/internal/video"
)

// Scale sets the workload size of the trace-driven experiments and of the
// ptile360 façade's System.
type Scale struct {
	// UsersPerVideo is the number of generated viewers per video (48 in the
	// dataset).
	UsersPerVideo int
	// TrainUsers of them construct Ptiles (40 in the paper); the rest are
	// evaluated.
	TrainUsers int
	// EvalUsers caps how many evaluation users are streamed per video.
	EvalUsers int
	// Videos lists the Table III video IDs to include.
	Videos []int
	// TraceSamples is the LTE trace length in seconds.
	TraceSamples int
	// Seed drives every stochastic component.
	Seed int64
	// NetemProfile, when non-empty, restricts the netem experiment to one
	// link profile spec of the netem.ParseProfile form
	// "name[,key=val,...]"; empty sweeps the default profiles.
	NetemProfile string
}

// FullScale returns the paper's evaluation scale: 48 users per video with a
// 40/8 split over all eight videos.
func FullScale() Scale {
	return Scale{
		UsersPerVideo: 48,
		TrainUsers:    40,
		EvalUsers:     8,
		Videos:        []int{1, 2, 3, 4, 5, 6, 7, 8},
		TraceSamples:  400,
		Seed:          42,
	}
}

// QuickScale returns a reduced workload for tests and smoke runs.
func QuickScale() Scale {
	return Scale{
		UsersPerVideo: 16,
		TrainUsers:    12,
		EvalUsers:     3,
		Videos:        []int{2, 8},
		TraceSamples:  300,
		Seed:          42,
	}
}

// Validate reports whether the scale is usable.
func (s Scale) Validate() error {
	if s.UsersPerVideo <= 1 {
		return fmt.Errorf("experiments: users per video %d too small", s.UsersPerVideo)
	}
	if s.TrainUsers <= 0 || s.TrainUsers >= s.UsersPerVideo {
		return fmt.Errorf("experiments: train users %d outside (0, %d)", s.TrainUsers, s.UsersPerVideo)
	}
	if s.EvalUsers <= 0 || s.EvalUsers > s.UsersPerVideo-s.TrainUsers {
		return fmt.Errorf("experiments: eval users %d outside (0, %d]", s.EvalUsers, s.UsersPerVideo-s.TrainUsers)
	}
	if len(s.Videos) == 0 {
		return fmt.Errorf("experiments: no videos selected")
	}
	for _, id := range s.Videos {
		if _, err := video.ProfileByID(id); err != nil {
			return err
		}
	}
	if s.TraceSamples <= 0 {
		return fmt.Errorf("experiments: non-positive trace length %d", s.TraceSamples)
	}
	if s.NetemProfile != "" {
		if _, err := netem.ParseProfile(s.NetemProfile); err != nil {
			return fmt.Errorf("experiments: netem profile: %w", err)
		}
	}
	return nil
}

// Table is a generic printable experiment output: a title, column headers
// and rows, rendered by cmd/repro.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// sweep runs fn for every (cell, user) pair on the engine's worker pool and
// returns the results grouped by cell, each cell's users in order. The pairs
// form one flat job list, so a sweep of many cells with few users each still
// keeps every worker busy. fn must only read what the caller built before
// the sweep; callers then fold each cell's results in user order, so their
// aggregates do not depend on the worker count.
func sweep[T any](cells, users int, fn func(cell, user int) (T, error)) ([][]T, error) {
	flat := make([]T, cells*users)
	if err := parallel.ForEach(len(flat), maxWorkers(), func(i int) error {
		r, err := fn(i/users, i%users)
		flat[i] = r
		return err
	}); err != nil {
		return nil, err
	}
	out := make([][]T, cells)
	for c := range out {
		out[c] = flat[c*users : (c+1)*users : (c+1)*users]
	}
	return out, nil
}
