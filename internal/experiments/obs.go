package experiments

import (
	"sync"

	"ptile360/internal/obs"
)

// Observability for the experiment engine: the setup-cache counters and the
// figure-by-figure progress of a sweep become registry series, so a long
// `repro -exp all` run can be watched from an ops endpoint (or the periodic
// telemetry summary cmd/repro logs) instead of staring at a silent terminal.

// progress tracks the engine's advance through a sweep.
var progress struct {
	mu      sync.Mutex
	current string
	done    int
	total   int
	reg     *obs.Registry
}

// RegisterMetrics exports the engine's state on reg as callback gauges:
//
//	experiments_cache_hits{cache=setup|dataset|trace|comparison|fovlut}
//	experiments_cache_misses{cache=...}
//	experiments_figures_total, experiments_figures_done
//
// plus the experiments_figure_runs_total{figure} counter advanced by
// FigureDone. Idempotent per registry; meant for the Default registry in
// cmds and private registries in tests.
func RegisterMetrics(reg *obs.Registry) {
	progress.mu.Lock()
	progress.reg = reg
	progress.mu.Unlock()

	stat := func(sel func(CacheStats) int) func() float64 {
		return func() float64 { return float64(sel(Stats())) }
	}
	reg.GaugeFunc("experiments_cache_hits", "Setup-cache hits by cache.",
		stat(func(s CacheStats) int { return s.SetupHits }), obs.L("cache", "setup"))
	reg.GaugeFunc("experiments_cache_misses", "Setup-cache misses by cache.",
		stat(func(s CacheStats) int { return s.SetupMisses }), obs.L("cache", "setup"))
	reg.GaugeFunc("experiments_cache_hits", "Setup-cache hits by cache.",
		stat(func(s CacheStats) int { return s.DatasetHits }), obs.L("cache", "dataset"))
	reg.GaugeFunc("experiments_cache_misses", "Setup-cache misses by cache.",
		stat(func(s CacheStats) int { return s.DatasetMisses }), obs.L("cache", "dataset"))
	reg.GaugeFunc("experiments_cache_hits", "Setup-cache hits by cache.",
		stat(func(s CacheStats) int { return s.TraceHits }), obs.L("cache", "trace"))
	reg.GaugeFunc("experiments_cache_misses", "Setup-cache misses by cache.",
		stat(func(s CacheStats) int { return s.TraceMisses }), obs.L("cache", "trace"))
	reg.GaugeFunc("experiments_cache_hits", "Setup-cache hits by cache.",
		stat(func(s CacheStats) int { return s.ComparisonHits }), obs.L("cache", "comparison"))
	reg.GaugeFunc("experiments_cache_misses", "Setup-cache misses by cache.",
		stat(func(s CacheStats) int { return s.ComparisonMisses }), obs.L("cache", "comparison"))
	reg.GaugeFunc("experiments_cache_hits", "Setup-cache hits by cache.",
		stat(func(s CacheStats) int { return s.FoVLUTHits }), obs.L("cache", "fovlut"))
	reg.GaugeFunc("experiments_cache_misses", "Setup-cache misses by cache.",
		stat(func(s CacheStats) int { return s.FoVLUTMisses }), obs.L("cache", "fovlut"))

	reg.GaugeFunc("experiments_figures_total", "Figures in the current sweep.",
		func() float64 { progress.mu.Lock(); defer progress.mu.Unlock(); return float64(progress.total) })
	reg.GaugeFunc("experiments_figures_done", "Figures completed in the current sweep.",
		func() float64 { progress.mu.Lock(); defer progress.mu.Unlock(); return float64(progress.done) })
}

// SetProgressTotal starts a sweep of n figures (done resets to zero).
func SetProgressTotal(n int) {
	progress.mu.Lock()
	progress.total = n
	progress.done = 0
	progress.current = ""
	progress.mu.Unlock()
}

// FigureStarted marks name as the figure currently running.
func FigureStarted(name string) {
	progress.mu.Lock()
	progress.current = name
	progress.mu.Unlock()
}

// FigureDone advances the sweep and counts the completed figure on the
// registered registry.
func FigureDone(name string) {
	progress.mu.Lock()
	progress.done++
	if progress.current == name {
		progress.current = ""
	}
	reg := progress.reg
	progress.mu.Unlock()
	if reg != nil {
		reg.Counter("experiments_figure_runs_total",
			"Completed figure harness runs.", obs.L("figure", name)).Inc()
	}
}

// ProgressSnapshot reports the sweep position for periodic summaries.
func ProgressSnapshot() (current string, done, total int) {
	progress.mu.Lock()
	defer progress.mu.Unlock()
	return progress.current, progress.done, progress.total
}
