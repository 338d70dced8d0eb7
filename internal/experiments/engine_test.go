package experiments

import (
	"reflect"
	"sync"
	"testing"

	"ptile360/internal/power"
)

// withWorkers runs fn under the given worker-pool cap with cold caches, so
// every build actually executes at that parallelism, and restores the
// previous cap afterwards.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := SetMaxWorkers(n)
	ResetCaches()
	defer func() {
		SetMaxWorkers(prev)
		ResetCaches()
	}()
	fn()
}

// requireWorkersDeterministic runs a harness from cold caches serially, then
// on pools of GOMAXPROCS and 8 workers, and requires every result — every
// row, every float — and every rendered table to equal the serial run's.
func requireWorkersDeterministic[T any](t *testing.T, run func() (T, error), render func(T) []Table) {
	t.Helper()
	var serial T
	withWorkers(t, 1, func() {
		var err error
		if serial, err = run(); err != nil {
			t.Fatal(err)
		}
	})
	for _, workers := range []int{0, 8} {
		var wide T
		withWorkers(t, workers, func() {
			var err error
			if wide, err = run(); err != nil {
				t.Fatal(err)
			}
		})
		if !reflect.DeepEqual(serial, wide) {
			t.Fatalf("workers=%d: result differs from serial run", workers)
		}
		if !reflect.DeepEqual(render(serial), render(wide)) {
			t.Fatalf("workers=%d: rendered tables differ from serial run", workers)
		}
	}
}

// TestNetemFigWorkersDeterministic runs the default three-profile sweep,
// whose packet sessions each own a seeded path, at every worker count.
func TestNetemFigWorkersDeterministic(t *testing.T) {
	requireWorkersDeterministic(t,
		func() (*NetemResult, error) { return NetemFig(8, QuickScale()) },
		func(r *NetemResult) []Table { return []Table{r.Render()} })
}

// TestAblationsWorkersDeterministic runs the 19 knob settings at every
// worker count.
func TestAblationsWorkersDeterministic(t *testing.T) {
	requireWorkersDeterministic(t,
		func() (*AblationsResult, error) { return Ablations(QuickScale()) },
		func(r *AblationsResult) []Table { return []Table{r.Render()} })
}

// TestRobustnessWorkersDeterministic runs two seeds' comparisons, and the
// normalized bars folded across them, at every worker count.
func TestRobustnessWorkersDeterministic(t *testing.T) {
	requireWorkersDeterministic(t,
		func() (*RobustnessResult, error) { return Robustness(QuickScale(), 2) },
		func(r *RobustnessResult) []Table { return []Table{r.Render()} })
}

// TestRunComparisonMemo pins the comparison memo: one comparison per
// (phone, scale), a new one when any input changes, and a fresh build after
// ResetCaches.
func TestRunComparisonMemo(t *testing.T) {
	scale := QuickScale()
	withWorkers(t, 0, func() {
		// Concurrent first calls share one build.
		got := make([]*Comparison, 4)
		errs := make([]error, len(got))
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g], errs[g] = RunComparison(power.Pixel3, scale)
			}(g)
		}
		wg.Wait()
		first := got[0]
		for g := range got {
			if errs[g] != nil {
				t.Fatal(errs[g])
			}
			if got[g] != first {
				t.Fatalf("concurrent caller %d got its own comparison", g)
			}
		}
		same := scale
		same.Videos = append([]int(nil), scale.Videos...)
		if again, err := RunComparison(power.Pixel3, same); err != nil || again != first {
			t.Fatalf("same (phone, scale) built a new comparison (err %v)", err)
		}
		if s := Stats(); s.ComparisonMisses != 1 || s.ComparisonHits != len(got) {
			t.Fatalf("%d comparison builds and %d hits, want 1 and %d", s.ComparisonMisses, s.ComparisonHits, len(got))
		}

		seed := scale
		seed.Seed++
		videos := scale
		videos.Videos = []int{1, 8}
		samples := scale
		samples.TraceSamples -= 50
		for _, tc := range []struct {
			name  string
			phone power.Phone
			scale Scale
		}{
			{"phone", power.Nexus5X, scale},
			{"seed", power.Pixel3, seed},
			{"videos", power.Pixel3, videos},
			{"trace length", power.Pixel3, samples},
		} {
			other, err := RunComparison(tc.phone, tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			if other == first {
				t.Fatalf("another %s returned the memoized comparison", tc.name)
			}
		}

		ResetCaches()
		fresh, err := RunComparison(power.Pixel3, scale)
		if err != nil {
			t.Fatal(err)
		}
		if fresh == first {
			t.Fatal("ResetCaches kept the memoized comparison")
		}
		if !reflect.DeepEqual(fresh, first) {
			t.Fatal("rebuilt comparison differs from the first build")
		}
	})
}

// TestRunComparisonWorkersDeterministic proves the flattened session pool is
// a pure reordering of the serial sweep: the full Comparison — every cell,
// every float — is byte-identical whether the sessions run one at a time or
// on a wide pool.
func TestRunComparisonWorkersDeterministic(t *testing.T) {
	requireWorkersDeterministic(t,
		func() (*Comparison, error) { return RunComparison(power.Nexus5X, QuickScale()) },
		func(c *Comparison) []Table { return append(c.RenderEnergy(), c.RenderQoE()...) })
}

// TestFigureHarnessesWorkersDeterministic repeats the worker sweep for the
// Fig. 5/7/8 harnesses, which share the memoized setups with the
// comparisons.
func TestFigureHarnessesWorkersDeterministic(t *testing.T) {
	scale := QuickScale()
	type outputs struct {
		f5 *Fig5Result
		f7 *Fig7Result
		f8 *Fig8Result
	}
	run := func() outputs {
		f5, err := Fig5(scale)
		if err != nil {
			t.Fatal(err)
		}
		f7, err := Fig7(scale)
		if err != nil {
			t.Fatal(err)
		}
		f8, err := Fig8(scale)
		if err != nil {
			t.Fatal(err)
		}
		return outputs{f5: f5, f7: f7, f8: f8}
	}
	var serial, wide outputs
	withWorkers(t, 1, func() { serial = run() })
	withWorkers(t, 8, func() { wide = run() })
	if !reflect.DeepEqual(serial, wide) {
		t.Fatal("figure outputs differ between worker counts")
	}
	// The rendered tables are what cmd/repro prints; they must match too.
	if !reflect.DeepEqual(serial.f5.Render(), wide.f5.Render()) ||
		!reflect.DeepEqual(serial.f7.Render(), wide.f7.Render()) ||
		!reflect.DeepEqual(serial.f8.Render(), wide.f8.Render()) {
		t.Fatal("rendered tables differ between worker counts")
	}
}

// TestSetupCacheSingleExecution proves the cache-hit accounting: a sweep
// touching the same scale from several harnesses builds each distinct
// (video, scale) setup and each trace pair exactly once.
func TestSetupCacheSingleExecution(t *testing.T) {
	scale := QuickScale()
	withWorkers(t, 0, func() {
		if _, err := RunComparison(power.Nexus5X, scale); err != nil {
			t.Fatal(err)
		}
		s := Stats()
		if s.SetupMisses != len(scale.Videos) {
			t.Fatalf("first sweep: %d setup builds, want %d", s.SetupMisses, len(scale.Videos))
		}
		if s.TraceMisses != 1 {
			t.Fatalf("first sweep: %d trace builds, want 1", s.TraceMisses)
		}

		// A second comparison on another phone and the figure harnesses
		// re-request the same setups: zero further builds.
		if _, err := RunComparison(power.GalaxyS20, scale); err != nil {
			t.Fatal(err)
		}
		if _, err := Fig7(scale); err != nil {
			t.Fatal(err)
		}
		if _, err := Fig8(scale); err != nil {
			t.Fatal(err)
		}
		s = Stats()
		if s.SetupMisses != len(scale.Videos) {
			t.Fatalf("after shared sweeps: %d setup builds, want %d (hits %d)",
				s.SetupMisses, len(scale.Videos), s.SetupHits)
		}
		if s.SetupHits == 0 {
			t.Fatal("shared sweeps produced no cache hits")
		}

		// A different seed is a different key and must rebuild.
		shifted := scale
		shifted.Seed++
		if _, err := Fig7(shifted); err != nil {
			t.Fatal(err)
		}
		if got := Stats().SetupMisses; got <= s.SetupMisses {
			t.Fatalf("shifted seed did not rebuild: %d builds", got)
		}
	})
}

// TestDatasetCacheSharedAcrossHarnesses proves Fig. 5 and the per-video
// setup builds share one head-trace generation per (video, users, seed),
// and that the LUT counters surface through Stats.
func TestDatasetCacheSharedAcrossHarnesses(t *testing.T) {
	scale := QuickScale()
	withWorkers(t, 0, func() {
		if _, err := Fig5(scale); err != nil {
			t.Fatal(err)
		}
		s := Stats()
		if s.DatasetMisses != len(scale.Videos) {
			t.Fatalf("Fig5: %d dataset builds, want %d", s.DatasetMisses, len(scale.Videos))
		}
		// The setup builds re-request the same datasets: zero further
		// generations.
		if _, err := RunComparison(power.Nexus5X, scale); err != nil {
			t.Fatal(err)
		}
		s = Stats()
		if s.DatasetMisses != len(scale.Videos) {
			t.Fatalf("after comparison: %d dataset builds, want %d (hits %d)",
				s.DatasetMisses, len(scale.Videos), s.DatasetHits)
		}
		if s.DatasetHits < len(scale.Videos) {
			t.Fatalf("setup builds produced %d dataset hits, want >= %d", s.DatasetHits, len(scale.Videos))
		}
		// The comparison's sessions warm the FoV-coverage LUT; repeated
		// sessions share the per-(grid, FoV) build.
		if s.FoVLUTMisses == 0 {
			t.Fatal("comparison built no FoV LUT")
		}
		if s.FoVLUTHits == 0 {
			t.Fatal("repeated sessions produced no FoV-LUT hits")
		}
	})
}

// TestResetCachesZeroes checks the reset used between benchmark runs.
func TestResetCachesZeroes(t *testing.T) {
	scale := QuickScale()
	withWorkers(t, 0, func() {
		if _, err := Fig7(scale); err != nil {
			t.Fatal(err)
		}
		if s := Stats(); s.SetupMisses == 0 {
			t.Fatal("no builds recorded")
		}
		ResetCaches()
		if s := Stats(); s != (CacheStats{}) {
			t.Fatalf("stats not zeroed: %+v", s)
		}
	})
}
