package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"ptile360"
	"ptile360/internal/experiments"
	"ptile360/internal/headtrace"
	"ptile360/internal/lte"
	"ptile360/internal/power"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

// reproTables is how many tables the full sweep prints.
const reproTables = 34

// reproReplayVideo is the video whose sessions the step replay streams.
const reproReplayVideo = 8

type reproInstance struct {
	scale experiments.Scale
	names []string
	// smoke runs only these experiments and does not check the table count.
	smoke bool

	// The step replay's inputs: one video's catalogue and evaluation
	// viewers under the sweep's scale, over the two standard traces.
	cat   *sim.Catalog
	eval  []*headtrace.Trace
	nets  []*lte.Trace
	simOf sim.Config

	// Per round: table count, fingerprint, and titles of empty tables.
	tables []int
	hashes []string
	empty  []string
}

// setupRepro prepares the sweep's scale and builds the step replay's
// inputs with the generators the sweep itself uses, so set-up time tracks
// the cost of head-trace generation and catalogue construction.
func setupRepro(cfg config, ph phases) (instance, error) {
	r := &reproInstance{scale: experiments.FullScale(), names: ptile360.ExperimentNames()}
	if cfg.smoke {
		r.scale = experiments.QuickScale()
		r.names = []string{"fig2a", "fig9", "table1"}
		r.smoke = true
	}
	r.scale.Seed = cfg.seed
	if err := r.scale.Validate(); err != nil {
		return nil, err
	}
	p, err := video.ProfileByID(reproReplayVideo)
	if err != nil {
		return nil, err
	}
	var train []*headtrace.Trace
	err = ph.time("headtrace.generate_s", func() error {
		gcfg := headtrace.DefaultGeneratorConfig()
		gcfg.NumUsers = r.scale.UsersPerVideo
		ds, err := headtrace.Generate(p, gcfg, cfg.seed)
		if err != nil {
			return err
		}
		train, r.eval, err = ds.SplitTrainEval(r.scale.TrainUsers, cfg.seed+1)
		return err
	})
	if err != nil {
		return nil, err
	}
	if r.simOf, err = sim.DefaultConfig(sim.SchemeOurs, power.Pixel3); err != nil {
		return nil, err
	}
	err = ph.time("sim.build_catalog_s", func() error {
		ccfg, err := sim.DefaultCatalogConfig()
		if err != nil {
			return err
		}
		ccfg.Seed = cfg.seed
		r.cat, err = sim.BuildCatalog(p, train, ccfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = ph.time("lte.generate_s", func() error {
		t1, t2, err := lte.StandardTraces(r.scale.TraceSamples, cfg.seed+99)
		r.nets = []*lte.Trace{t1, t2}
		return err
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// round regenerates every table from empty caches, as one `cmd/repro -exp
// all` run does: RunExperiment("all") is RunExperiment of each name in
// turn over shared caches, so the round makes those calls itself, to time
// each and to let the host probe run between them.
func (r *reproInstance) round(_ context.Context, tr *tracer, pc *pacer) (roundResult, error) {
	experiments.ResetCaches()
	res := roundResult{attempted: len(r.names), layer: map[string]float64{}}
	var tables []ptile360.Table
	for _, name := range r.names {
		t0 := time.Now()
		ts, err := ptile360.RunExperiment(name, r.scale)
		t1 := time.Now()
		pc.cut()
		if err != nil {
			res.failed++
			res.errs = append(res.errs, fmt.Sprintf("experiment %s: %v", name, err))
			continue
		}
		if tr != nil {
			tr.record("experiments."+name, t0, t1)
		}
		res.layer["experiments."+name+"_s"] = t1.Sub(t0).Seconds()
		tables = append(tables, ts...)
	}
	st := experiments.Stats()
	res.layer["experiments.setup_hit_ratio"] = perUnit(float64(st.SetupHits), st.SetupHits+st.SetupMisses)
	r.tables = append(r.tables, len(tables))
	r.hashes = append(r.hashes, hashTables(tables))
	for _, t := range tables {
		if len(t.Rows) == 0 || len(t.Columns) == 0 {
			r.empty = append(r.empty, t.Title)
		}
	}
	experiments.ResetCaches() // leave the round's setups as garbage, not live
	return res, nil
}

// hashTables fingerprints the rendered tables.
func hashTables(tables []ptile360.Table) string {
	h := sha256.New()
	for _, t := range tables {
		fmt.Fprintf(h, "%s\x00%s\x00", t.Title, strings.Join(t.Columns, "\x1f"))
		for _, row := range t.Rows {
			fmt.Fprintf(h, "%s\x00", strings.Join(row, "\x1f"))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// check verifies every round printed every table, each with rows, and that
// rounds agree on the output.
func (r *reproInstance) check(rep *report) {
	for i, n := range r.tables {
		if !r.smoke && n != reproTables {
			rep.fail("repro: round %d printed %d tables, want %d", i, n, reproTables)
		}
		if r.hashes[i] != r.hashes[0] {
			rep.fail("repro: round %d tables differ from round 0", i)
		}
	}
	for _, title := range r.empty {
		rep.fail("repro: table %q is empty", title)
	}
	if len(r.hashes) > 0 {
		rep.outputs["tables_sha256"] = r.hashes[0]
	}
}

func (r *reproInstance) layers(rep *report, traced []roundResult, _ *tracer) error {
	addLayerMedians(rep, traced)
	steps, err := stepTimes(r.cat, r.simOf, len(r.eval)*len(r.nets), func(st *sim.Stepper, i int) (*sim.State, error) {
		return st.NewState(r.eval[i%len(r.eval)], r.nets[i/len(r.eval)])
	})
	if err != nil {
		return err
	}
	return addStepMetrics(rep, steps)
}

func (r *reproInstance) close() {}
