package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"ptile360/internal/experiments"
)

// flakyInstance's rounds take roundTime, except that every failEvery-th
// round fails one operation at once.
type flakyInstance struct {
	rounds    int
	failEvery int
}

const roundTime = 20 * time.Millisecond

func (f *flakyInstance) round(context.Context, *tracer, *pacer) (roundResult, error) {
	f.rounds++
	if f.rounds%f.failEvery == 0 {
		return roundResult{attempted: 1, failed: 1, errs: []string{"segment lost"}}, nil
	}
	time.Sleep(roundTime)
	return roundResult{attempted: 1}, nil
}

func (f *flakyInstance) check(*report)                                {}
func (f *flakyInstance) layers(*report, []roundResult, *tracer) error { return nil }
func (f *flakyInstance) close()                                       {}

func flakyWorkload(failEvery int) workload {
	return workload{"flaky", func(config, phases) (instance, error) {
		return &flakyInstance{failEvery: failEvery}, nil
	}}
}

// A round with a failed operation fails the run, with the error in the
// report, and its short wall time stays out of wall_s.
func TestFailedRoundFailsRun(t *testing.T) {
	cfg := config{workload: "flaky", seed: 1, seconds: 0.3}
	rep, err := runWorkload(flakyWorkload(2), cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.failures) == 0 || !strings.Contains(strings.Join(rep.failures, "\n"), "segment lost") {
		t.Errorf("failures %q do not report the lost segment", rep.failures)
	}
	if rep.failed == 0 || rep.failed >= rep.attempted {
		t.Errorf("failed %d of %d, want some but not all", rep.failed, rep.attempted)
	}
	wall, ok := rep.value("wall_s")
	if !ok || wall.Value < roundTime.Seconds() {
		t.Errorf("wall_s %v, want at least %v: failed rounds must not count", wall.Value, roundTime.Seconds())
	}
	if ref, ok := rep.value("wall_ref_s"); !ok || !(ref.Value > 0) {
		t.Errorf("wall_ref_s %v, want > 0", ref.Value)
	}
	var out bytes.Buffer
	if err := rep.write(&out, cfg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatal(err)
	}
	if s.Correct || s.Failed != rep.failed {
		t.Errorf("summary correct %v failed %d, want false and %d", s.Correct, s.Failed, rep.failed)
	}
}

// A run in which every round fails has nothing to time: it ends with an
// error that names the failure.
func TestEveryRoundFailed(t *testing.T) {
	_, err := runWorkload(flakyWorkload(1), config{workload: "flaky", seed: 1, seconds: 0.1}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "segment lost") {
		t.Errorf("err = %v, want the lost segment", err)
	}
}

// Reference seconds scale wall time by the probe's mean without its
// slowest tenth.
func TestPacerScalesByTrimmedProbeMean(t *testing.T) {
	ms := float64(probeRef) / float64(time.Millisecond)
	cases := []struct {
		probes []float64
		want   float64
	}{
		{[]float64{ms}, 2},
		{[]float64{ms / 2, ms / 2, ms / 2}, 4},
		// Ten probes: the slowest is left out.
		{[]float64{ms, ms, ms, ms, ms, ms, ms, ms, ms, 10 * ms}, 2},
	}
	for _, c := range cases {
		p := &pacer{probes: c.probes}
		if got := p.toRef(2); got < c.want*0.999999 || got > c.want*1.000001 {
			t.Errorf("probes %v: toRef(2) = %v, want %v", c.probes, got, c.want)
		}
	}
}

// The sweep reports each experiment that errors as a failed operation with
// its error.
func TestReproRoundReportsExperimentErrors(t *testing.T) {
	bad := &reproInstance{scale: experiments.Scale{}, names: []string{"fig2a", "fig9"}}
	res, err := bad.round(context.Background(), nil, startPacer())
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 2 || len(res.errs) != 2 || !strings.Contains(res.errs[0], "experiment fig2a") {
		t.Errorf("invalid scale: failed %d, errs %q", res.failed, res.errs)
	}

	one := &reproInstance{scale: experiments.QuickScale(), names: []string{"no-such-experiment"}, smoke: true}
	res, err = one.round(context.Background(), nil, startPacer())
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 || len(res.errs) != 1 || !strings.Contains(res.errs[0], "no-such-experiment") {
		t.Errorf("unknown experiment: failed %d, errs %q", res.failed, res.errs)
	}
}
