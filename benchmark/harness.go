package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"

	"ptile360/internal/experiments"
)

// workload is one set of generated inputs and the job run over them.
type workload struct {
	name string
	// setup generates the inputs and builds the system under test, timing
	// its phases into ph under their per-layer metric names.
	setup func(cfg config, ph phases) (instance, error)
}

// workloads stress different layers; BENCHMARK.json and README.md say why
// each was chosen.
var workloads = []workload{
	{"repro-full", setupRepro},
	{"fleet-shared", setupFleetShared},
	{"fleet-diverse", setupFleetDiverse},
	{"http-hot", setupHTTPHot},
	{"http-churn", setupHTTPChurn},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// phases accumulates set-up phase durations in seconds by metric name.
type phases map[string]float64

// time runs fn and adds its duration to the named phase.
func (p phases) time(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	p[name] += time.Since(start).Seconds()
	return err
}

// instance is a set-up workload, ready to run rounds.
type instance interface {
	// round runs one unit of the workload's job from the same starting
	// state every time. tr is nil in untraced rounds; traced rounds
	// record spans and layer timings into it. The round calls pc.cut at
	// every point where none of its goroutines is working, so the host
	// probe can run there.
	round(ctx context.Context, tr *tracer, pc *pacer) (roundResult, error)
	// check verifies the outputs of the rounds run so far.
	check(rep *report)
	// layers adds the per-layer metrics of the traced rounds, plus the
	// layer replays.
	layers(rep *report, traced []roundResult, tr *tracer) error
	// close stops everything the instance started and waits for it.
	close()
}

// roundResult is what one round did. The harness fills in the timing and
// runtime fields; the workload fills in the rest.
type roundResult struct {
	wall       time.Duration // the round's wall time, probes left out
	refSec     float64       // the same in reference seconds (see pacer)
	cpu        time.Duration // process CPU time (user + system), probes left out
	peakMB     float64       // peak resident set during the round
	probeMS    float64       // the median host probe of the round
	allocBytes uint64
	gcCycles   uint32

	// attempted and failed count operations for the summary's failure
	// share: experiments, fleet sessions, or HTTP segment attempts. errs
	// says what failed.
	attempted, failed int
	errs              []string
	// segments counts completed segments (0 for the sweep).
	segments int
	// sessions, energyMJ, qoeSum, stallSec and playSec (media seconds
	// delivered) feed the recorded outputs.
	sessions                            int
	energyMJ, qoeSum, stallSec, playSec float64
	// fetch holds per-segment HTTP fetch latencies.
	fetch []time.Duration
	// layer holds per-layer quantities measured in traced rounds.
	layer map[string]float64
}

const (
	// A run sets up at least minSetupReps times, and more while the
	// set-ups so far took under setupBudget, up to maxSetupReps; it
	// reports the median. Cheap set-ups thus get enough repetitions for a
	// steady median.
	minSetupReps = 3
	maxSetupReps = 15
	setupBudget  = time.Second
	// runDeadline bounds a whole run, set-up included: in-flight work is
	// cancelled and counted as failed once it passes.
	runDeadline = 150 * time.Second
	// hardDeadline ends the process without a result if a call that
	// cannot be cancelled hangs.
	hardDeadline = 170 * time.Second
)

// runWorkload sets the workload up several times, runs rounds until the
// timed phase is over, checks the outputs and computes the metrics. A
// traced run alternates untraced and traced rounds so it can report the
// tracing overhead.
func runWorkload(w workload, cfg config, log io.Writer) (*report, error) {
	watchdog := time.AfterFunc(hardDeadline, func() {
		fmt.Fprintf(log, "benchmark: %s: no result after %v, giving up\n", w.name, hardDeadline)
		os.Exit(3)
	})
	defer watchdog.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	rep := newReport(w.name)
	minReps, maxReps := minSetupReps, maxSetupReps
	if cfg.smoke {
		minReps, maxReps = 1, 1
	}
	var inst instance
	var setupTimes []float64
	setupTotal := 0.0
	phaseSamples := map[string][]float64{}
	// The host probe runs before and after every set-up.
	sp := startPacer()
	for k := 0; k < minReps || (k < maxReps && setupTotal < setupBudget.Seconds()); k++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		// Every set-up starts from empty process-wide caches (setup cache,
		// FoV LUT), so each repetition does the same work.
		experiments.ResetCaches()
		runtime.GC()
		ph := phases{}
		start := time.Now()
		var err error
		inst, err = w.setup(cfg, ph)
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		sp.runProbe()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTotal += setupTimes[k]
		for name, v := range ph {
			phaseSamples[name] = append(phaseSamples[name], v)
		}
	}
	defer inst.close()
	runtime.GC()

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	// An untraced run takes the median of at least three rounds, a traced
	// run needs one round of each kind, and a smoke run no more. Beyond
	// that, a round starts only if one of median length ends in time.
	//
	// Rounds in which an operation failed count in the summary and fail
	// the run, but stay out of the timings: a round cut short is not a
	// speed-up.
	var plain, traced []roundResult
	end := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	if cfg.smoke {
		end = time.Now()
	}
	minRounds := 3
	switch {
	case cfg.traced:
		minRounds = 2
	case cfg.smoke:
		minRounds = 1
	}
	var walls []float64
	for i := 0; ; i++ {
		if ctx.Err() != nil {
			break
		}
		if i >= minRounds && time.Now().Add(time.Duration(median(walls)*float64(time.Second))).After(end) {
			break
		}
		var rt *tracer
		if cfg.traced && i%2 == 1 {
			rt = tr
		}
		start := time.Now()
		res, err := measureRound(ctx, inst, rt)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		fmt.Fprintf(log, "benchmark: %s: round %d (traced %v): %.3fs wall, %.3f reference s, %.3fs CPU, probe %.2f ms, peak RSS %.0f MB, %d GCs\n",
			w.name, i, rt != nil, res.wall.Seconds(), res.refSec, res.cpu.Seconds(), res.probeMS, res.peakMB, res.gcCycles)
		walls = append(walls, time.Since(start).Seconds())
		rep.attempted += res.attempted
		rep.failed += res.failed
		for _, e := range res.errs {
			rep.fail("round %d: %s", i, e)
		}
		switch {
		case res.failed > 0:
			rep.fail("round %d: %d of %d operations failed", i, res.failed, res.attempted)
		case rt != nil:
			traced = append(traced, res)
		default:
			plain = append(plain, res)
		}
	}
	inst.check(rep)
	if ctx.Err() != nil {
		rep.fail("run deadline %v passed", runDeadline)
	}
	if len(plain) == 0 || (cfg.traced && len(traced) == 0) {
		return nil, fmt.Errorf("no round ran without a failure; the first: %s", rep.failures[0])
	}

	addRecorded(rep, plain)
	if !cfg.traced {
		rep.add("setup_s", sp.toRef(median(setupTimes)), "s", len(setupTimes))
		rep.add("setup_wall_s", median(setupTimes), "s", len(setupTimes))
		cpus := make([]float64, len(plain))
		peaks := make([]float64, len(plain))
		for i, r := range plain {
			cpus[i] = r.cpu.Seconds()
			peaks[i] = r.peakMB
		}
		rep.add("wall_ref_s", median(refTimes(plain)), "s", len(plain))
		rep.add("wall_s", median(durations(plain)), "s", len(plain))
		rep.add("cpu_s", median(cpus), "s", len(plain))
		rep.add("peak_rss_mb", median(peaks), "MB", len(plain))
		return rep, nil
	}

	for _, d := range perLayer {
		if samples, ok := phaseSamples[d.name]; ok {
			rep.add(d.name, median(samples), d.unit, len(samples))
		}
	}
	allocs := make([]float64, len(plain))
	gcs := make([]float64, len(plain))
	for i, r := range plain {
		allocs[i] = float64(r.allocBytes) / (1 << 20)
		gcs[i] = float64(r.gcCycles)
	}
	rep.add("runtime.alloc_mb", median(allocs), "MB", len(plain))
	rep.add("runtime.gc_cycles", median(gcs), "count", len(plain))
	rep.add("trace.overhead_ratio", median(refTimes(traced))/median(refTimes(plain)), "ratio", len(traced))
	if err := inst.layers(rep, traced, tr); err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}
	if err := tr.writeFile(cfg.traceOut); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return rep, nil
}

// measureRound runs one round and records its wall time, peak resident
// set and allocation. Every round starts from a collected heap, so the
// garbage one round leaves does not slow the next by a varying amount.
func measureRound(ctx context.Context, inst instance, tr *tracer) (roundResult, error) {
	runtime.GC()
	resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	pc := startPacer()
	res, err := inst.round(ctx, tr, pc)
	pc.cut()
	res.wall, res.refSec = pc.wall, pc.refSec
	res.cpu = cpuTime() - cpu0 - pc.probeCPU
	res.probeMS = median(pc.probes)
	res.peakMB = peakRSSMB() - float64(hostProbeData().bytes())/(1<<20)
	runtime.ReadMemStats(&after)
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	res.gcCycles = after.NumGC - before.NumGC
	return res, err
}

// The host this benchmark runs on changes speed by 40 % within seconds, and
// drifts over minutes: a fixed piece of single-threaded work (sorting 64k
// floats) took 7.1–7.8 ms in some seconds and 10.0–10.7 ms in others, on a
// 2-vCPU KVM guest of a shared Xeon host, with no steal time reported. Wall and CPU time both move with it. So the harness runs a
// fixed host probe of its own between the pieces of every round and after
// every set-up, and also reports times scaled to a host on which the probe
// takes probeRef: wall time w among probes that took p on average (the
// slowest tenth left out) counts as w·probeRef/p reference seconds.
// Changes to the program move the pieces and not the probe.
//
// The probe does compute-bound and memory-bound work, because the host's
// slow spells hit memory-heavy code harder than a sort alone shows.
// README.md gives the measurements behind these choices.
const (
	// probeRef is the probe time of the reference host.
	probeRef = 6 * time.Millisecond
	// probeSortLen is how many floats each of the probe's goroutines
	// sorts, probeChaseLen the entries of the array they chase through, and
	// probeSteps the steps each takes.
	probeSortLen  = 1 << 14
	probeChaseLen = 1 << 23
	probeSteps    = 20000
)

// probeData is the host probe's fixed input and work areas.
type probeData struct {
	sortIn []float64
	bufs   [][]float64 // one per goroutine
	// next is a single cycle through every index, in an order no
	// prefetcher follows: next[i] = (a·i + c) mod len, a full-period
	// linear congruential step.
	next []uint32
}

// bytes is the resident memory the probe holds, which peak RSS leaves out.
func (d *probeData) bytes() int {
	return 8*len(d.sortIn)*(1+len(d.bufs)) + 4*len(d.next)
}

var hostProbeData = sync.OnceValue(func() *probeData {
	rng := rand.New(rand.NewSource(1))
	d := &probeData{sortIn: make([]float64, probeSortLen), next: make([]uint32, probeChaseLen)}
	for i := range d.sortIn {
		d.sortIn[i] = rng.Float64()
	}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		d.bufs = append(d.bufs, make([]float64, probeSortLen))
	}
	for i := range d.next {
		d.next[i] = uint32((1103515245*uint64(i) + 12345) % probeChaseLen)
	}
	return d
})

// hostProbe runs the probe on each of GOMAXPROCS goroutines, as many as the
// workloads run on, and returns the time until all are done. Each sorts a
// copy of the fixed input, then follows probeSteps links of the chase
// array from its own start.
func hostProbe() time.Duration {
	d := hostProbeData()
	var wg sync.WaitGroup
	ends := make([]uint32, len(d.bufs)) // keeps the chase from being dead code
	start := time.Now()
	for g, buf := range d.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			copy(buf, d.sortIn)
			sort.Float64s(buf)
			x := uint32(g * probeChaseLen / len(d.bufs))
			for i := 0; i < probeSteps; i++ {
				x = d.next[x]
			}
			ends[g] = x
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// pacer splits a timed phase into pieces and runs the host probe before,
// between and after them, accumulating the phase's wall time without the
// probes.
type pacer struct {
	start    time.Time     // when the current piece began
	wall     time.Duration // pieces so far
	refSec   float64       // wall in reference seconds, set by cut
	probeCPU time.Duration // CPU time the probes took
	probes   []float64     // every probe, in ms
}

// startPacer runs the first probe and starts the first piece.
func startPacer() *pacer {
	p := &pacer{}
	p.runProbe()
	p.start = time.Now()
	return p
}

// runProbe runs the host probe with the garbage collector off. Turning it
// off waits for a collection in progress to finish, so the probe never
// shares the CPUs with the program's collector.
func (p *pacer) runProbe() {
	gc := debug.SetGCPercent(-1)
	cpu0 := cpuTime()
	d := hostProbe()
	p.probeCPU += cpuTime() - cpu0
	debug.SetGCPercent(gc)
	p.probes = append(p.probes, float64(d.Nanoseconds())/1e6)
}

// cut ends the current piece, probes, starts the next, and rescales the
// wall time so far. The caller has none of its own work running.
// Workloads cut at fixed points of their work, never on a timer, so every
// round probes, and refills the caches the probe displaced, the same
// number of times.
func (p *pacer) cut() {
	// A collection the piece started belongs to the piece: wait for it, by
	// turning the collector off and on again, before taking the time.
	debug.SetGCPercent(debug.SetGCPercent(-1))
	p.wall += time.Since(p.start)
	p.runProbe()
	p.refSec = p.toRef(p.wall.Seconds())
	p.start = time.Now()
}

// toRef scales seconds measured among the probes so far to reference
// seconds, by the mean of the probes without the slowest tenth.
func (p *pacer) toRef(sec float64) float64 {
	ms := append([]float64(nil), p.probes...)
	sort.Float64s(ms)
	ms = ms[:len(ms)-len(ms)/10]
	sum := 0.0
	for _, v := range ms {
		sum += v
	}
	return sec * probeRef.Seconds() / (sum / float64(len(ms)) / 1e3)
}

// addRecorded prints the metrics that are recorded but not gated: the
// failure share, throughput, HTTP fetch latency, the host probe and the
// paper-level outputs, which change legitimately when the controller
// changes.
func addRecorded(rep *report, plain []roundResult) {
	var segs, sessions int
	var wall time.Duration
	var energy, qoe, stall, play float64
	var fetch, probes []float64
	for _, r := range plain {
		probes = append(probes, r.probeMS)
		segs += r.segments
		sessions += r.sessions
		wall += r.wall
		energy += r.energyMJ
		qoe += r.qoeSum
		stall += r.stallSec
		play += r.playSec
		for _, d := range r.fetch {
			fetch = append(fetch, float64(d)/float64(time.Millisecond))
		}
	}
	rep.add("host.probe_ms", median(probes), "ms", len(probes))
	if rep.attempted > 0 {
		rep.add("fail_ratio", float64(rep.failed)/float64(rep.attempted), "ratio", rep.attempted)
	}
	if segs > 0 {
		rep.add("seg_per_s", float64(segs)/wall.Seconds(), "1/s", segs)
		rep.add("out.energy_mj_per_seg", energy/float64(segs), "mJ", segs)
	}
	if sessions > 0 {
		rep.add("out.qoe_mean", qoe/float64(sessions), "Q", sessions)
	}
	if play > 0 {
		rep.add("out.stall_ratio", stall/play, "ratio", segs)
	}
	if len(fetch) > 0 {
		q := quantiles(fetch, 100)
		rep.add("seg_p50_ms", q[49], "ms", len(fetch))
		rep.add("seg_p99_ms", q[98], "ms", len(fetch))
	}
}

// durations lists the rounds' wall times in seconds.
func durations(rs []roundResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.wall.Seconds()
	}
	return out
}

// refTimes lists the rounds' times in reference seconds.
func refTimes(rs []roundResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.refSec
	}
	return out
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) at the current
// resident set, so the next reading is the peak of what ran in between.
// Where the kernel refuses, readings stay process-wide peaks.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB since start
// or the last resetPeakRSS.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the CPU time, user plus system, the process has used so far.
// Unlike wall time it leaves out the time the process waited for a CPU, so
// other tenants of a shared host move it less.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
