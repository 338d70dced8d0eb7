package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ptile360/internal/headtrace"
	"ptile360/internal/httpstream"
	"ptile360/internal/netem"
	"ptile360/internal/obs"
	"ptile360/internal/power"
	"ptile360/internal/resilience"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

const (
	// httpClients is the closed loop's client count, each with one
	// keep-alive connection: at most nproc on the 2-core reference box.
	httpClients = 2
	// httpShards replicas sit behind the router.
	httpShards = 2
	// sessionTimeout bounds one HTTP session; a timeout counts as failed.
	sessionTimeout = 30 * time.Second
	// timeCompression makes emulated network waits effectively zero.
	timeCompression = 1e12
)

// httpSpec sizes one HTTP workload.
type httpSpec struct {
	// groups of videos stream one after another, each from a cold edge
	// cache; a group's videos take turns wave by wave.
	groups [][]int
	// users generated per video; trainUsers of them build the catalogue.
	users, trainUsers int
	// sessions per group, spread over the clients.
	sessions int
	// viewers caps the evaluation viewers sessions cycle per video
	// (0 = all of them, one per session).
	viewers int
	// profiles are the SessionNet link profiles sessions cycle. suddendrop
	// is left out: one failed SessionNet.Download leaves the link's clock
	// ahead of the session's, so every later download on it fails too.
	profiles []string
	// swapEvery hot-swaps the next video's catalogue to its alternate,
	// then bumps the router's catalogue version, each time the clients have
	// fetched this many more segments (0 = never). Counting segments
	// rather than seconds keeps the work the same however fast the tier
	// runs.
	swapEvery int
	// maxSegments truncates sessions (0 = whole video).
	maxSegments int
}

// videos lists every video of the workload.
func (s httpSpec) videos() []int {
	var out []int
	for _, g := range s.groups {
		out = append(out, g...)
	}
	return out
}

// setupHTTPHot streams four videos in turn, each to 10 sessions cycling two
// viewers: averaging over videos keeps the seed-to-seed spread of the
// cache's hit share small.
func setupHTTPHot(cfg config, ph phases) (instance, error) {
	s := httpSpec{groups: [][]int{{2}, {5}, {7}, {8}}, users: 24, trainUsers: 20, sessions: 10, viewers: 2, profiles: []string{"stable"}}
	if cfg.smoke {
		s.groups, s.sessions, s.maxSegments = [][]int{{2}, {5}}, 2, 10
	}
	return setupHTTP(cfg, ph, s)
}

// setupHTTPChurn streams four videos taking turns wave by wave, one unique
// viewer per session, while the catalogues hot-swap every 400 segments
// (about four times a second). The server keeps 8 superseded catalogue
// generations, so a session must finish within 8 swaps of its manifest or
// get 410 Gone.
func setupHTTPChurn(cfg config, ph phases) (instance, error) {
	s := httpSpec{groups: [][]int{{2, 5, 6, 8}}, users: 26, trainUsers: 20, sessions: 24,
		profiles: []string{"stable", "bufferbloat", "crossflow"}, swapEvery: 400}
	if cfg.smoke {
		s.sessions, s.maxSegments, s.swapEvery = 2, 10, 4
	}
	return setupHTTP(cfg, ph, s)
}

// httpSession is one planned session of a round.
type httpSession struct {
	group   int
	video   int
	viewer  *headtrace.Trace
	profile *netem.Profile
	netSeed int64
}

// httpOutcome is what one session did.
type httpOutcome struct {
	report *httpstream.SessionReport
	err    error
}

type httpInstance struct {
	spec     httpSpec
	cats     map[int][2]*sim.Catalog // per video: the served catalogue and its alternate
	sessions []httpSession
	segments map[int]int // per video: segments a session streams

	server *httpstream.Server
	chains []*resilience.Chain
	router *httpstream.Router
	ln     *netem.Listener
	hs     *http.Server
	served chan error

	// Traced runs install switchable wrappers; active holds the tracer
	// during traced rounds only.
	active atomic.Pointer[tracer]
	meter  *writeMeter

	// fetched counts segment fetches in the round, driving the swaps.
	fetched atomic.Int64
	// swapMu serializes swaps; current is the index of each video's
	// published catalogue, swaps counts swaps and bumps cache flushes.
	swapMu  sync.Mutex
	current map[int]int
	swaps   int
	bumps   int
	startCV int64

	// Per round, for the checks and replays.
	badSessions []string
	badLength   int
	allSegments int
	stageRegs   []*obs.Registry
	// replay holds each distinct session of the traced rounds once, keyed
	// in replayed by its network seed (a viewer's sessions are identical).
	replay   []replaySession
	replayed map[int64]bool
}

// replaySession is a session's recorded downloads.
type replaySession struct {
	s     httpSession
	sizes []int64
}

func setupHTTP(cfg config, ph phases, s httpSpec) (instance, error) {
	h := &httpInstance{spec: s, cats: map[int][2]*sim.Catalog{}, segments: map[int]int{}, current: map[int]int{}, replayed: map[int64]bool{}}
	evals := map[int][]*headtrace.Trace{}
	for _, id := range s.videos() {
		p, err := video.ProfileByID(id)
		if err != nil {
			return nil, err
		}
		var ds *headtrace.Dataset
		err = ph.time("headtrace.generate_s", func() error {
			gcfg := headtrace.DefaultGeneratorConfig()
			gcfg.NumUsers = s.users
			var err error
			ds, err = headtrace.Generate(p, gcfg, cfg.seed+int64(id))
			return err
		})
		if err != nil {
			return nil, err
		}
		var pair [2]*sim.Catalog
		for k := range pair {
			// The alternate catalogue comes from another training split.
			train, eval, err := ds.SplitTrainEval(s.trainUsers, cfg.seed+1+int64(k))
			if err != nil {
				return nil, err
			}
			if k == 0 {
				evals[id] = eval
			}
			if k == 1 && s.swapEvery == 0 {
				break
			}
			err = ph.time("sim.build_catalog_s", func() error {
				ccfg, err := sim.DefaultCatalogConfig()
				if err != nil {
					return err
				}
				ccfg.Seed = cfg.seed
				pair[k], err = sim.BuildCatalog(p, train, ccfg)
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		h.cats[id] = pair
		h.segments[id] = len(pair[0].Content)
		if s.maxSegments > 0 && s.maxSegments < h.segments[id] {
			h.segments[id] = s.maxSegments
		}
	}

	profiles := make([]*netem.Profile, len(s.profiles))
	for i, name := range s.profiles {
		var err error
		if profiles[i], err = netem.Named(name); err != nil {
			return nil, err
		}
	}
	// A viewer's sessions share its network seed, so on one link profile
	// they replay the same requests.
	next := map[int]int{}
	for g, group := range s.groups {
		for i := 0; i < s.sessions; i++ {
			// Videos take turns wave by wave, so the sessions of a wave
			// are equally long.
			id := group[(i/httpClients)%len(group)]
			pool := evals[id]
			if s.viewers > 0 && s.viewers < len(pool) {
				pool = pool[:s.viewers]
			}
			v := next[id] % len(pool)
			h.sessions = append(h.sessions, httpSession{
				group:   g,
				video:   id,
				viewer:  pool[v],
				profile: profiles[i%len(profiles)],
				netSeed: cfg.seed*1000003 + int64(id*1000+v),
			})
			next[id]++
		}
	}

	if err := ph.time("httpstream.tier_up_s", func() error { return h.tierUp(cfg.seed, cfg.traced) }); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// tierUp builds the serving tier: one server behind a resilience chain
// per shard, the router with its edge cache in front, served over an
// in-process emulated listener on the ideal profile.
func (h *httpInstance) tierUp(seed int64, traced bool) error {
	catalogs := map[int]*sim.Catalog{}
	for id, pair := range h.cats {
		catalogs[id] = pair[0]
	}
	srv, err := httpstream.NewServer(catalogs, video.DefaultEncoderConfig(), []float64{30, 27, 24, 21})
	if err != nil {
		return err
	}
	h.server = srv
	var inner http.Handler = srv
	if traced {
		inner = h.switchable("server", srv)
	}
	var shards []httpstream.Shard
	for i := 0; i < httpShards; i++ {
		chain, err := resilience.NewChain(resilience.DefaultConfig(), inner)
		if err != nil {
			return err
		}
		h.chains = append(h.chains, chain)
		var sh http.Handler = chain
		if traced {
			sh = h.switchable("shard", chain)
		}
		shards = append(shards, httpstream.Shard{Name: fmt.Sprintf("shard-%d", i), Handler: sh})
	}
	if h.router, err = httpstream.NewRouter(httpstream.RouterConfig{}, shards...); err != nil {
		return err
	}
	h.startCV = h.router.Ledger().CatalogVersion
	ideal, err := netem.Named("ideal")
	if err != nil {
		return err
	}
	if h.ln, err = netem.Listen(ideal, seed, 0, nil); err != nil {
		return err
	}
	var front http.Handler = h.router
	var ln net.Listener = h.ln
	if traced {
		front = h.switchable("router", h.router)
		h.meter = &writeMeter{}
		ln = meteredListener{Listener: h.ln, m: h.meter}
	}
	h.hs = &http.Server{Handler: front, ReadHeaderTimeout: sessionTimeout}
	h.served = make(chan error, 1)
	go func() { h.served <- h.hs.Serve(ln) }()
	return nil
}

// switchable wraps next in a span recorder that records only while a
// traced round runs.
func (h *httpInstance) switchable(layer string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tr := h.active.Load(); tr != nil {
			tr.serve(layer, next, w, r)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// round streams every planned session through the tier from a cold edge
// cache, each client streaming one session of every wave.
func (h *httpInstance) round(ctx context.Context, tr *tracer, pc *pacer) (roundResult, error) {
	var res roundResult
	// Every round starts on the primary catalogues with a cold edge cache
	// (the previous round ended with a flush).
	videos := h.spec.videos()
	for _, id := range videos {
		if h.current[id] == 1 {
			h.swap(id)
		}
	}
	h.fetched.Store(0)
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
		h.stageRegs = append(h.stageRegs, reg)
		h.active.Store(tr)
		defer h.active.Store(nil)
	}

	// Videos take turns to swap, each swap followed by a flush.
	var onSegment func()
	if every := int64(h.spec.swapEvery); every > 0 {
		onSegment = func() {
			if n := h.fetched.Add(1); n%every == 0 {
				h.swap(videos[int(n/every-1)%len(videos)])
				h.flush()
			}
		}
	}

	out := make([]httpOutcome, len(h.sessions))
	timers := make([]*fetchTimer, httpClients)
	for c := range timers {
		tp := &http.Transport{
			DialContext:         func(context.Context, string, string) (net.Conn, error) { return h.ln.Dial() },
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}
		defer tp.CloseIdleConnections()
		timers[c] = &fetchTimer{next: tp, onSegment: onSegment}
	}
	for g := range h.spec.groups {
		var group []int
		for i, s := range h.sessions {
			if s.group == g {
				group = append(group, i)
			}
		}
		// The clients start their sessions together, in waves of one
		// session each, and the host probe runs between waves.
		for w := 0; w < len(group); w += httpClients {
			var clients sync.WaitGroup
			for c := 0; c < httpClients && w+c < len(group); c++ {
				clients.Add(1)
				go func(c int) {
					defer clients.Done()
					out[group[w+c]] = h.stream(ctx, group[w+c], timers[c], reg)
				}(c)
			}
			clients.Wait()
			pc.cut()
		}
		// Flush the edge cache after each group, so its entries are
		// garbage rather than live while the next group or round runs.
		h.flush()
	}

	for _, ft := range timers {
		lat, bad := ft.take()
		res.fetch = append(res.fetch, lat...)
		h.badLength += bad
	}
	for i, o := range out {
		s := h.sessions[i]
		want := h.segments[s.video]
		res.attempted += want
		if o.err != nil {
			res.failed += want
			h.badSessions = append(h.badSessions, fmt.Sprintf("session %d: %v", i, o.err))
			continue
		}
		r := o.report
		served := len(r.Segments) - r.AbandonedSegments
		res.attempted += r.TotalRetries
		res.failed += r.TotalRetries + r.AbandonedSegments + want - len(r.Segments)
		if len(r.Segments) != want || r.AbandonedSegments > 0 {
			h.badSessions = append(h.badSessions, fmt.Sprintf("session %d: %d of %d segments, %d abandoned", i, len(r.Segments), want, r.AbandonedSegments))
		}
		res.segments += served
		res.sessions++
		res.energyMJ += r.TotalEnergyMJ
		res.stallSec += r.TotalStallSec
		res.playSec += float64(served) * h.cats[s.video][0].SegmentSec
		q := 0.0
		for _, seg := range r.Segments {
			q += seg.PerceivedQuality
		}
		res.qoeSum += perUnit(q, len(r.Segments))
		if tr != nil && !h.replayed[s.netSeed] {
			h.replayed[s.netSeed] = true
			sizes := make([]int64, len(r.Segments))
			for k, seg := range r.Segments {
				sizes[k] = seg.Bytes
			}
			h.replay = append(h.replay, replaySession{s: s, sizes: sizes})
		}
	}
	h.allSegments += res.segments
	return res, nil
}

// stream plays one session under its own deadline.
func (h *httpInstance) stream(ctx context.Context, i int, ft *fetchTimer, reg *obs.Registry) httpOutcome {
	s := h.sessions[i]
	sn, err := netem.NewSessionNet(netem.SessionConfig{Profile: s.profile, Seed: s.netSeed})
	if err != nil {
		return httpOutcome{err: err}
	}
	client, err := httpstream.NewClient(httpstream.ClientConfig{
		BaseURL:         "http://tier",
		Phone:           power.Pixel3,
		Net:             sn,
		TimeCompression: timeCompression,
		MaxSegments:     h.spec.maxSegments,
		UseMPC:          true,
		Transport:       ft,
		ClientID:        fmt.Sprintf("session-%d", i),
		RetrySeed:       s.netSeed,
		Metrics:         reg,
	})
	if err != nil {
		return httpOutcome{err: err}
	}
	sctx, cancel := context.WithTimeout(ctx, sessionTimeout)
	defer cancel()
	rep, err := client.StreamContext(sctx, s.video, s.viewer)
	return httpOutcome{report: rep, err: err}
}

// flush invalidates the edge cache.
func (h *httpInstance) flush() {
	h.swapMu.Lock()
	defer h.swapMu.Unlock()
	h.router.BumpCatalogVersion()
	h.bumps++
}

// swap publishes the video's other catalogue.
func (h *httpInstance) swap(id int) {
	h.swapMu.Lock()
	defer h.swapMu.Unlock()
	h.current[id] ^= 1
	h.server.SwapCatalog(h.cats[id][h.current[id]])
	h.swaps++
}

// check verifies every session streamed every segment without abandons,
// every body matched its Content-Length, the router's ledger partitions its
// requests, and the catalogue versions moved exactly as swapped.
func (h *httpInstance) check(rep *report) {
	for _, b := range h.badSessions {
		rep.fail("http: %s", b)
	}
	if h.badLength > 0 {
		rep.fail("http: %d bodies differ from their Content-Length", h.badLength)
	}
	led := h.router.Ledger()
	if led.Requests != led.CacheHits+led.ShardRequests || led.Unrouted != 0 {
		rep.fail("http: router requests %d != hits %d + shard requests %d (unrouted %d)", led.Requests, led.CacheHits, led.ShardRequests, led.Unrouted)
	}
	if got, want := led.CatalogVersion, h.startCV+int64(h.bumps); got != want {
		rep.fail("http: router catalogue version %d, want %d", got, want)
	}
	if got, want := h.server.CatalogVersion(), int64(1+h.swaps); got != want {
		rep.fail("http: server catalogue version %d, want %d", got, want)
	}
	rep.add("httpstream.edge_hit_ratio", perUnit(float64(led.CacheHits), int(led.Requests)), "ratio", int(led.Requests))
}

func (h *httpInstance) layers(rep *report, _ []roundResult, tr *tracer) error {
	for _, stage := range []string{"predict", "decide", "download", "account"} {
		var sum float64
		var n uint64
		for _, reg := range h.stageRegs {
			hist := reg.Histogram("client_segment_stage_seconds", "Per-stage latency of the client_segment lifecycle.", nil, obs.L("stage", stage))
			sum += hist.Sum()
			n += hist.Count()
		}
		rep.add("httpstream.client_"+stage+"_us", perUnit(sum*1e6, int(n)), "us", int(n))
	}

	lt := tr.selfTimes()
	router, shard, server := lt["router"], lt["shard"], lt["server"]
	rep.add("httpstream.router_self_us", microsPer(router.own, router.n), "us", router.n)
	rep.add("resilience.chain_self_us", microsPer(shard.own, shard.n), "us", shard.n)
	rep.add("httpstream.server_us", microsPer(server.total, server.n), "us", server.n)

	var shed, terminal int64
	for _, c := range h.chains {
		t := c.Snapshot().Totals()
		shed += t.Shed
		terminal += t.Terminal()
	}
	rep.add("resilience.shed_ratio", perUnit(float64(shed), int(terminal)), "ratio", int(terminal))
	written := h.meter.bytes.Load()
	rep.add("netem.conn_write_us_per_mb", perUnit(float64(h.meter.ns.Load())/1e3, int(written))*1e6, "us/MB", int(written))
	led := h.router.Ledger()
	rep.add("httpstream.requests_per_seg", perUnit(float64(led.Requests), h.allSegments), "count", h.allSegments)

	// Each distinct session's downloads replayed on SessionNet with their
	// recorded sizes, profile and seed, then the same sessions replayed on
	// the simulator's scalar Step over fresh packet-level paths.
	var bytes int64
	var dl time.Duration
	n := 0
	for _, r := range h.replay {
		sn, err := netem.NewSessionNet(netem.SessionConfig{Profile: r.s.profile, Seed: r.s.netSeed})
		if err != nil {
			return err
		}
		virtual := 0.0
		for _, b := range r.sizes {
			start := time.Now()
			d, err := sn.Download(float64(b*8), virtual)
			dl += time.Since(start)
			if err != nil {
				return fmt.Errorf("netem replay: %w", err)
			}
			virtual += d
			bytes += b
			n++
		}
	}
	rep.add("httpstream.bytes_per_seg", perUnit(float64(bytes), n), "B", n)
	rep.add("netem.download_us", microsPer(dl, n), "us", n)

	simCfg, err := sim.DefaultConfig(sim.SchemeOurs, power.Pixel3)
	if err != nil {
		return err
	}
	var steps []float64
	for _, id := range h.spec.videos() {
		var mine []httpSession
		for _, r := range h.replay {
			if r.s.video == id {
				mine = append(mine, r.s)
			}
		}
		ns, err := stepTimes(h.cats[id][0], simCfg, len(mine), func(st *sim.Stepper, i int) (*sim.State, error) {
			sn, err := netem.NewSessionNet(netem.SessionConfig{Profile: mine[i].profile, Seed: mine[i].netSeed})
			if err != nil {
				return nil, err
			}
			return st.NewStateNetem(mine[i].viewer, sn)
		})
		if err != nil {
			return err
		}
		steps = append(steps, ns...)
	}
	return addStepMetrics(rep, steps)
}

// close shuts the tier down and waits for the server loop to return.
func (h *httpInstance) close() {
	if h.hs != nil {
		h.hs.Close()
		<-h.served
	}
}
