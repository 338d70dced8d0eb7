package obs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
)

// The flight recorder is a per-session black box: a sampled subset of
// sessions keeps a small fixed ring of recent events (joins, downloads,
// stalls, abandons, leaves), and an anomaly — abandon, stall burst, SLO
// burn — dumps the ring as a JSONL record for postmortems. The
// design is gated for the fleet hot path: unsampled sessions hold a nil
// *FlightSession and every Record call on nil is a single branch, so the
// engine's ≲0.001 allocs/event steady state survives with the recorder on.

// FlightKind tags one black-box event.
type FlightKind uint8

const (
	// FlightJoin marks session start.
	FlightJoin FlightKind = iota
	// FlightDownload is one fetched segment (server side: one served
	// request).
	FlightDownload
	// FlightStall is a segment that rebuffered (server side: a 5xx
	// response).
	FlightStall
	// FlightAbandon is a segment abandoned after the retry ladder.
	FlightAbandon
	// FlightLeave marks session end.
	FlightLeave
)

var flightKindNames = [...]string{"join", "download", "stall", "abandon", "leave"}

// String names the kind.
func (k FlightKind) String() string {
	if int(k) < len(flightKindNames) {
		return flightKindNames[k]
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// MarshalText renders the kind as its name in JSON dumps.
func (k FlightKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name.
func (k *FlightKind) UnmarshalText(b []byte) error {
	for i, n := range flightKindNames {
		if n == string(b) {
			*k = FlightKind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown flight kind %q", b)
}

// FlightEvent is one black-box entry. It is a compact value type: recording
// into the preallocated ring allocates nothing. Each payload field means the
// same for every producer; a kind fills only the fields it has.
type FlightEvent struct {
	// TimeSec is the session clock: the client's session time, the fleet's
	// virtual clock, or the server's time since the middleware started.
	TimeSec float64 `json:"t"`
	// Kind tags the event.
	Kind FlightKind `json:"kind"`
	// Seg is the segment index the event concerns (-1 when not segment
	// scoped).
	Seg int32 `json:"seg"`
	// DownloadSec is the segment's whole fetch, failed attempts included
	// (server side: the handler's time).
	DownloadSec float64 `json:"download_sec,omitempty"`
	// StallSec is the rebuffering charged to the segment.
	StallSec float64 `json:"stall_sec,omitempty"`
	// EstimateBps is the session's bandwidth estimate after the segment.
	EstimateBps float64 `json:"estimate_bps,omitempty"`
	// Status is the HTTP response code of a served request.
	Status int `json:"status,omitempty"`
	// EnergyMJ and QoE are a leaving session's total Eq. 1 energy and mean
	// Eq. 2 QoE.
	EnergyMJ float64 `json:"energy_mj,omitempty"`
	QoE      float64 `json:"qoe,omitempty"`
}

// FlightDump is one triggered black-box dump.
type FlightDump struct {
	Session string        `json:"session"`
	Reason  string        `json:"reason"`
	Events  []FlightEvent `json:"events"`
}

// FlightConfig configures a FlightRecorder.
type FlightConfig struct {
	// SampleEvery records 1-in-N sessions (1 = every session; 0 → 16).
	SampleEvery int
	// RingSize is the per-session event ring (0 → 64).
	RingSize int
	// StallBurst triggers a dump when this many stall events land within
	// StallBurstWindowSec of session time (0 → 3; negative disables).
	StallBurst int
	// StallBurstWindowSec is the burst window (0 → 10).
	StallBurstWindowSec float64
	// MaxDumps bounds retained dumps; the oldest is evicted (0 → 64).
	MaxDumps int
	// Registry receives flight_* metrics when non-nil.
	Registry *Registry
}

func (c FlightConfig) withDefaults() FlightConfig {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 16
	}
	if c.RingSize <= 0 {
		c.RingSize = 64
	}
	if c.StallBurst == 0 {
		c.StallBurst = 3
	}
	if c.StallBurstWindowSec <= 0 {
		c.StallBurstWindowSec = 10
	}
	if c.MaxDumps <= 0 {
		c.MaxDumps = 64
	}
	return c
}

// FlightRecorder owns the sampled sessions and their dumps.
type FlightRecorder struct {
	cfg FlightConfig

	mu     sync.Mutex
	active map[string]*FlightSession
	dumps  []FlightDump

	seen    *Counter
	sampled *Counter
	dropped *Counter
}

// NewFlightRecorder builds a recorder.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	f := &FlightRecorder{cfg: cfg.withDefaults(), active: make(map[string]*FlightSession)}
	if reg := f.cfg.Registry; reg != nil {
		f.seen = reg.Counter("flight_sessions_seen_total", "Sessions offered to the flight recorder's sampling gate.")
		f.sampled = reg.Counter("flight_sessions_sampled_total", "Sessions the flight recorder is actually recording.")
		f.dropped = reg.Counter("flight_dumps_dropped_total", "Dumps evicted because MaxDumps was reached.")
	}
	return f
}

// Session passes id through the sampling gate: a deterministic hash selects
// 1-in-SampleEvery sessions. Returns nil (on which every FlightSession
// method is a no-op) for unsampled sessions.
func (f *FlightRecorder) Session(id string) *FlightSession {
	h := fnv.New32a()
	io.WriteString(h, id)
	return f.admit(id, int(h.Sum32()%uint32(f.cfg.SampleEvery)) == 0)
}

// SessionN is Session for integer-identified sessions (the fleet engine):
// the gate is n % SampleEvery == 0, so sampled sessions are predictable in
// tests and evenly spread across shards. Only sampled sessions get an id
// formatted, so the gate allocates nothing for the rest.
func (f *FlightRecorder) SessionN(n int) *FlightSession {
	if n%f.cfg.SampleEvery != 0 {
		return f.admit("", false)
	}
	return f.admit(fmt.Sprintf("session-%d", n), true)
}

func (f *FlightRecorder) admit(id string, sampled bool) *FlightSession {
	if f.seen != nil {
		f.seen.Inc()
	}
	if !sampled {
		return nil
	}
	s := &FlightSession{
		rec:    f,
		id:     id,
		ring:   make([]FlightEvent, f.cfg.RingSize),
		stalls: make([]float64, maxInt(f.cfg.StallBurst, 1)),
	}
	f.mu.Lock()
	f.active[id] = s
	f.mu.Unlock()
	if f.sampled != nil {
		f.sampled.Inc()
	}
	return s
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// FlightSession is one sampled session's ring. All methods are nil-safe:
// call sites hold a possibly-nil pointer and pay one branch when unsampled.
type FlightSession struct {
	rec *FlightRecorder
	id  string

	mu      sync.Mutex
	ring    []FlightEvent
	next, n int
	total   uint64 // events ever recorded
	dumpAt  uint64 // total at the last dump (dedupe)

	stalls              []float64
	stallNext, stallCnt int
}

// ID returns the session identifier ("" on nil).
func (s *FlightSession) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Record appends one event and fires the built-in anomaly triggers: an
// abandon event dumps immediately; StallBurst stalls within the burst
// window dump as "stall_burst".
func (s *FlightSession) Record(ev FlightEvent) {
	if s == nil {
		return
	}
	var trigger string
	s.mu.Lock()
	s.ring[s.next] = ev
	s.next = (s.next + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
	s.total++
	switch ev.Kind {
	case FlightAbandon:
		trigger = "abandon"
	case FlightStall:
		if s.rec.cfg.StallBurst > 0 {
			s.stalls[s.stallNext] = ev.TimeSec
			s.stallNext = (s.stallNext + 1) % len(s.stalls)
			if s.stallCnt < len(s.stalls) {
				s.stallCnt++
			}
			if s.stallCnt == len(s.stalls) {
				oldest := s.stalls[s.stallNext] // next overwrite = oldest retained
				if s.stallCnt > 1 && ev.TimeSec-oldest <= s.rec.cfg.StallBurstWindowSec {
					trigger = "stall_burst"
				}
			}
		}
	}
	s.mu.Unlock()
	if trigger != "" {
		s.rec.dump(s, trigger)
	}
}

// RecordSegment records one stepped segment at time t: a stall event when
// it rebuffered, then its download, or its abandon when playback skipped
// it. Each event carries the step's download and stall seconds and the
// bandwidth estimate after it. Nil-safe.
func (s *FlightSession) RecordSegment(t float64, seg int, downloadSec, stallSec, estimateBps float64, abandoned bool) {
	if s == nil {
		return
	}
	ev := FlightEvent{TimeSec: t, Kind: FlightStall, Seg: int32(seg), DownloadSec: downloadSec, StallSec: stallSec, EstimateBps: estimateBps}
	if stallSec > 0 {
		s.Record(ev)
	}
	ev.Kind = FlightDownload
	if abandoned {
		ev.Kind = FlightAbandon
	}
	s.Record(ev)
}

// Close deregisters the session from the recorder's active set (its dumps
// remain). Nil-safe.
func (s *FlightSession) Close() {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	delete(s.rec.active, s.id)
	s.rec.mu.Unlock()
}

// dump snapshots the session's ring into the bounded dump list, skipping if
// nothing new was recorded since the last dump.
func (f *FlightRecorder) dump(s *FlightSession, reason string) {
	s.mu.Lock()
	if s.total == s.dumpAt {
		s.mu.Unlock()
		return
	}
	s.dumpAt = s.total
	events := make([]FlightEvent, 0, s.n)
	for k := 0; k < s.n; k++ {
		events = append(events, s.ring[((s.next-s.n+k)%len(s.ring)+len(s.ring))%len(s.ring)])
	}
	s.mu.Unlock()

	d := FlightDump{Session: s.id, Reason: reason, Events: events}
	f.mu.Lock()
	f.dumps = append(f.dumps, d)
	evicted := 0
	if len(f.dumps) > f.cfg.MaxDumps {
		evicted = len(f.dumps) - f.cfg.MaxDumps
		f.dumps = append(f.dumps[:0], f.dumps[evicted:]...)
	}
	f.mu.Unlock()
	if reg := f.cfg.Registry; reg != nil {
		reg.Counter("flight_dumps_total", "Flight-recorder dumps by trigger reason.", L("reason", reason)).Inc()
		if evicted > 0 && f.dropped != nil {
			f.dropped.Add(float64(evicted))
		}
	}
}

// TriggerAll dumps every active sampled session — the SLO burn hook. Returns
// the number of sessions dumped.
func (f *FlightRecorder) TriggerAll(reason string) int {
	f.mu.Lock()
	sessions := make([]*FlightSession, 0, len(f.active))
	for _, s := range f.active {
		sessions = append(sessions, s)
	}
	f.mu.Unlock()
	for _, s := range sessions {
		f.dump(s, reason)
	}
	return len(sessions)
}

// Dumps snapshots the retained dumps, oldest first.
func (f *FlightRecorder) Dumps() []FlightDump {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightDump, len(f.dumps))
	copy(out, f.dumps)
	return out
}

// WriteJSONL writes one JSON object per dump.
func (f *FlightRecorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, d := range f.Dumps() {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the dumps as JSONL at /debug/flight.
func (f *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		f.WriteJSONL(w)
	})
}
