package httpstream

import (
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ptile360/internal/obs"
)

// FlightMiddleware feeds an anomaly flight recorder from the serving path:
// each distinct client — the `X-Client-Id` header, falling back to the
// remote host — is one flight session, and every request lands one event in
// its black-box ring. Successful responses record FlightDownload and 5xx
// responses record FlightStall (both with the handler's seconds as
// DownloadSec, the response code as Status, and Seg from the `seg` query
// parameter), so a burst of errors for one client trips the recorder's
// stall-burst trigger on its own, and an SLO burn's TriggerAll dumps the
// recent request history of every live client.
// Unsampled clients hold a nil session: their per-request cost is the id
// lookup and a nil-check.
//
// The client table is bounded: past maxClients the longest-idle client is
// closed and evicted, so an open-ended id space (e.g. remote ports) cannot
// grow the map without limit.
func FlightMiddleware(rec *obs.FlightRecorder, next http.Handler) http.Handler {
	if rec == nil {
		return next
	}
	return &flightHandler{
		rec:        rec,
		next:       next,
		start:      time.Now(),
		sess:       make(map[string]*flightClient),
		maxClients: 1024,
	}
}

type flightHandler struct {
	rec        *obs.FlightRecorder
	next       http.Handler
	start      time.Time
	maxClients int

	mu   sync.Mutex
	sess map[string]*flightClient
}

type flightClient struct {
	s        *obs.FlightSession // nil when the sampling gate skipped it
	lastSeen time.Time
}

// session returns the (possibly nil) flight session for a client id,
// admitting and join-stamping new clients and evicting the longest-idle
// one when the table is full.
func (h *flightHandler) session(id string, now time.Time) *obs.FlightSession {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := h.sess[id]
	if c == nil {
		if len(h.sess) >= h.maxClients {
			oldID, oldest := "", now
			for k, v := range h.sess {
				if !v.lastSeen.After(oldest) {
					oldID, oldest = k, v.lastSeen
				}
			}
			if old := h.sess[oldID]; old != nil {
				old.s.Close()
				delete(h.sess, oldID)
			}
		}
		c = &flightClient{s: h.rec.Session(id)}
		h.sess[id] = c
		c.s.Record(obs.FlightEvent{
			TimeSec: now.Sub(h.start).Seconds(),
			Kind:    obs.FlightJoin,
			Seg:     -1,
		})
	}
	c.lastSeen = now
	return c.s
}

func (h *flightHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Client-Id")
	if id == "" {
		if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil && host != "" {
			id = host
		} else {
			id = r.RemoteAddr
		}
	}
	t0 := time.Now()
	s := h.session(id, t0)
	if s == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	h.next.ServeHTTP(cw, r)
	if cw.code == 0 {
		cw.code = http.StatusOK
	}
	seg := int32(-1)
	if v := r.URL.Query().Get("seg"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			seg = int32(n)
		}
	}
	kind := obs.FlightDownload
	if cw.code >= 500 {
		kind = obs.FlightStall
	}
	s.Record(obs.FlightEvent{
		TimeSec:     t0.Sub(h.start).Seconds(),
		Kind:        kind,
		Seg:         seg,
		DownloadSec: time.Since(t0).Seconds(),
		Status:      cw.code,
	})
}
