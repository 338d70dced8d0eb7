package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the spans of a traced run in memory: one per call the
// harness wraps, linked to the span that caused it and to the request they
// serve. They are written out when the run ends.
type tracer struct {
	origin time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []spanRecord
}

// spanRecord is one timed call. Times are nanoseconds since the run's
// tracer was created.
type spanRecord struct {
	Layer  string `json:"layer"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// record stores one finished top-level span.
func (t *tracer) record(layer string, start, end time.Time) {
	id := t.nextID.Add(1)
	t.add(layer, id, 0, id, start, end)
}

func (t *tracer) add(layer string, id, parent, req uint64, start, end time.Time) {
	s := spanRecord{Layer: layer, ID: id, Parent: parent, Req: req, Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// layerTime totals one layer's spans.
type layerTime struct {
	n          int
	total, own time.Duration // summed duration, and the part no child span covers
}

// selfTimes sums each layer's span time and self time: a span's duration
// minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][]spanRecord{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		lt := out[s.Layer]
		lt.n++
		lt.total += time.Duration(s.End - s.Start)
		lt.own += time.Duration(s.End-s.Start) - covered(s, children[s.ID])
		out[s.Layer] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent spanRecord, kids []spanRecord) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	cur, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > cur {
				sum += curEnd - cur
			}
			cur, curEnd = s, e
			continue
		}
		curEnd = max(curEnd, e)
	}
	if curEnd > cur {
		sum += curEnd - cur
	}
	return time.Duration(sum)
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanRef is the enclosing span carried in a request's context.
type spanRef struct{ id, req uint64 }

type spanKey struct{}

// serve runs next as a span of the given layer, child of the enclosing
// traced layer's span when there is one.
func (t *tracer) serve(layer string, next http.Handler, w http.ResponseWriter, r *http.Request) {
	parent, _ := r.Context().Value(spanKey{}).(spanRef)
	id := t.nextID.Add(1)
	req := parent.req
	if req == 0 {
		req = id
	}
	start := time.Now()
	next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{id: id, req: req})))
	t.add(layer, id, parent.id, req, start, time.Now())
}

// writeMeter totals the time spent in, and the bytes passed to, Write on
// the server ends of the emulated connections.
type writeMeter struct {
	ns, bytes atomic.Int64
}

// meteredListener wraps accepted connections in a writeMeter.
type meteredListener struct {
	net.Listener
	m *writeMeter
}

func (l meteredListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return meteredConn{Conn: c, m: l.m}, nil
}

type meteredConn struct {
	net.Conn
	m *writeMeter
}

func (c meteredConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.m.ns.Add(time.Since(start).Nanoseconds())
	c.m.bytes.Add(int64(n))
	return n, err
}

// fetchTimer is the client-side RoundTripper that times each segment fetch
// from RoundTrip start to the body's EOF and checks the body length against
// Content-Length.
type fetchTimer struct {
	next http.RoundTripper
	// onSegment, when set, runs after each segment body's EOF.
	onSegment func()

	mu        sync.Mutex
	latencies []time.Duration
	badLength int
}

func (f *fetchTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := f.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{rc: resp.Body, f: f, start: start, want: resp.ContentLength, segment: req.URL.Path == "/segment"}
	return resp, nil
}

// take returns and clears the recorded segment fetch latencies and the
// count of bodies whose length differed from their Content-Length.
func (f *fetchTimer) take() (lat []time.Duration, badLength int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	lat, badLength = f.latencies, f.badLength
	f.latencies, f.badLength = nil, 0
	return lat, badLength
}

type timedBody struct {
	rc      io.ReadCloser
	f       *fetchTimer
	start   time.Time
	want    int64
	got     int64
	segment bool
	done    bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.got += int64(n)
	if err == io.EOF && !b.done {
		b.done = true
		d := time.Since(b.start)
		b.f.mu.Lock()
		if b.want >= 0 && b.got != b.want {
			b.f.badLength++
		}
		if b.segment {
			b.f.latencies = append(b.f.latencies, d)
		}
		b.f.mu.Unlock()
		if b.segment && b.f.onSegment != nil {
			b.f.onSegment()
		}
	}
	return n, err
}

func (b *timedBody) Close() error { return b.rc.Close() }

// perUnit divides a total by a count, reading 0 for no samples.
func perUnit(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// microsPer is d in microseconds per item, 0 for no items.
func microsPer(d time.Duration, n int) float64 {
	return perUnit(float64(d.Nanoseconds())/1e3, n)
}
