package httpstream

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// Wire-format sanity bounds. A hostile or corrupted server must never be
// able to make the client allocate absurdly or loop forever; anything past
// these limits is a decode error, not a bigger buffer.
const (
	// maxManifestBytes bounds the manifest body.
	maxManifestBytes = 16 << 20
	// maxManifestSegments bounds the per-video segment count (≈12 days of
	// 1 s segments).
	maxManifestSegments = 1 << 20
	// maxPtilesPerSegment bounds the Ptile list of one segment.
	maxPtilesPerSegment = 4096
	// maxSegmentBytes bounds a single segment payload (1 GiB).
	maxSegmentBytes = 1 << 30
	// maxFrameRates bounds the version ladder width.
	maxFrameRates = 64
)

// DecodeManifest reads and validates a manifest from an untrusted stream.
// It never panics on malformed input: oversized bodies, trailing garbage,
// absurd or negative fields all return errors.
func DecodeManifest(r io.Reader) (*Manifest, error) {
	lr := io.LimitReader(r, maxManifestBytes+1)
	dec := json.NewDecoder(lr)
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("httpstream: decode manifest: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("httpstream: decode manifest: trailing data after JSON document")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// finite reports whether v is a usable real number.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate reports whether the manifest is internally consistent and within
// the wire-format sanity bounds.
func (m *Manifest) Validate() error {
	if m.VideoID < 0 {
		return fmt.Errorf("httpstream: manifest: negative video id %d", m.VideoID)
	}
	if !finite(m.SegmentSec) || m.SegmentSec <= 0 || m.SegmentSec > 3600 {
		return fmt.Errorf("httpstream: manifest: segment duration %g outside (0, 3600]", m.SegmentSec)
	}
	if len(m.Segments) == 0 {
		return fmt.Errorf("httpstream: empty manifest")
	}
	if len(m.Segments) > maxManifestSegments {
		return fmt.Errorf("httpstream: manifest: %d segments exceeds cap %d", len(m.Segments), maxManifestSegments)
	}
	if m.Qualities < 0 || m.Qualities > 100 {
		return fmt.Errorf("httpstream: manifest: quality count %d outside [0, 100]", m.Qualities)
	}
	if len(m.FrameRates) == 0 || len(m.FrameRates) > maxFrameRates {
		return fmt.Errorf("httpstream: manifest: %d frame rates outside [1, %d]", len(m.FrameRates), maxFrameRates)
	}
	for i, f := range m.FrameRates {
		if !finite(f) || f <= 0 || f > 1000 {
			return fmt.Errorf("httpstream: manifest: frame rate %g at index %d outside (0, 1000]", f, i)
		}
	}
	if !finite(m.SourceFPS) || m.SourceFPS <= 0 || m.SourceFPS > 1000 {
		return fmt.Errorf("httpstream: manifest: source fps %g outside (0, 1000]", m.SourceFPS)
	}
	if m.GridRows < 0 || m.GridRows > 1024 || m.GridCols < 0 || m.GridCols > 1024 {
		return fmt.Errorf("httpstream: manifest: grid %dx%d outside [0, 1024]", m.GridRows, m.GridCols)
	}
	for i, seg := range m.Segments {
		if !finite(seg.SI) || seg.SI < 0 || seg.SI > 1e9 {
			return fmt.Errorf("httpstream: manifest: segment %d SI %g outside [0, 1e9]", i, seg.SI)
		}
		if !finite(seg.TI) || seg.TI < 0 || seg.TI > 1e9 {
			return fmt.Errorf("httpstream: manifest: segment %d TI %g outside [0, 1e9]", i, seg.TI)
		}
		if !finite(seg.Jitter) || seg.Jitter <= 0 || seg.Jitter > 1e3 {
			return fmt.Errorf("httpstream: manifest: segment %d jitter %g outside (0, 1e3]", i, seg.Jitter)
		}
		if len(seg.Ptiles) > maxPtilesPerSegment {
			return fmt.Errorf("httpstream: manifest: segment %d has %d ptiles, cap %d", i, len(seg.Ptiles), maxPtilesPerSegment)
		}
		for j, r := range seg.Ptiles {
			if !finite(r.X0) || !finite(r.Y0) || !finite(r.W) || !finite(r.H) {
				return fmt.Errorf("httpstream: manifest: segment %d ptile %d has non-finite rect", i, j)
			}
			if r.W <= 0 || r.H <= 0 || r.W > 1e6 || r.H > 1e6 {
				return fmt.Errorf("httpstream: manifest: segment %d ptile %d has degenerate rect %gx%g", i, j, r.W, r.H)
			}
			if r.X0 < -1e6 || r.X0 > 1e6 || r.Y0 < -1e6 || r.Y0 > 1e6 {
				return fmt.Errorf("httpstream: manifest: segment %d ptile %d origin (%g, %g) out of range", i, j, r.X0, r.Y0)
			}
		}
	}
	return nil
}

// SegmentHeader is the validated header metadata of a segment response.
type SegmentHeader struct {
	// ContentLength is the declared body size in bytes, or -1 when the
	// server did not declare one.
	ContentLength int64
}

// ParseSegmentHeader validates the headers of a segment response before the
// client commits to reading the body. Malformed, negative, or absurdly large
// declared sizes are errors, never panics or unbounded allocations.
func ParseSegmentHeader(h http.Header) (SegmentHeader, error) {
	cl := strings.TrimSpace(h.Get("Content-Length"))
	if cl == "" {
		return SegmentHeader{ContentLength: -1}, nil
	}
	n, err := strconv.ParseInt(cl, 10, 64)
	if err != nil {
		return SegmentHeader{}, fmt.Errorf("httpstream: bad Content-Length %q: %w", cl, err)
	}
	if n < 0 {
		return SegmentHeader{}, fmt.Errorf("httpstream: negative Content-Length %d", n)
	}
	if n > maxSegmentBytes {
		return SegmentHeader{}, fmt.Errorf("httpstream: declared segment size %d exceeds cap %d", n, maxSegmentBytes)
	}
	return SegmentHeader{ContentLength: n}, nil
}
