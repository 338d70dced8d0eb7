package httpstream

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// FuzzManifestJSON exercises the client's manifest decode path with
// arbitrary server responses: truncated JSON, absurd sizes, negative
// fields, trailing garbage. The contract is errors, never panics — and any
// accepted manifest must re-validate cleanly.
func FuzzManifestJSON(f *testing.F) {
	valid := Manifest{
		VideoID:    2,
		SegmentSec: 1,
		Segments: []SegmentMetaJSON{
			{SI: 40, TI: 20, Jitter: 1, Ptiles: []RectJSON{{X0: 10, Y0: 30, W: 120, H: 90}}},
			{SI: 55, TI: 25, Jitter: 1},
		},
		Qualities:  5,
		FrameRates: []float64{30, 27, 24, 21},
		SourceFPS:  30,
		GridRows:   4,
		GridCols:   8,
	}
	validJSON, err := json.Marshal(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(validJSON)
	f.Add(validJSON[:len(validJSON)/2]) // truncated mid-document
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"video_id":-1}`))
	f.Add([]byte(`{"segment_sec":-5,"segments":[{}]}`))
	f.Add([]byte(`{"segment_sec":1e308,"segments":[{}],"frame_rates":[30],"source_fps":30}`))
	f.Add([]byte(`{"segment_sec":1,"segments":[{"si":-1}],"frame_rates":[30],"source_fps":30}`))
	f.Add([]byte(`{"segment_sec":1,"segments":[{"ptiles":[{"w":-10,"h":5}]}],"frame_rates":[30],"source_fps":30}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add(append(append([]byte{}, validJSON...), []byte(`{"trailing":"garbage"}`)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(bytes.NewReader(data))
		if err != nil {
			return // rejected is fine; panicking is not
		}
		// Anything accepted must satisfy the documented invariants.
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted manifest fails Validate: %v", err)
		}
		if len(m.Segments) == 0 || m.SegmentSec <= 0 {
			t.Fatalf("accepted manifest violates basic invariants: %+v", m)
		}
		// Round-tripping an accepted manifest must stay accepted.
		again, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("accepted manifest fails to re-encode: %v", err)
		}
		if _, err := DecodeManifest(bytes.NewReader(again)); err != nil {
			t.Fatalf("re-encoded manifest rejected: %v", err)
		}
	})
}

// FuzzSegmentHeader exercises the segment-response header gate with
// arbitrary Content-Length values: whitespace, signs, overflow, absurd
// sizes. Accepted values must be within [0, maxSegmentBytes] or the unknown
// sentinel -1.
func FuzzSegmentHeader(f *testing.F) {
	f.Add("1024")
	f.Add("")
	f.Add("  42  ")
	f.Add("-1")
	f.Add("+7")
	f.Add("99999999999999999999999999")
	f.Add("0x10")
	f.Add("1e9")
	f.Add("1073741824") // exactly the cap
	f.Add("1073741825") // one past the cap
	f.Add("12 34")      // embedded whitespace
	f.Add("\x00\xff")   // binary garbage
	f.Add(strings.Repeat("9", 1000))

	f.Fuzz(func(t *testing.T, cl string) {
		h := http.Header{}
		if cl != "" {
			h.Set("Content-Length", cl)
		}
		hdr, err := ParseSegmentHeader(h)
		if err != nil {
			return
		}
		if hdr.ContentLength < -1 {
			t.Fatalf("accepted header with length %d", hdr.ContentLength)
		}
		if hdr.ContentLength > maxSegmentBytes {
			t.Fatalf("accepted absurd length %d above cap %d", hdr.ContentLength, int64(maxSegmentBytes))
		}
	})
}

// FuzzSegmentRequest drives the segment handler with arbitrary seg, q, f,
// ptile, cx and cy strings, seeded from TestServerBadInputTable's segment
// rows. It must never panic and must answer 200 or 4xx; a 200 writes
// exactly its Content-Length, at least one byte.
func FuzzSegmentRequest(f *testing.F) {
	keys := []string{"seg", "q", "f", "ptile", "cx", "cy"}
	for _, tc := range badInputCases {
		u, err := url.Parse(tc.path)
		if err != nil {
			f.Fatal(err)
		}
		if u.Path != "/segment" {
			continue
		}
		qy := u.Query()
		f.Add(qy.Get(keys[0]), qy.Get(keys[1]), qy.Get(keys[2]), qy.Get(keys[3]), qy.Get(keys[4]), qy.Get(keys[5]))
	}
	handler := newHarness(f).server.Config.Handler

	f.Fuzz(func(t *testing.T, seg, q, fr, ptile, cx, cy string) {
		qy := url.Values{"video": {"2"}}
		for i, v := range []string{seg, q, fr, ptile, cx, cy} {
			if v != "" {
				qy.Set(keys[i], v)
			}
		}
		w := &countingWriter{ResponseWriter: &discardWriter{h: http.Header{}}}
		handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/segment?"+qy.Encode(), nil))
		switch cl := w.Header().Get("Content-Length"); {
		case w.code == http.StatusOK:
			if n, err := strconv.ParseInt(cl, 10, 64); err != nil || n < 1 || n != w.bytes {
				t.Fatalf("%s: 200 with Content-Length %q and %d body bytes", qy.Encode(), cl, w.bytes)
			}
		case w.code < 400 || w.code >= 500:
			t.Fatalf("%s: status %d, want 200 or 4xx", qy.Encode(), w.code)
		}
	})
}
