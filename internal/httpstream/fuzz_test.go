package httpstream

import (
	"bytes"
	"encoding/json"
	"net/http"
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
