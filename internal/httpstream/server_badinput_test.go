package httpstream

import (
	"net/http"
	"testing"
)

// badInputCases are the server's malformed-query paths plus well-formed
// sanity requests, with the status each must answer. FuzzSegmentRequest
// seeds from the segment rows.
var badInputCases = []struct {
	name string
	path string
	want int
}{
	// catalogFor (shared by /manifest and /segment).
	{"manifest missing video", "/manifest", http.StatusBadRequest},
	{"manifest non-numeric video", "/manifest?video=abc", http.StatusBadRequest},
	{"manifest negative video", "/manifest?video=-1", http.StatusBadRequest},
	{"manifest overflow video", "/manifest?video=99999999999999999999999", http.StatusBadRequest},
	{"manifest float video", "/manifest?video=2.5", http.StatusBadRequest},
	{"manifest unknown video", "/manifest?video=99", http.StatusNotFound},
	{"segment missing video", "/segment?seg=0&q=3&cx=180&cy=90", http.StatusBadRequest},
	{"segment negative video", "/segment?video=-7&seg=0&q=3&cx=180&cy=90", http.StatusBadRequest},

	// Segment index.
	{"seg missing", "/segment?video=2&q=3&cx=180&cy=90", http.StatusBadRequest},
	{"seg non-numeric", "/segment?video=2&seg=abc&q=3&cx=180&cy=90", http.StatusBadRequest},
	{"seg negative", "/segment?video=2&seg=-1&q=3&cx=180&cy=90", http.StatusBadRequest},
	{"seg past end", "/segment?video=2&seg=100000&q=3&cx=180&cy=90", http.StatusBadRequest},
	{"seg overflow", "/segment?video=2&seg=99999999999999999999999&q=3&cx=180&cy=90", http.StatusBadRequest},

	// Quality.
	{"q missing", "/segment?video=2&seg=0&cx=180&cy=90", http.StatusBadRequest},
	{"q zero", "/segment?video=2&seg=0&q=0&cx=180&cy=90", http.StatusBadRequest},
	{"q negative", "/segment?video=2&seg=0&q=-3&cx=180&cy=90", http.StatusBadRequest},
	{"q too high", "/segment?video=2&seg=0&q=6&cx=180&cy=90", http.StatusBadRequest},
	{"q non-numeric", "/segment?video=2&seg=0&q=high&cx=180&cy=90", http.StatusBadRequest},
	{"q overflow", "/segment?video=2&seg=0&q=99999999999999999999999&cx=180&cy=90", http.StatusBadRequest},

	// Frame rate.
	{"f NaN", "/segment?video=2&seg=0&q=3&f=NaN&cx=180&cy=90", http.StatusBadRequest},
	{"f +Inf", "/segment?video=2&seg=0&q=3&f=%2BInf&cx=180&cy=90", http.StatusBadRequest},
	{"f -Inf", "/segment?video=2&seg=0&q=3&f=-Inf&cx=180&cy=90", http.StatusBadRequest},
	{"f negative", "/segment?video=2&seg=0&q=3&f=-30&cx=180&cy=90", http.StatusBadRequest},
	{"f absurd", "/segment?video=2&seg=0&q=3&f=1e9&cx=180&cy=90", http.StatusBadRequest},
	{"f non-numeric", "/segment?video=2&seg=0&q=3&f=fast&cx=180&cy=90", http.StatusBadRequest},
	{"f off ladder ptile", "/segment?video=2&seg=0&q=3&f=25&ptile=0", http.StatusBadRequest},
	{"f between rungs ptile", "/segment?video=2&seg=0&q=3&f=30.5&ptile=0", http.StatusBadRequest},
	{"f off ladder conventional", "/segment?video=2&seg=0&q=3&f=25&cx=180&cy=90", http.StatusBadRequest},
	{"f between rungs conventional", "/segment?video=2&seg=0&q=3&f=30.5&cx=180&cy=90", http.StatusBadRequest},
	{"f zero ptile", "/segment?video=2&seg=0&q=3&f=0&ptile=0", http.StatusOK},

	// Ptile index.
	{"ptile non-numeric", "/segment?video=2&seg=0&q=3&ptile=abc", http.StatusBadRequest},
	{"ptile negative", "/segment?video=2&seg=0&q=3&ptile=-1", http.StatusBadRequest},
	{"ptile past end", "/segment?video=2&seg=0&q=3&ptile=100000", http.StatusBadRequest},
	{"ptile overflow", "/segment?video=2&seg=0&q=3&ptile=99999999999999999999999", http.StatusBadRequest},

	// Viewport center (conventional request).
	{"center missing", "/segment?video=2&seg=0&q=3", http.StatusBadRequest},
	{"cx missing", "/segment?video=2&seg=0&q=3&cy=90", http.StatusBadRequest},
	{"cy missing", "/segment?video=2&seg=0&q=3&cx=180", http.StatusBadRequest},
	{"cx NaN", "/segment?video=2&seg=0&q=3&cx=NaN&cy=90", http.StatusBadRequest},
	{"cy NaN", "/segment?video=2&seg=0&q=3&cx=180&cy=NaN", http.StatusBadRequest},
	{"cx Inf", "/segment?video=2&seg=0&q=3&cx=Inf&cy=90", http.StatusBadRequest},
	{"cy -Inf", "/segment?video=2&seg=0&q=3&cx=180&cy=-Inf", http.StatusBadRequest},
	{"cx out of range", "/segment?video=2&seg=0&q=3&cx=1e300&cy=90", http.StatusBadRequest},
	{"cy out of range", "/segment?video=2&seg=0&q=3&cx=180&cy=-1e300", http.StatusBadRequest},
	{"cx non-numeric", "/segment?video=2&seg=0&q=3&cx=left&cy=90", http.StatusBadRequest},

	// Sanity: well-formed requests still work.
	{"good manifest", "/manifest?video=2", http.StatusOK},
	{"good conventional segment", "/segment?video=2&seg=0&q=3&cx=180&cy=90", http.StatusOK},
	{"good ptile segment", "/segment?video=2&seg=0&q=3&f=24&ptile=0", http.StatusOK},
}

// TestServerBadInputTable drives every malformed-query path of the server:
// negative, non-numeric, NaN/Inf, overflow and off-ladder values must all
// die with a 4xx instead of falling through into the catalogue or the size
// model.
func TestServerBadInputTable(t *testing.T) {
	h := newHarness(t)
	for _, tc := range badInputCases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(h.server.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.want)
			}
		})
	}
}
