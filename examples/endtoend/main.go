// End-to-end: an in-process HTTP Ptile server and a streaming client talking
// over a real TCP socket — the networked deployment path that cmd/ptileserver
// and cmd/stream expose as standalone binaries.
package main

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"ptile360/internal/headtrace"
	"ptile360/internal/httpstream"
	"ptile360/internal/lte"
	"ptile360/internal/power"
	"ptile360/internal/sim"
	"ptile360/internal/video"
)

func main() {
	if err := run(); err != nil {
		slog.Error("endtoend failed", "err", err)
		os.Exit(1)
	}
}

func run() error {
	// Server side: prepare video 2's catalogue.
	p, err := video.ProfileByID(2)
	if err != nil {
		return err
	}
	gcfg := headtrace.DefaultGeneratorConfig()
	gcfg.NumUsers = 16
	ds, err := headtrace.Generate(p, gcfg, 42)
	if err != nil {
		return err
	}
	prep, err := sim.PrepareVideo(ds, 12, 42, 0)
	if err != nil {
		return err
	}
	srv, err := httpstream.NewServer(map[int]*sim.Catalog{2: prep.Catalog},
		video.DefaultEncoderConfig(), []float64{30, 27, 24, 21})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpServer := &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()
	defer func() {
		if err := httpServer.Close(); err != nil {
			slog.Error("server close failed", "err", err)
		}
		<-serveErr // wait for the serve goroutine to exit
	}()
	baseURL := "http://" + ln.Addr().String()
	fmt.Printf("ptile server listening on %s\n", baseURL)

	// Client side: stream 20 segments shaped to the LTE trace 2 (highly
	// time-compressed so the example finishes quickly).
	_, tr2, err := lte.StandardTraces(120, 99)
	if err != nil {
		return err
	}
	client, err := httpstream.NewClient(httpstream.ClientConfig{
		BaseURL:         baseURL,
		Phone:           power.Pixel3,
		Shape:           tr2,
		TimeCompression: 100,
		MaxSegments:     20,
		UseMPC:          true,
	})
	if err != nil {
		return err
	}
	report, err := client.Stream(2, prep.Eval[0])
	if err != nil {
		return err
	}

	fmt.Printf("\nstreamed %d segments over HTTP:\n", len(report.Segments))
	for _, rec := range report.Segments[:5] {
		fmt.Printf("  seg %2d: q%d @ %2.0f fps, %4.0f kB, %.2f Mbps, ptile=%v\n",
			rec.Segment, rec.Quality, rec.FrameRate,
			float64(rec.Bytes)/1e3, rec.ThroughputBps/1e6, rec.FromPtile)
	}
	fmt.Printf("  ... (%d more)\n", len(report.Segments)-5)
	fmt.Printf("\ntotals: %.1f MB downloaded, %.1f J, %d/%d Ptile-served\n",
		float64(report.TotalBytes)/1e6, report.TotalEnergyMJ/1e3,
		report.PtileSegments, len(report.Segments))
	return nil
}
