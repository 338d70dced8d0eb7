package netem

import (
	"fmt"
	"io"
	"testing"
)

// BenchmarkNetemDownload measures one 4 Mbit segment (334 MTU packets)
// through the packet-level path on the paths the workloads take: a burst
// dump, as the HTTP sessions send, and pace 1.25 on 1 s segments, as the
// netem experiment sends. Each download starts 1 s after the previous one
// ended, so the loop walks the profile's whole schedule.
func BenchmarkNetemDownload(b *testing.B) {
	for _, bc := range []struct {
		profile string
		pace    float64
	}{
		{"stable", 0},
		{"crossflow", 0},
		{"bufferbloat", 0},
		{"bufferbloat", 1.25},
		{"suddendrop", 1.25},
		{"crossflow", 1.25},
	} {
		mode := "burst"
		if bc.pace > 0 {
			mode = fmt.Sprintf("pace%g", bc.pace)
		}
		b.Run(bc.profile+"/"+mode, func(b *testing.B) {
			n, err := NewSessionNet(SessionConfig{Profile: mustProfile(b, bc.profile), Seed: 1, SegmentSec: 1, PaceFactor: bc.pace})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			tWall := 0.0
			for i := 0; i < b.N; i++ {
				dur, err := n.Download(4e6, tWall)
				if err != nil {
					b.Fatal(err)
				}
				tWall += dur + 1
			}
			st := n.Stats()
			b.ReportMetric(float64(st.Packets)/float64(b.N), "packets/op")
			b.ReportMetric(float64(st.Retransmits)/float64(b.N), "retransmits/op")
		})
	}
}

// BenchmarkPacerWrite measures the paced writer on a virtual clock pushing
// a 64 KB chunk (the server's segment write unit).
func BenchmarkPacerWrite(b *testing.B) {
	var now float64
	pw, err := NewPacedWriter(io.Discard, 40e6,
		func() float64 { return now },
		func(sec float64) { now += sec },
		nil)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pw.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConnTransfer moves 500 kB segment bodies across an ideal Pipe:
// the writer's chunk copies and the reader's drain, with no emulated delay.
func BenchmarkConnTransfer(b *testing.B) {
	p, err := Named("ideal")
	if err != nil {
		b.Fatal(err)
	}
	client, server, err := Pipe(p, 1, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	defer server.Close()
	payload := make([]byte, 500_000)
	buf := make([]byte, 64<<10)
	werr := make(chan error, 1)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			if _, err := server.Write(payload); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()
	for got, total := 0, b.N*len(payload); got < total; {
		n, err := client.Read(buf)
		if err != nil {
			b.Fatal(err)
		}
		got += n
	}
	if err := <-werr; err != nil {
		b.Fatal(err)
	}
}
