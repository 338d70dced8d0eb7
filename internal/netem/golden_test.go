package netem

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"ptile360/internal/stats"
)

// sessionNetGoldenSHA256 is the digest TestSessionNetGolden reads: every
// duration, packet sample, Stats() value and error text of its sweep. Any
// change to the packet path that moves one bit moves it.
const sessionNetGoldenSHA256 = "b0c2ecaf447572a10ae146460c6c15562881d398c6349b110e840acd7ea1b3ac"

// goldenProfiles are the paths the golden sweep runs: the built-ins, two
// parsed overrides that add loss, and a hand-built profile whose RTT steps
// from 300 to 50 ms, so retransmissions timed out at 0.6 s and 0.2 s
// interleave out of order.
func goldenProfiles(t testing.TB) []*Profile {
	t.Helper()
	var ps []*Profile
	for _, spec := range []string{
		"ideal", "stable", "bufferbloat", "suddendrop", "crossflow",
		"stable,loss=0.02", "suddendrop,rtt=150,loss=0.01",
	} {
		p, err := ParseProfile(spec)
		if err != nil {
			t.Fatalf("ParseProfile(%q): %v", spec, err)
		}
		ps = append(ps, p)
	}
	return append(ps, &Profile{
		Name: "rttstep",
		Phases: []Phase{
			{StartSec: 0, Params: Params{CapacityBps: Mbps(12), RTTSec: 0.3, QueueBytes: 96 << 10, LossProb: 0.005}},
			{StartSec: 15, Params: Params{CapacityBps: Mbps(12), RTTSec: 0.05, QueueBytes: 96 << 10, LossProb: 0.005}},
		},
		RepeatSec: 30,
	})
}

// TestSessionNetGolden pins every output of SessionNet.Download, bit for
// bit: each golden profile at pace 0, 1.25 and 2 and seeds 1–3 runs 150
// downloads of 0.2–20 Mbit, each starting a random gap of up to 1.5 s
// after the previous one ended (or 1 s after it started, when it failed).
// The sweep covers burst and paced sending, loss, droptail, unbounded
// queues, ramps, cross traffic, RTT steps and failed downloads.
func TestSessionNetGolden(t *testing.T) {
	h := sha256.New()
	var buf []byte
	downloads, failures := 0, 0
	for _, p := range goldenProfiles(t) {
		for _, pace := range []float64{0, 1.25, 2} {
			for seed := int64(1); seed <= 3; seed++ {
				n, err := NewSessionNet(SessionConfig{Profile: p, Seed: seed, SegmentSec: 1, PaceFactor: pace})
				if err != nil {
					t.Fatalf("%s pace %g seed %d: %v", p.Name, pace, seed, err)
				}
				rng := stats.NewRNG(seed)
				at := 0.0
				for i := 0; i < 150; i++ {
					size := 0.2e6 * math.Pow(100, rng.Float64()) // log-uniform, 0.2–20 Mbit
					dur, err := n.Download(size, at)
					downloads++
					buf = buf[:0]
					if err != nil {
						failures++
						buf = append(buf, err.Error()...)
						at++
					} else {
						buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(dur))
						at += dur + rng.Uniform(0, 1.5)
					}
					for _, s := range n.Packets() {
						buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.SendSec))
						buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.RecvSec))
						buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Bytes))
					}
					st := n.Stats()
					for _, v := range []int{st.Packets, st.DropsTail, st.DropsLoss, st.Retransmits, st.Downloads} {
						buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
					}
					h.Write(buf) // a hash.Hash never returns a write error
				}
			}
		}
	}
	digest := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d downloads, %d failed: sha256 %s", downloads, failures, digest)
	if failures == 0 {
		t.Fatal("no download failed: the sweep no longer reaches the link-dead path")
	}
	if digest != sessionNetGoldenSHA256 {
		t.Fatalf("golden digest %s, want %s", digest, sessionNetGoldenSHA256)
	}
}
