package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the repository's benchmark definition.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	var b benchmarkJSON
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// The harness and BENCHMARK.json must name the same workloads and metrics
// with the same units.
func TestDefinitionMatchesHarness(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, harness %s", got, want)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, harness %d", len(b.EndToEnd), len(endToEnd))
	}
	for i := 0; i < len(b.EndToEnd) && i < len(endToEnd); i++ {
		if m := b.EndToEnd[i]; m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], harness %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, harness %d", len(b.PerLayer), len(perLayer))
	}
	for i := 0; i < len(b.PerLayer) && i < len(perLayer); i++ {
		if m := b.PerLayer[i]; m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], harness %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// Every workload runs at smoke scale through the same code paths as the
// real benchmark, untraced and traced: its checks pass and its summary
// names every metric of BENCHMARK.json with its unit.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", name, "-seed", "1", "-seconds", "1", "-scale", "smoke",
					"-trace", trace, "-trace-out", filepath.Join(t.TempDir(), "spans.jsonl")}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var s summary
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
					t.Fatalf("last line is not a summary: %v", err)
				}
				if !s.Correct || s.Attempted < 1 || s.Failed != 0 {
					t.Errorf("summary: correct %v, attempted %d, failed %d", s.Correct, s.Attempted, s.Failed)
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				for metric, unit := range want {
					got, ok := s.Metrics[metric]
					if !ok {
						t.Errorf("metric %s missing", metric)
					} else if got.Unit != unit {
						t.Errorf("metric %s unit %q, want %q", metric, got.Unit, unit)
					}
				}
				if len(s.Metrics) != len(want) {
					t.Errorf("summary has %d metrics, want %d", len(s.Metrics), len(want))
				}
				if trace == "0" {
					for metric, v := range s.Metrics {
						if !(v.Value > 0) {
							t.Errorf("end-to-end metric %s = %v, want > 0", metric, v.Value)
						}
					}
				}
			})
		}
	}
}
