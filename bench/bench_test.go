package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesHarness keeps the contract file and the program
// from drifting: same workloads, same metrics, same units, same bounds.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, harness default %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, harness %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, harness %+v", i, got, m)
		}
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if got := bf.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, harness %+v", i, got, m)
		}
	}
}

// wantKinds is what each workload's op list must exercise.
var wantKinds = map[string][]string{
	"solve_bound": {kindQuery},
	"scan_bound":  {kindQuery},
	"serve_mixed": {kindQuery, kindCold, kindDelta},
	"delta_churn": {kindDeltaMiss, kindDeltaPrice, kindDeltaVG, kindDeltaFeature, kindDeltaDelete},
}

// TestSmokeWorkloads runs every workload at tiny sizes for two rounds: every
// op kind runs, no op fails, the determinism guards hold and every
// end-to-end metric comes out positive.
func TestSmokeWorkloads(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			p := def.build(smokeSizes, 1)
			have := map[string]bool{}
			for _, script := range p.scripts {
				for _, o := range script {
					have[o.kind] = true
				}
			}
			for _, k := range wantKinds[def.name] {
				if !have[k] {
					t.Errorf("op list has no %s op", k)
				}
			}
			rep, err := measure(def, smokeSizes, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if rep.guardErr != nil {
				t.Error(rep.guardErr)
			}
			if rep.failed != 0 || rep.attempted != 2*p.opCount() {
				t.Errorf("attempted %d failed %d, want %d and 0: %v", rep.attempted, rep.failed, 2*p.opCount(), rep.failures)
			}
			for _, m := range endToEnd {
				if got, ok := rep.metrics[m.name]; !ok || !(got.Value > 0) || got.Unit != m.unit {
					t.Errorf("metric %s = %+v, want a positive value in %s", m.name, got, m.unit)
				}
			}
		})
	}
}

// TestSmokeTrace makes the traced run of every workload: every per-layer
// metric is reported, the span file parses, and no span's children outlast
// it (self time is never negative).
func TestSmokeTrace(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.json")
			rep, err := traced(def, smokeSizes, 1, path)
			if err != nil {
				t.Fatal(err)
			}
			if rep.guardErr != nil || rep.failed != 0 {
				t.Errorf("guard %v, failures %v", rep.guardErr, rep.failures)
			}
			for _, m := range layerMetrics {
				if got, ok := rep.metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("metric %s = %+v, want unit %s", m.name, got, m.unit)
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 || tf.Workload != def.name {
				t.Fatalf("trace file holds %d spans of workload %q", len(tf.Spans), tf.Workload)
			}
			children := map[int]int64{}
			for _, s := range tf.Spans {
				if s.EndNS < s.StartNS {
					t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
				}
				children[s.Parent] += s.EndNS - s.StartNS
			}
			for _, s := range tf.Spans {
				if c := children[s.ID]; c > s.EndNS-s.StartNS {
					t.Errorf("children of span %d %s take %d ns, the span %d ns", s.ID, s.Name, c, s.EndNS-s.StartNS)
				}
			}
			for _, n := range tf.ByName {
				if n.SelfMS < 0 || n.SelfMS > n.TotalMS {
					t.Errorf("%s: self %.3f ms of total %.3f ms", n.Name, n.SelfMS, n.TotalMS)
				}
			}
		})
	}
}

// TestResultLine checks the contract's last line: one JSON object with
// exactly the four keys, the end-to-end metrics untraced and the per-layer
// ones traced.
func TestResultLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "delta_churn", "--seed", "3", "--seconds", "1", "--trace", trace, "-smoke",
			"-trace-out", filepath.Join(t.TempDir(), "trace.json")}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit code %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(got) != 4 {
			t.Errorf("last line has keys %v, want correct, attempted, failed, metrics", got)
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		want := len(endToEnd)
		if trace == "1" {
			want = len(layerMetrics)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != want {
			t.Errorf("trace=%s: correct=%t attempted=%d failed=%d metrics=%d, want %d metrics", trace, res.Correct, res.Attempted, res.Failed, len(res.Metrics), want)
		}
	}
}
