package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"testing"
)

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) (endToEndSpec, perLayerSpec []specMetric) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

// TestWorkloads runs every workload at reduced size, untraced and traced,
// and checks what a run promises: the result line carries every metric
// BENCHMARK.json lists, with its unit; no trial fails; and the traced run
// reproduces the untraced digest.
func TestWorkloads(t *testing.T) {
	e2e, layers := readSpec(t)
	const seed = 7 // no committed digest: sizes are reduced
	for _, w := range workloads(true) {
		t.Run(w.name, func(t *testing.T) {
			var digest uint64
			for _, tracing := range []bool{false, true} {
				res, err := measure(w, seed, 0, tracing)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				code := report(w, seed, tracing, res, &out, io.Discard)
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var line resultLine
				if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
					t.Fatalf("traced=%v: last line: %v", tracing, err)
				}
				if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Fatalf("traced=%v: exit %d, correct %v, %d of %d trials failed: %v",
						tracing, code, line.Correct, line.Failed, line.Attempted, res.firstErr)
				}
				want := e2e
				if tracing {
					want = layers
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, BENCHMARK.json lists %d", tracing, len(line.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := line.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %s", tracing, m.Name, got, m.Unit)
					}
				}
				if tracing && res.digest != digest {
					t.Errorf("traced run's digest %016x, untraced %016x", res.digest, digest)
				}
				digest = res.digest
			}
		})
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{10, 10.1, 10.2, 10.3, 10.4}
	for _, tc := range []struct {
		name        string
		b           []float64
		lowerBetter bool
		want        string
	}{
		{"same", a, true, "within bound"},
		{"slower", []float64{12, 12.1, 12.2, 12.3, 12.4}, true, "worse"},
		{"faster when higher is better", []float64{12, 12.1, 12.2, 12.3, 12.4}, false, "within bound"},
		{"lower when higher is better", []float64{8, 8.1, 8.2, 8.3, 8.4}, false, "worse"},
		{"noisy", []float64{6, 9, 10, 14, 20}, true, "unresolved"},
		{"noisy but every run better", []float64{3, 5, 6, 8, 9.9}, true, "within bound"},
	} {
		if got := verdict(a, tc.b, tc.lowerBetter, 0.1); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
