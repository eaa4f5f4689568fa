package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		MetricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// BENCHMARK.json must declare exactly the metrics and workloads the
// program reports.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	var bf benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bf)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("workloads %v, program runs %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("workloads %v, program runs %v", names, want)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d reported", len(bf.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range bf.EndToEnd {
		if m.MetricDef != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, program reports %+v", i, m.MetricDef, endToEnd[i])
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d reported", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, program reports %+v", i, m, perLayer[i])
		}
	}
}

// layers.json must map every per-layer metric, once, onto known
// workloads and end-to-end metrics.
func TestLayerMapCoversEveryMetric(t *testing.T) {
	var lm struct {
		PerLayer []struct {
			Metric    string              `json:"metric"`
			Layer     string              `json:"layer"`
			Workloads []string            `json:"workloads"`
			Moves     map[string][]string `json:"moves"`
		} `json:"per_layer"`
		NoMove []struct {
			PerLayer []string `json:"per_layer"`
			EndToEnd []string `json:"end_to_end"`
			On       []string `json:"on"`
		} `json:"no_move"`
	}
	readJSON(t, "layers.json", &lm)
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.Name] = true
	}
	known := func(where string, ws []string) {
		for _, w := range ws {
			if workloads[w] == nil {
				t.Errorf("%s: unknown workload %q", where, w)
			}
		}
	}
	seen := map[string]bool{}
	for _, m := range lm.PerLayer {
		if !declared[m.Metric] || seen[m.Metric] {
			t.Errorf("layers.json: %q is undeclared or repeated", m.Metric)
		}
		seen[m.Metric] = true
		known(m.Metric, m.Workloads)
		for target, ws := range m.Moves {
			if !e2e[target] {
				t.Errorf("%s moves unknown end-to-end metric %q", m.Metric, target)
			}
			known(m.Metric, ws)
		}
	}
	for name := range declared {
		if !seen[name] {
			t.Errorf("layers.json does not map %q", name)
		}
	}
	for _, nm := range lm.NoMove {
		known("no_move", nm.On)
		for _, m := range nm.PerLayer {
			if !declared[m] {
				t.Errorf("no_move names undeclared %q", m)
			}
		}
		for _, m := range nm.EndToEnd {
			if !e2e[m] {
				t.Errorf("no_move names unknown end-to-end metric %q", m)
			}
		}
	}
}
