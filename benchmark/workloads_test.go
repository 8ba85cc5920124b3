package main

import (
	"encoding/json"
	"os"
	"testing"
)

// Every workload runs end to end at smoke scale, untraced and traced, and
// reports exactly the metrics BENCHMARK.json names with every correctness
// check passing.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{seed: 11, seconds: 0.2, smoke: true}
				defs, gated := endToEnd, true
				if traced {
					cfg.tr, defs, gated = newTracer(), perLayer, false
				}
				r, err := w.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				r.check(defs, gated)
				for _, p := range r.problems {
					t.Errorf("failed check: %s", p)
				}
				if r.attempted < 1 || r.failed != 0 {
					t.Errorf("attempted %d, failed %d", r.attempted, r.failed)
				}
				if traced {
					if err := cfg.tr.write(t.TempDir(), r, cfg.seed); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

// BENCHMARK.json at the repository root and the tables in report.go and
// main.go must name the same workloads and metrics.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, gated bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the harness", kind, i, m, d)
			}
			switch {
			case gated && (m.Bound == nil || *m.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the harness", m.Name, m.Bound, d.Bound)
			case !gated && m.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", m.Name)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(spec.PerLayer))
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths %v", spec.Paths)
	}
}
