package main

import (
	"encoding/json"
	"os"
	"testing"
)

// quickConfig is the smoke configuration: every workload at 1/50 op count
// and 1/16 key space, oracle and durability pass still on, nothing timed
// against a bound.
func quickConfig(t *testing.T, workload string) config {
	return config{workload: workload, seed: 1, seconds: 1, quick: true, outDir: t.TempDir()}
}

// TestQuick keeps the benchmark compiling and correct (`go test -C benchmark .`): each
// workload must run clean against its oracle, report every end-to-end
// metric as non-zero, and in the traced run report every per-layer metric.
func TestQuick(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := quickConfig(t, w.Name)
			r, err := runOne(cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			if r.tally.attempted == 0 {
				t.Fatal("no operation attempted")
			}
			cfg.trace = true
			r, err = runOne(cfg, false)
			if err != nil {
				t.Fatalf("traced run: %v", err)
			}
			for name := range r.layer {
				if !hasMetric(perLayer, name) {
					t.Errorf("traced run reports %q, which the per-layer table does not list", name)
				}
			}
		})
	}
}

// TestBrokenOracleFails corrupts the oracle's expectations: every workload
// must then count failures, name the first offender, and fail the run.
func TestBrokenOracleFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := quickConfig(t, w.Name)
			cfg.breakOracle = true
			r, err := runOne(cfg, false)
			if err == nil {
				t.Fatal("run with a broken oracle succeeded")
			}
			if r == nil || r.tally.failed == 0 || r.tally.first == "" {
				t.Fatalf("broken oracle not reported: %+v (%v)", r, err)
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// names exactly the workloads and metrics this package reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []workloadDef `json:"workloads"`
		EndToEnd  []metricDef   `json:"end_to_end"`
		PerLayer  []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, doc.Workloads[i].Name, w.Name)
		}
	}
	compare := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the benchmark has %d", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer)
}
