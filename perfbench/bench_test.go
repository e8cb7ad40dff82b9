package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables the program
// prints in step with the ones BENCHMARK.json declares.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	defs := func(ms []struct{ Name, Unit string }) []metricDef {
		var out []metricDef
		for _, m := range ms {
			out = append(out, metricDef{m.Name, m.Unit})
		}
		return out
	}
	if got := defs(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, program prints %v", got, endToEnd)
	}
	if got := defs(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json = %v, program prints %v", got, perLayer)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q in BENCHMARK.json is not in the program", w.Name)
		}
	}
}

func runOnce(t *testing.T, workload string, seed int64) *workloadResult {
	t.Helper()
	r, err := workloads[workload](runConfig{seed: seed, seconds: 0.5, rounds: 1, dir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if r.failed != 0 || len(r.mismatches) != 0 {
		t.Fatalf("%s seed %d: %d failed: %v", workload, seed, r.failed, r.mismatches)
	}
	return r
}

// TestDeterministicCounts: at one seed the as-of counts of rewind and the
// redo volume of recovery repeat exactly; another seed changes the inputs
// and still passes every check.
func TestDeterministicCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two TPC-C histories per workload")
	}
	counts := map[string][]string{
		"rewind": {"asof.records_undone_per_page", "asof.pages_prepared_per_scan",
			"asof.image_restores_per_page", "asof.side_pages_per_snapshot"},
		"recovery": {"recovery.redo_mib"},
	}
	for workload, names := range counts {
		a, b, c := runOnce(t, workload, 7), runOnce(t, workload, 7), runOnce(t, workload, 8)
		changed := false
		for _, name := range names {
			if a.layer[name] == 0 {
				t.Errorf("%s: %s is 0", workload, name)
			}
			if a.layer[name] != b.layer[name] {
				t.Errorf("%s: %s = %v, then %v at the same seed", workload, name, a.layer[name], b.layer[name])
			}
			changed = changed || a.layer[name] != c.layer[name]
		}
		if !changed {
			t.Errorf("%s: seed 8 gives the same counts as seed 7 %v", workload, names)
		}
	}
}
