package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestContractMatchesBenchmarkJSON keeps the metric tables in this package
// and the repository's BENCHMARK.json the same, name for name and unit for
// unit, in the same order.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(got) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

func TestCollectRejectsDrift(t *testing.T) {
	defs := []metricDef{{"a", "ms"}, {"b", "s"}}
	if _, err := collect(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := collect(defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("extra metric accepted")
	}
	got, err := collect(defs, map[string]float64{"a": 1, "b": 2})
	if err != nil || got["b"] != (metric{2, "s"}) {
		t.Errorf("collect = %v, %v", got, err)
	}
}
