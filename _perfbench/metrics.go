package main

import (
	"fmt"
	"sort"

	"wearwild/internal/mnet/proxylog"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract and match BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"records_per_s", "1/s"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MiB"},
	{"peak_heap_mb", "MiB"},
}

// perLayer is what a traced run reports, on every workload.
var perLayer = append([]metricDef{
	{"gen.substrate_ms", "ms"},
	{"gen.user_ms", "ms"},
	{"gen.generate_ms", "ms"},
	{"gen.merge_sort_ms", "ms"},
	{"gen.records", "count"},
	{"gen.users", "count"},
	{"gen.ns_per_record", "ns"},
	{"gen.parallel_speedup", "x"},
	{"gen.alloc_mb", "MiB"},

	{"cells.nearest_ns", "ns"},
	{"cells.nearest_mismatch", "count"},

	{"proxylog.encode_ms", "ms"},
	{"mme.encode_ms", "ms"},
	{"udr.encode_ms", "ms"},
	{"proxylog.decode_ms", "ms"},
	{"mme.decode_ms", "ms"},
	{"udr.decode_ms", "ms"},
	{"codec.file_mb", "MiB"},

	{"stream.logs_ms", "ms"},

	{"core.route_ms", "ms"},
	{"core.evict_ms", "ms"},
	{"core.finalize_ms", "ms"},
	{"core.records_routed", "count"},
	{"core.users_evicted", "count"},
	{"core.evict_us_per_user", "us"},
	{"core.handoff_wait_ms", "ms"},
	{"core.parallel_speedup", "x"},
	{"core.alloc_mb", "MiB"},

	{"experiments.evaluate_ms", "ms"},
	{"experiments.in_band", "count"},
	{"report.render_ms", "ms"},

	{"replay.flows", "count"},
	{"replay.op_p99_ms", "ms"},
	{"replay.tls_op_p50_ms", "ms"},
	{"replay.http_op_p50_ms", "ms"},
	{"netproxy.flow_p50_ms", "ms"},
	{"netproxy.flow_p99_ms", "ms"},
	{"replay.uncaptured", "count"},
	{"replay.log_lag_ms", "ms"},
	{"replay.host_match_ratio", "ratio"},
	{"netproxy.relayed_mb", "MiB"},

	{"runtime.gc_cycles_per_op", "count"},

	{"trace.op_p50_ms", "ms"},
	{"trace.untraced_op_p50_ms", "ms"},
	{"trace.overhead", "ratio"},
	{"trace.layer_coverage", "ratio"},
}, dropMetrics()...)

// dropMetrics names one counter per proxy drop reason.
func dropMetrics() []metricDef {
	var defs []metricDef
	for d := proxylog.DropReason(1); d < proxylog.NumDropReasons; d++ {
		defs = append(defs, metricDef{"netproxy.drop." + d.String(), "count"})
	}
	return defs
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// collect checks that values holds exactly the metrics defs names and
// attaches their units.
func collect(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for name := range values {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics outside the contract: %v", extra)
	}
	return out, nil
}
