package main

import (
	"fmt"
	"regexp"
	"sort"
)

// metricSpec names one reported metric and its unit. The two catalogs below
// are mirrored in BENCHMARK.json (TestCatalogMatchesBenchmarkJSON).
type metricSpec struct {
	name, unit string
}

// endToEnd is what an untraced run reports, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
	{"ok_pct", "%"},
}

// perLayer is what a traced run reports, on every workload. A metric whose
// layer the workload does not run reads 0; each workload's layers list
// names the metrics that apply to it.
var perLayer = []metricSpec{
	{"loadgen.cpu_us_per_op", "us"},
	{"setup.load_s", "s"},
	{"setup.build_s", "s"},
	{"setup.ready_s", "s"},
	{"session.restore_s", "s"},
	{"session.restore_mb_per_s", "MB/s"},
	{"server.handler_us_mean", "us"},
	{"server.transport_us_mean", "us"},
	{"server.req_kb_per_op", "KB"},
	{"server.cpu_us_per_op", "us"},
	{"server.alloc_kb_per_op", "KB"},
	{"server.gc_pause_ms", "ms"},
	{"serve.queue_wait_us_mean", "us"},
	{"serve.timeout_flush_share", "ratio"},
	{"serve.rows_per_flush", "count"},
	{"serve.rejected", "count"},
	{"core.propagate_us_per_row", "us"},
	{"core.l0.affine_us", "us"},
	{"core.l0.activation_us", "us"},
	{"core.l1.affine_us", "us"},
	{"core.l1.activation_us", "us"},
	{"core.l2.affine_us", "us"},
	{"core.l2.activation_us", "us"},
	{"core.activation_share", "ratio"},
	{"core.b1_interp_us", "us"},
	{"core.b1_compiled_us", "us"},
	{"core.b64_interp_us_per_row", "us"},
	{"core.b64_compiled_us_per_row", "us"},
	{"core.scratch_hit_ratio", "ratio"},
	{"session.ingest_self_us_mean", "us"},
	{"session.predict_us_mean", "us"},
	{"session.windows_per_kop", "count"},
	{"session.bytes_per_session", "B"},
	{"session.escalate_share", "ratio"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill builds the result metrics for catalog from vals. Every catalog
// metric must be present in vals and vals must hold nothing else, so a
// workload cannot silently drop or invent a metric.
func fill(catalog []metricSpec, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(catalog))
	for _, m := range catalog {
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if len(vals) != len(catalog) {
		var extra []string
		for k := range vals {
			if _, ok := out[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics outside the catalog: %v", extra)
	}
	return out, nil
}
