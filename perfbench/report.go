package main

import (
	"math"
	"sort"
)

// metric is one named, unit-carrying figure of a run.
type metric struct {
	name  string
	value float64
	unit  string
}

type metricSet []metric

// outcome is one workload run's result before encoding.
type outcome struct {
	metrics    metricSet
	attempted  int64
	failed     int64
	violations []error
}

// endToEndUnits lists every end-to-end metric with its unit, in report
// order; each workload reports all of them with tracing off.
var endToEndUnits = []metric{
	{name: "ops_per_s", unit: "1/s"},
	{name: "latency_p50_us", unit: "us"},
	{name: "latency_p90_us", unit: "us"},
	{name: "ok_ratio", unit: "ratio"},
	{name: "cpu_us_per_op", unit: "us"},
	{name: "heap_live_mb", unit: "MB"},
	{name: "setup_s", unit: "s"},
}

// perLayerUnits lists every per-layer metric with its unit, in report
// order. A traced run reports all of them; a layer that is not on a
// workload's path reads 0 there (the simulator has no UDP transport, the
// host path no simulator).
var perLayerUnits = func() []metric {
	m := []metric{
		{name: "transport.datagrams_per_op", unit: "count"},
	}
	for _, c := range typeClasses {
		m = append(m, metric{name: "transport.datagrams_per_op." + c, unit: "count"})
	}
	m = append(m,
		metric{name: "transport.bytes_per_op", unit: "B"},
		metric{name: "transport.send_ns", unit: "ns"},
		metric{name: "transport.inbox_wait_us.p50", unit: "us"},
		metric{name: "transport.inbox_wait_us.p90", unit: "us"},
		metric{name: "transport.inbox_drops", unit: "count"},
		metric{name: "transport.udp_backpressure", unit: "count"},
		metric{name: "core.primary_busy_ratio", unit: "ratio"},
		metric{name: "core.backup_busy_ratio", unit: "ratio"},
		metric{name: "core.handler_us_per_op", unit: "us"},
	)
	for _, c := range typeClasses {
		m = append(m, metric{name: "core.handler_ns." + c, unit: "ns"})
	}
	m = append(m,
		metric{name: "core.timer_us_per_op", unit: "us"},
		metric{name: "core.ops_per_batch", unit: "count"},
		metric{name: "core.read_only_share", unit: "ratio"},
		metric{name: "core.view_changes", unit: "count"},
		metric{name: "core.client_retransmits_per_op", unit: "count"},
		metric{name: "core.stable_checkpoints", unit: "count"},
		metric{name: "core.dropped_messages", unit: "count"},
		metric{name: "core.phase_prepare_us.p50", unit: "us"},
		metric{name: "core.phase_commit_us.p50", unit: "us"},
		metric{name: "core.phase_execute_us.p50", unit: "us"},
		metric{name: "crypto.macs_per_op", unit: "count"},
		metric{name: "crypto.mac_bytes_per_op", unit: "B"},
		metric{name: "crypto.digests_per_op", unit: "count"},
		metric{name: "crypto.digest_bytes_per_op", unit: "B"},
		metric{name: "kvservice.execute_ns", unit: "ns"},
		metric{name: "kvservice.snapshot_ms", unit: "ms"},
		metric{name: "kvservice.snapshot_share", unit: "ratio"},
		metric{name: "simpleservice.execute_ns", unit: "ns"},
		metric{name: "sim.msgs_per_op", unit: "count"},
		metric{name: "sim.bytes_per_op", unit: "B"},
		metric{name: "sim.primary_cpu_busy_ratio", unit: "ratio"},
		metric{name: "sim.drops", unit: "count"},
		metric{name: "bench.replica_handler_wall_ns_per_op", unit: "ns"},
		metric{name: "bench.other_wall_ns_per_op", unit: "ns"},
	)
	for _, p := range []string{"request", "ordering", "prepare", "commit", "execute", "reply"} {
		m = append(m, metric{name: "obs.phase_us." + p, unit: "us"})
	}
	return append(m,
		metric{name: "bft.alloc_bytes_per_op", unit: "B"},
		metric{name: "bft.gc_pause_ms", unit: "ms"},
		metric{name: "norep.ops_per_s", unit: "1/s"},
		metric{name: "e2e.latency_p99_us", unit: "us"},
		metric{name: "e2e.latency_samples", unit: "count"},
		metric{name: "e2e.unavailable_ms", unit: "ms"},
		metric{name: "trace.overhead_pct", unit: "%"},
		metric{name: "trace.ops_per_s_ratio", unit: "ratio"},
	)
}()

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResult builds the result line of out with every metric of want, in
// want's units; a metric of want that out lacks reads 0.
func newResult(out outcome, want []metric) result {
	byName := make(map[string]float64, len(out.metrics))
	for _, m := range out.metrics {
		byName[m.name] = m.value
	}
	res := result{
		Correct:   len(out.violations) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]resultValue, len(want)),
	}
	for _, w := range want {
		v := byName[w.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[w.name] = resultValue{Value: v, Unit: w.unit}
	}
	return res
}

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// median returns the median of xs (which it leaves unchanged).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// perOp divides a count by the number of operations, 0 when there were
// none.
func perOp(v float64, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return v / float64(ops)
}
