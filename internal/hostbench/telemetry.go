package hostbench

import (
	"bytes"
	"testing"
	"time"

	"bftfast/internal/obs"
	"bftfast/internal/obs/telemetry"
)

// BenchPhaseTrackerObserve measures one full ordering-phase observation
// cycle — pre-prepare mark plus prepared/committed/executed histogram
// observations — the per-batch cost a replica pays with live telemetry
// enabled.
func BenchPhaseTrackerObserve(b *testing.B) {
	reg := obs.NewRegistry()
	tr := obs.NewPhaseTracker(reg, "phase.")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := int64(i + 1)
		at := time.Duration(i) * time.Microsecond
		tr.PrePrepare(seq, at)
		tr.Prepared(seq, at+10*time.Microsecond)
		tr.Committed(seq, at+30*time.Microsecond)
		tr.Executed(seq, at+40*time.Microsecond)
	}
	sink = int(tr.Missed())
}

// telemetryRegistry builds a registry shaped like a live replica's:
// engine gauges, transport counters, and phase histograms with samples.
func telemetryRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	tr := obs.NewPhaseTracker(reg, "phase.")
	for seq := int64(1); seq <= 256; seq++ {
		at := time.Duration(seq) * time.Microsecond
		tr.PrePrepare(seq, at)
		tr.Prepared(seq, at+10*time.Microsecond)
		tr.Committed(seq, at+30*time.Microsecond)
		tr.Executed(seq, at+40*time.Microsecond)
	}
	for _, name := range []string{
		"engine.executed_requests", "engine.executed_batches", "engine.view",
		"engine.last_executed", "engine.last_stable", "engine.view_changes",
		"transport.inbox_drops", "transport.inbox_depth",
		"udp.oversized",
		"proc.goroutines", "proc.heap_bytes", "proc.uptime_seconds",
	} {
		reg.Gauge(name).Set(int64(len(name)))
	}
	return reg
}

// BenchPrometheusRender measures one /metrics scrape: a registry
// snapshot plus the Prometheus text render, at a live replica's series
// count.
func BenchPrometheusRender(b *testing.B) {
	reg := telemetryRegistry()
	labels := map[string]string{"node": "0", "role": "replica"}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := telemetry.WritePrometheus(&buf, "bft", labels, reg.Snapshot()); err != nil {
			b.Fatal(err)
		}
	}
	sink = buf.Len()
}
