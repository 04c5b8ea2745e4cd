package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"bftfast/internal/bench"
	"bftfast/internal/obs"
)

const (
	simClients = 200
	// simWindowJitter bounds the seed's shift of the measure window. The
	// simulated system is deterministic and the keys the seed draws do not
	// change its timing, so the seed also picks where in the simulated
	// timeline the window starts.
	simWindowJitter = 200 * time.Millisecond
	// simTraceCapacity bounds each node's trace ring in the span-assembly
	// runs: enough for every client operation, and for the replicas' last
	// couple of thousand requests.
	simTraceCapacity = 1 << 13
)

// simParams is the paper's Figure-4 0/0 read-write point at 200 clients,
// with the window start drawn from seed.
func simParams(seed int64) bench.MicroParams {
	p := bench.DefaultMicroParams()
	p.Clients = simClients
	p.ArgBytes, p.ResBytes = 8, 0
	p.Seed = seed
	p.Warmup += time.Duration(rand.New(rand.NewSource(seed)).Int63n(int64(simWindowJitter)))
	return p
}

// simRun is one timed bench.RunMicro call. Its result keeps no registry
// (whose gauges would keep the whole simulator alive), only a snapshot.
type simRun struct {
	res     bench.MicroResult
	metrics []obs.Metric
	wall    time.Duration
	cpu     time.Duration
	ops     int64 // operations completed over the whole simulated run
	mem0    runtime.MemStats
	mem1    runtime.MemStats
}

func runMicro(p bench.MicroParams, readMems bool) simRun {
	var r simRun
	if readMems {
		runtime.ReadMemStats(&r.mem0)
	}
	cpu0, t0 := processCPU(), time.Now()
	r.res = bench.RunMicro(p)
	r.wall, r.cpu = time.Since(t0), processCPU()-cpu0
	if readMems {
		runtime.ReadMemStats(&r.mem1)
	}
	r.metrics, r.res.Metrics = r.res.Metrics.Snapshot(), nil
	for _, m := range r.metrics {
		if strings.HasPrefix(m.Name, "client") && strings.HasSuffix(m.Name, ".completed") {
			r.ops += m.Value
		}
	}
	return r
}

// simSetup times building the simulated testbed (keys, engines, clients)
// with an empty run, as often as moreSetups asks.
func simSetup(seed int64) []float64 {
	var times []float64
	for began := time.Now(); moreSetups(len(times), began); {
		p := simParams(seed)
		p.Warmup, p.Measure = 0, 0
		t0 := time.Now()
		bench.RunMicro(p)
		times = append(times, time.Since(t0).Seconds())
	}
	return times
}

// repeatMicro runs p until measure has passed (at least once). It returns
// the runs, of which only the last keeps its trace, and the median live
// heap while they ran.
func repeatMicro(p bench.MicroParams, measure time.Duration, readMems bool) ([]simRun, float64) {
	var runs []simRun
	heap := startHeapSampler()
	start := time.Now()
	for len(runs) == 0 || time.Since(start) < measure {
		if len(runs) > 0 {
			runs[len(runs)-1].res.Events = nil
		}
		runs = append(runs, runMicro(p, readMems))
	}
	return runs, heap.stop()
}

// checkSimRuns verifies that no operation was lost and that every run
// matches the reference exactly: the simulator is deterministic, and the
// tracing and timing wrappers must not perturb it.
func checkSimRuns(ref bench.MicroResult, runs []simRun) []error {
	var errs []error
	for i, r := range runs {
		if r.res.Lost != 0 {
			errs = append(errs, fmt.Errorf("sim run %d lost %d operations", i, r.res.Lost))
		}
		if r.res.Completed != ref.Completed || r.res.Throughput != ref.Throughput ||
			r.res.P50 != ref.P50 || r.res.P99 != ref.P99 || r.res.Latency != ref.Latency {
			errs = append(errs, fmt.Errorf("sim run %d diverged: %d ops, p50 %v, p99 %v; reference %d ops, p50 %v, p99 %v",
				i, r.res.Completed, r.res.P50, r.res.P99, ref.Completed, ref.P50, ref.P99))
		}
	}
	return errs
}

// simLatencies returns the sorted simulated latencies (µs) of the client
// operations that completed inside the measure window of a traced run, and
// the longest simulated interval in the window without a completion.
func simLatencies(p bench.MicroParams, events []obs.Event) ([]float64, time.Duration) {
	var done []time.Duration
	var lats []float64
	for _, s := range obs.AssembleSpans(events) {
		if s.Send != 0 && s.Done >= p.Warmup && s.Done < p.Warmup+p.Measure {
			done = append(done, s.Done)
			lats = append(lats, float64(s.Latency())/1e3)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	prev, gap := p.Warmup, time.Duration(0)
	for _, d := range done {
		gap, prev = max(gap, d-prev), d
	}
	sort.Float64s(lats)
	return lats, max(gap, p.Warmup+p.Measure-prev)
}

// runSimulator runs the sim-saturated workload. Untraced, it reports the
// simulated figures and the host cost of simulating; the latency figures
// come from one traced run, whose simulated results must equal the
// untraced ones bit for bit. Traced, it adds the per-layer split.
func runSimulator(seed int64, measure time.Duration, traced bool) outcome {
	p := simParams(seed)
	var setup []float64
	if traced {
		// The untraced and traced runs get half the window each.
		measure /= 2
	} else {
		setup = simSetup(seed)
	}

	runs, heap := repeatMicro(p, measure, traced)
	ref := runs[0].res

	tp := p
	tp.Trace, tp.TraceCapacity = true, simTraceCapacity
	timer := newSimTimer(p.Replicas)
	if traced {
		tp.WrapReplica = timer.wrap
	}
	var out outcome
	var tracedRuns []simRun
	if traced {
		tracedRuns, _ = repeatMicro(tp, measure, false)
	} else {
		tracedRuns = []simRun{runMicro(tp, false)}
	}
	out.violations = append(checkSimRuns(ref, runs), checkSimRuns(ref, tracedRuns)...)
	for _, r := range runs {
		out.attempted += r.res.Completed + r.res.Lost
		out.failed += r.res.Lost
	}

	last := tracedRuns[len(tracedRuns)-1]
	lats, gap := simLatencies(p, last.res.Events)

	if !traced {
		var cpu []float64
		for _, r := range runs {
			cpu = append(cpu, perOp(float64(r.cpu)/1e3, r.ops))
		}
		okRatio := perOp(float64(ref.Completed), ref.Completed+ref.Lost)
		out.metrics = metricSet{
			{name: "ops_per_s", value: ref.Throughput},
			{name: "latency_p50_us", value: quantile(lats, 0.5)},
			{name: "latency_p90_us", value: quantile(lats, 0.9)},
			{name: "ok_ratio", value: okRatio},
			{name: "cpu_us_per_op", value: median(cpu)},
			{name: "heap_live_mb", value: heap / (1 << 20)},
			{name: "setup_s", value: median(setup)},
		}
		return out
	}

	out.metrics = simLayerMetrics(tp, tracedRuns, timer)
	var walls, tracedWalls []float64
	var alloc, pause float64
	for _, r := range runs {
		walls = append(walls, r.wall.Seconds())
		alloc += perOp(float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc), r.ops) / float64(len(runs))
		pause += float64(r.mem1.PauseTotalNs-r.mem0.PauseTotalNs) / 1e6
	}
	for _, r := range tracedRuns {
		tracedWalls = append(tracedWalls, r.wall.Seconds())
	}
	out.metrics = append(out.metrics,
		metric{name: "bft.alloc_bytes_per_op", value: alloc},
		metric{name: "bft.gc_pause_ms", value: pause},
		metric{name: "e2e.latency_p99_us", value: quantile(lats, 0.99)},
		metric{name: "e2e.latency_samples", value: float64(len(lats))},
		metric{name: "e2e.unavailable_ms", value: float64(gap) / 1e6},
		metric{name: "trace.overhead_pct", value: (median(tracedWalls)/median(walls) - 1) * 100},
		metric{name: "trace.ops_per_s_ratio", value: last.res.Throughput / ref.Throughput},
	)
	return out
}

// simLayerMetrics derives the per-layer split of the traced runs, all of
// which t timed. The simulated counters are the same in every run.
func simLayerMetrics(p bench.MicroParams, runs []simRun, t *simTimer) metricSet {
	r := runs[len(runs)-1]
	var wall time.Duration
	for _, run := range runs {
		wall += run.wall
	}
	ops := r.ops * int64(len(runs)) // operations over every timed run
	var out metricSet
	add := func(name string, v float64) { out = append(out, metric{name: name, value: v}) }
	g := map[string]int64{}
	var msgs, bytes, retransmits int64
	for _, m := range r.metrics {
		g[m.Name] = m.Value
		switch {
		case strings.HasPrefix(m.Name, "sim.node") && strings.HasSuffix(m.Name, ".msgs_sent"):
			msgs += m.Value
		case strings.HasPrefix(m.Name, "sim.node") && strings.HasSuffix(m.Name, ".bytes_sent"):
			bytes += m.Value
		case strings.HasPrefix(m.Name, "client") && strings.HasSuffix(m.Name, ".retransmits"):
			retransmits += m.Value
		}
	}
	simulated := p.Warmup + p.Measure
	add("sim.msgs_per_op", perOp(float64(msgs), r.ops))
	add("sim.bytes_per_op", perOp(float64(bytes), r.ops))
	add("sim.primary_cpu_busy_ratio", float64(g["sim.cpu_busy_max_ns"])/float64(simulated))
	add("sim.drops", float64(g["sim.drops"]))

	var handlers int64
	var backup float64
	for i, ns := range t.totalNs {
		handlers += ns
		busy := float64(ns) / float64(wall)
		if i == 0 {
			add("core.primary_busy_ratio", busy)
		} else {
			backup += busy / float64(len(t.totalNs)-1)
		}
	}
	add("core.backup_busy_ratio", backup)
	var self int64
	classNs, classN := map[string]int64{}, map[string]int64{}
	for tag := 0; tag < numTypes; tag++ {
		self += t.handlerNs[tag]
		classNs[typeClass(tag)] += t.handlerNs[tag]
		classN[typeClass(tag)] += t.handled[tag]
	}
	add("core.handler_us_per_op", perOp(float64(self)/1e3, ops))
	for _, c := range typeClasses {
		add("core.handler_ns."+c, perOp(float64(classNs[c]), classN[c]))
	}
	add("core.timer_us_per_op", perOp(float64(t.timerNs)/1e3, ops))
	add("core.ops_per_batch", perOp(float64(g["replica0.executed_requests"]), g["replica0.executed_batches"]))
	add("core.read_only_share", perOp(float64(g["replica0.executed_read_only"]), g["replica0.executed_requests"]))
	var views, stable, dropped int64
	for i := 0; i < p.Replicas; i++ {
		pre := fmt.Sprintf("replica%d.", i)
		views = max(views, g[pre+"view_changes"])
		stable = max(stable, g[pre+"stable_checkpoints"])
		dropped += g[pre+"dropped_messages"]
	}
	add("core.view_changes", float64(views))
	add("core.client_retransmits_per_op", perOp(float64(retransmits), r.ops))
	add("core.stable_checkpoints", float64(stable))
	add("core.dropped_messages", float64(dropped))

	add("bench.replica_handler_wall_ns_per_op", perOp(float64(handlers), ops))
	add("bench.other_wall_ns_per_op", perOp(float64(wall.Nanoseconds()-handlers), ops))

	bd := obs.Summarize(obs.AssembleSpans(r.res.Events), p.Warmup)
	for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
		add("obs.phase_us."+ph.String(), float64(bd.Phases[ph])/1e3)
	}
	return out
}
