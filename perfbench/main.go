// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a given number of seconds, checks every output, and
// prints its metrics by name with their units; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"ops_per_s": {"value": ..., "unit": "1/s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured on the path
// users deploy; with -trace 1 they are the per-layer split, measured with
// the layer meters in place, plus the tracing overhead. See README.md.
//
//	perfbench -workload host-write-small -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(seed int64, measure time.Duration, traced bool) (outcome, error){
	"host-write-small": func(seed int64, measure time.Duration, traced bool) (outcome, error) {
		return runHost(hostWorkload{svc: nullService{argBytes: 8}}, seed, measure, traced, true)
	},
	"host-kv-mixed": func(seed int64, measure time.Duration, traced bool) (outcome, error) {
		return runHost(hostWorkload{svc: newKVStore(4096, 4096)}, seed, measure, traced, false)
	},
	"host-primary-down": func(seed int64, measure time.Duration, traced bool) (outcome, error) {
		return runHost(hostWorkload{svc: nullService{argBytes: 8}, killAfter: killAfter}, seed, measure, traced, false)
	},
	"sim-saturated": func(seed int64, measure time.Duration, traced bool) (outcome, error) {
		return runSimulator(seed, measure, traced), nil
	},
}

// killAfter is when host-primary-down stops the primary, from the start of
// the window.
const killAfter = 500 * time.Millisecond

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the measure window in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0 or 1\n", workloadNames())
		os.Exit(2)
	}
	out, err := run(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(2)
	}
	want := endToEndUnits
	if *trace == 1 {
		want = perLayerUnits
	}
	if err := printResult(os.Stdout, out, want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	for _, v := range out.violations {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed: %v\n", *name, v)
	}
	if len(out.violations) > 0 {
		os.Exit(1)
	}
}

// printResult writes one line per metric of want, then the JSON result
// line carrying the same metrics.
func printResult(w io.Writer, out outcome, want []metric) error {
	res := newResult(out, want)
	for _, m := range want {
		fmt.Fprintf(w, "%-40s %14.4f %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// runHost runs a host workload. Untraced, set-up is timed repeatedly and
// the end-to-end metrics come from the deployed path. Traced, the
// same load runs once on the deployed path and once with the layer meters
// in place; withNorep adds the unreplicated reference on the same load.
func runHost(w hostWorkload, seed int64, measure time.Duration, traced, withNorep bool) (outcome, error) {
	start := func(traced bool) func() (*hostGroup, error) {
		return func() (*hostGroup, error) { return startGroup(w.svc.newReplicaState, seed, traced) }
	}
	var out outcome
	phase := func(begin func() (*hostGroup, error), wl hostWorkload, timed bool) (*window, []float64, error) {
		win, setup, err := runHostPhase(begin, wl, seed, measure, timed)
		if err != nil {
			return nil, nil, err
		}
		attempted, failed := win.counts(win.start.at, win.end.at)
		out.attempted += int64(attempted)
		out.failed += int64(failed)
		out.violations = append(out.violations, win.violations...)
		return win, setup, nil
	}
	if !traced {
		win, setup, err := phase(start(false), w, true)
		if err != nil {
			return out, err
		}
		out.metrics = append(win.endToEnd(), metric{name: "setup_s", value: median(setup)})
		return out, nil
	}

	// Each traced phase gets half the window, so that the run stays about
	// as long as an untraced one plus the reference.
	measure /= 2
	plain, _, err := phase(start(false), w, false)
	if err != nil {
		return out, err
	}
	metered, _, err := phase(start(true), w, false)
	if err != nil {
		return out, err
	}
	out.metrics = append(hostLayerMetrics(metered, metered.completed(), w.svc), processMetrics(plain, plain.completed())...)
	lats := plain.latencies(plain.from.at, plain.end.at)
	sort.Float64s(lats)
	out.metrics = append(out.metrics,
		metric{name: "e2e.latency_p99_us", value: quantile(lats, 0.99)},
		metric{name: "e2e.latency_samples", value: float64(len(lats))},
		metric{name: "e2e.unavailable_ms", value: float64(plain.longestGap()) / 1e6},
		metric{name: "trace.overhead_pct", value: (metered.cpuPerOp()/plain.cpuPerOp() - 1) * 100},
		metric{name: "trace.ops_per_s_ratio", value: metered.rate() / plain.rate()},
	)
	if withNorep {
		ref, _, err := phase(startNorep, hostWorkload{svc: w.svc}, false)
		if err != nil {
			return out, err
		}
		out.metrics = append(out.metrics, metric{name: "norep.ops_per_s", value: ref.rate()})
	}
	return out, nil
}
