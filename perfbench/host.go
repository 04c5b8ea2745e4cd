package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"bftfast/internal/core"
)

const (
	// invokeTimeout bounds one operation; a timed-out Invoke counts as
	// failed.
	invokeTimeout = 20 * time.Second
	// hostWarmup runs load before the window opens, so connections, caches
	// and the first checkpoints are behind it.
	hostWarmup = time.Second
	// Set-up is timed at least setupRepeats times and for at least
	// setupTime in all; setup_s is the median. Set-up times have a long
	// tail (a few ms, now and then 20), so a cheap set-up is timed many
	// times.
	setupRepeats = 7
	setupTime    = 500 * time.Millisecond
	// heapEvery is the live-heap sampling period.
	heapEvery = 10 * time.Millisecond
)

// hostWorkload is one host-path workload.
type hostWorkload struct {
	svc service
	// killAfter, when nonzero, stops replica 0 (the primary of view 0) this
	// long after the window opens.
	killAfter time.Duration
}

// opRecord is one finished operation, timed from the start of the load.
type opRecord struct {
	client int
	key    int
	write  bool
	value  uint64 // written or observed value id (kv)
	invoke time.Duration
	ret    time.Duration
	failed bool
}

// mark is the process CPU time at one instant of the load.
type mark struct {
	at  time.Duration
	cpu time.Duration
}

// window is everything measured over one load run's window.
type window struct {
	start, end mark
	subs       []mark           // sub-window boundaries, start and end included
	killed     bool             // replica 0 was stopped, at from
	from       mark             // start of the measured regime: start, or the stop
	heapLive   float64          // median live heap, bytes
	mem0, mem1 runtime.MemStats // at from and end
	layers     [2]*layerSnap    // traced groups: at from and end
	recs       []opRecord       // every operation of the load, window or not
	violations []error
}

// processCPU returns the user plus system CPU time this process used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var heapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

func liveHeap() uint64 {
	metrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}

// heapSampler samples the live heap (as the latest GC found it) every
// heapEvery from its start until stop.
type heapSampler struct {
	samples    []float64 // read after stop
	quit, done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		for {
			h.samples = append(h.samples, float64(liveHeap()))
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling, waits for the sampler to exit and returns the median
// live heap in bytes.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	<-h.done
	return median(h.samples)
}

// probe runs one checked operation per client: set-up is done when every
// client has been served once.
func probe(g *hostGroup, svc service) error {
	for c, cl := range g.clients {
		op := svc.probe()
		ctx, cancel := context.WithTimeout(context.Background(), invokeTimeout)
		res, err := cl.Invoke(ctx, op.op, op.readOnly)
		cancel()
		if err != nil {
			return fmt.Errorf("probe by client %d: %w", c, err)
		}
		if _, err := svc.check(op, res); err != nil {
			return fmt.Errorf("probe by client %d: %w", c, err)
		}
	}
	return nil
}

// moreSetups reports whether set-up, timed n times since began, must be
// timed again.
func moreSetups(n int, began time.Time) bool {
	return n < setupRepeats || time.Since(began) < setupTime
}

// setUp starts a group and probes it, closing each group before the next
// starts: once, or as often as moreSetups asks when timed. It returns the
// last group and every set-up time.
func setUp(start func() (*hostGroup, error), svc service, timed bool) (*hostGroup, []float64, error) {
	var g *hostGroup
	var times []float64
	for began := time.Now(); len(times) == 0 || timed && moreSetups(len(times), began); {
		if g != nil {
			g.close()
		}
		t0 := time.Now()
		var err error
		if g, err = start(); err != nil {
			return nil, nil, err
		}
		if err := probe(g, svc); err != nil {
			g.close()
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return g, times, nil
}

// runLoad drives g's clients in a closed loop for hostWarmup plus measure,
// sampling the window in subs equal parts.
func runLoad(g *hostGroup, w hostWorkload, seed int64, measure time.Duration, subs int) (*window, error) {
	base := time.Now()
	since := func() time.Duration { return time.Since(base) }
	stop := make(chan struct{})
	logs := make([]recordLog, len(g.clients))
	errs := make([]error, len(g.clients))     // output check violations
	failures := make([]error, len(g.clients)) // the benchmark's own failures
	var wg sync.WaitGroup
	for c, cl := range g.clients {
		c, cl := c, cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := w.svc.stream(seed, c)
			for {
				select {
				case <-stop:
					return
				default:
				}
				op := next()
				r := opRecord{client: c, key: op.key, write: op.write, value: op.value, invoke: since()}
				ctx, cancel := context.WithTimeout(context.Background(), invokeTimeout)
				res, err := cl.Invoke(ctx, op.op, op.readOnly)
				cancel()
				r.ret = since()
				if err != nil {
					r.failed = true
				} else if v, err := w.svc.check(op, res); err != nil {
					if errs[c] == nil {
						errs[c] = fmt.Errorf("client %d: %w", c, err)
					}
				} else {
					r.value = v
				}
				if err := logs[c].add(r); err != nil {
					failures[c] = err
					return
				}
			}
		}()
	}

	win := &window{}
	at := func() mark { return mark{at: since(), cpu: processCPU()} }
	sleepUntil := func(d time.Duration) { time.Sleep(d - since()) }
	sleepUntil(hostWarmup)
	runtime.ReadMemStats(&win.mem0)
	win.layers[0] = g.snapLayers()
	win.start = at()
	win.from = win.start
	win.subs = append(win.subs, win.start)
	heap := startHeapSampler()
	for i := 1; i <= subs; i++ {
		next := win.start.at + measure*time.Duration(i)/time.Duration(subs)
		if killAt := win.start.at + w.killAfter; w.killAfter > 0 && !win.killed && killAt < next {
			sleepUntil(killAt)
			g.replicas[0].Close()
			win.killed, win.from = true, at()
			runtime.ReadMemStats(&win.mem0)
			win.layers[0] = g.snapLayers()
		}
		sleepUntil(next)
		win.subs = append(win.subs, at())
	}
	win.heapLive = heap.stop()
	win.end = win.subs[len(win.subs)-1]
	win.layers[1] = g.snapLayers()
	runtime.ReadMemStats(&win.mem1)
	close(stop)
	wg.Wait()
	var failure error
	for c := range logs {
		win.recs = append(win.recs, logs[c].drain()...)
		if errs[c] != nil {
			win.violations = append(win.violations, errs[c])
		}
		if failure == nil {
			failure = failures[c]
		}
	}
	if failure != nil {
		return nil, failure
	}
	return win, nil
}

// inWindow reports whether r finished inside [lo, hi).
func (r opRecord) inWindow(lo, hi time.Duration) bool { return r.ret >= lo && r.ret < hi }

// counts returns the operations that finished in [lo, hi) and how many of
// them failed.
func (w *window) counts(lo, hi time.Duration) (attempted, failed int) {
	for _, r := range w.recs {
		if r.inWindow(lo, hi) {
			attempted++
			if r.failed {
				failed++
			}
		}
	}
	return attempted, failed
}

// completed counts the operations that completed in the measured regime:
// the whole window, or what follows the primary's stop.
func (w *window) completed() int64 {
	attempted, failed := w.counts(w.from.at, w.end.at)
	return int64(attempted - failed)
}

// rate is the measured regime's completed operations per second.
func (w *window) rate() float64 { return float64(w.completed()) / (w.end.at - w.from.at).Seconds() }

// cpuPerOp is the measured regime's process CPU time per completed
// operation, in µs.
func (w *window) cpuPerOp() float64 {
	return perOp(float64(w.end.cpu-w.from.cpu)/1e3, w.completed())
}

// latencies returns the latencies in microseconds of the operations that
// completed in [lo, hi).
func (w *window) latencies(lo, hi time.Duration) []float64 {
	var out []float64
	for _, r := range w.recs {
		if !r.failed && r.inWindow(lo, hi) {
			out = append(out, float64(r.ret-r.invoke)/1e3)
		}
	}
	return out
}

// longestGap is the longest interval in the window without a completed
// operation, counting from the window's start to its end.
func (w *window) longestGap() time.Duration {
	done := []time.Duration{w.start.at, w.end.at}
	for _, r := range w.recs {
		if !r.failed && r.inWindow(w.start.at, w.end.at) {
			done = append(done, r.ret)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	var gap time.Duration
	for i := 1; i < len(done); i++ {
		if d := done[i] - done[i-1]; d > gap {
			gap = d
		}
	}
	return gap
}

// endToEnd computes the end-to-end metrics of a host window. Healthy
// workloads report the median over the sub-windows, which keeps a burst of
// interference from other processes in one sub-window out of the result.
// With a stopped primary the figures pool everything after the stop, the
// degraded regime the workload is about.
func (w *window) endToEnd() metricSet {
	type part struct{ lo, hi mark }
	var parts []part
	if w.killed {
		parts = []part{{w.from, w.end}}
	} else {
		for i := 1; i < len(w.subs); i++ {
			parts = append(parts, part{w.subs[i-1], w.subs[i]})
		}
	}
	var rate, p50, p90, cpu []float64
	for _, p := range parts {
		lats := w.latencies(p.lo.at, p.hi.at)
		if len(lats) == 0 {
			continue
		}
		sort.Float64s(lats)
		rate = append(rate, float64(len(lats))/(p.hi.at-p.lo.at).Seconds())
		p50 = append(p50, quantile(lats, 0.5))
		p90 = append(p90, quantile(lats, 0.9))
		cpu = append(cpu, float64(p.hi.cpu-p.lo.cpu)/1e3/float64(len(lats)))
	}
	attempted, failed := w.counts(w.start.at, w.end.at)
	return metricSet{
		{name: "ops_per_s", value: median(rate)},
		{name: "latency_p50_us", value: median(p50)},
		{name: "latency_p90_us", value: median(p90)},
		{name: "ok_ratio", value: perOp(float64(attempted-failed), int64(attempted))},
		{name: "cpu_us_per_op", value: median(cpu)},
		{name: "heap_live_mb", value: w.heapLive / (1 << 20)},
	}
}

// runHostPhase sets up a group (timing set-up when timed), runs the load
// and checks the outputs. It returns the closed group's window and set-up
// times.
func runHostPhase(start func() (*hostGroup, error), w hostWorkload, seed int64, measure time.Duration, timed bool) (*window, []float64, error) {
	g, setup, err := setUp(start, w.svc, timed)
	if err != nil {
		return nil, nil, err
	}
	win, err := runLoad(g, w, seed, measure, subWindows(measure))
	if err != nil {
		g.close()
		return nil, nil, err
	}
	if w.killAfter > 0 && !viewChanged(g) {
		win.violations = append(win.violations, fmt.Errorf("no replica left view 0 after the primary stopped"))
	}
	g.close()
	if err := w.svc.verify(win.recs); err != nil {
		win.violations = append(win.violations, err)
	}
	return win, setup, nil
}

// subWindows splits the window into parts of about 100 ms.
func subWindows(measure time.Duration) int {
	n := int(measure / (100 * time.Millisecond))
	if n < 1 {
		n = 1
	}
	return n
}

// viewChanged reports whether a surviving replica counted a view change.
func viewChanged(g *hostGroup) bool {
	for _, r := range g.replicas[1:] {
		if r.Stats().ViewChanges > 0 {
			return true
		}
	}
	return false
}

// replicaStats reads every replica's counters; stopped replicas read zero.
func replicaStats(g *hostGroup) []core.Counters {
	out := make([]core.Counters, len(g.replicas))
	for i, r := range g.replicas {
		out[i] = r.Stats()
	}
	return out
}
