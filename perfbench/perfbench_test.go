package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"bftfast/internal/bench"
	"bftfast/internal/kvservice"
	"bftfast/internal/proc"
	"bftfast/internal/transport"
)

// smokeWindow is long enough for host-primary-down to stop the primary and
// finish its view change inside the window.
const smokeWindow = 2 * time.Second

// TestWorkloadsPrintEveryMetric runs every workload briefly in both modes
// and checks that the result line is correct and names every metric of the
// mode with its unit.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			want := endToEndUnits
			if traced {
				want = perLayerUnits
			}
			out, err := workloads[name](1, smokeWindow, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			var buf bytes.Buffer
			if err := printResult(&buf, out, want); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not a result: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d, violations %v",
					name, traced, res.Correct, res.Attempted, res.Failed, out.violations)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.name, got, m.unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
			}
		}
	}
}

// TestWrapReplicaTransparent pins that the simulator-path layer meter, with
// tracing on, leaves every simulated figure bit-identical.
func TestWrapReplicaTransparent(t *testing.T) {
	p := simParams(3)
	p.Clients = 40
	p.Warmup, p.Measure = 100*time.Millisecond, 300*time.Millisecond
	plain := bench.RunMicro(p)
	timed := p
	timed.WrapReplica = newSimTimer(p.Replicas).wrap
	timed.Trace, timed.TraceCapacity = true, simTraceCapacity
	got := bench.RunMicro(timed)
	if got.Throughput != plain.Throughput || got.P50 != plain.P50 || got.P99 != plain.P99 ||
		got.Latency != plain.Latency || got.Completed != plain.Completed || got.Lost != plain.Lost {
		t.Fatalf("wrapped run %+v differs from plain run %+v", got, plain)
	}
	if plain.Completed == 0 {
		t.Fatal("no operations completed")
	}
}

// recordingHandler remembers every call made into it.
type recordingHandler struct {
	env      proc.Env
	received [][]byte
	timers   []int
}

func (h *recordingHandler) Init(env proc.Env)   { h.env = env }
func (h *recordingHandler) Receive(data []byte) { h.received = append(h.received, data) }
func (h *recordingHandler) OnTimer(key int)     { h.timers = append(h.timers, key) }

// TestMeteredNetworkAndHandlerTransparent sends datagrams through the
// metered network to a metered handler and checks that the handler sees
// exactly what a bare one would, and that the meters counted it.
func TestMeteredNetworkAndHandlerTransparent(t *testing.T) {
	mnet := newMeteredNetwork(transport.NewChannelNetwork(), []int{1, 2})
	inner := &recordingHandler{}
	node, err := transport.Start(2, meteredHandler{Handler: inner, m: mnet.nodes[2]}, mnet)
	if err != nil {
		t.Fatal(err)
	}
	sent := [][]byte{{4, 1, 2, 3}, {5}, {4, 9}}
	for _, d := range sent {
		mnet.Send(1, 2, append([]byte(nil), d...))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var n int
		onLoop(node, func() { n = len(inner.received) })
		if n == len(sent) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	node.Close()
	if !reflect.DeepEqual(inner.received, sent) {
		t.Fatalf("handler received %v, want %v", inner.received, sent)
	}
	src, dst := mnet.nodes[1], mnet.nodes[2]
	if src.sentMsgs[4].Load() != 2 || src.sentMsgs[5].Load() != 1 || src.sentBytes[4].Load() != 6 {
		t.Errorf("send counts: type 4 %d msgs %d bytes, type 5 %d msgs",
			src.sentMsgs[4].Load(), src.sentBytes[4].Load(), src.sentMsgs[5].Load())
	}
	if dst.handled[4].Load() != 2 || dst.handled[5].Load() != 1 || len(dst.takeWaits()) != len(sent) {
		t.Errorf("handler counts: type 4 %d, type 5 %d", dst.handled[4].Load(), dst.handled[5].Load())
	}

	timerInner := &recordingHandler{}
	h := meteredHandler{Handler: timerInner, m: newNodeMeter()}
	h.OnTimer(7)
	if !reflect.DeepEqual(timerInner.timers, []int{7}) || h.m.timerNs.Load() <= 0 {
		t.Errorf("OnTimer passed %v, timer time %d", timerInner.timers, h.m.timerNs.Load())
	}
}

// TestMeteredServiceTransparent runs one operation sequence on a bare and
// a metered kv store and compares every result, digest and snapshot.
func TestMeteredServiceTransparent(t *testing.T) {
	ops := [][]byte{
		kvservice.SetOp("a", "1"), kvservice.GetOp("a"), kvservice.SetOp("b", "2"),
		kvservice.DelOp("a"), kvservice.GetOp("a"), kvservice.KeysOp(),
	}
	bare := kvservice.New()
	metered := &meteredService{StateMachine: kvservice.New(), node: newNodeMeter()}
	for i, op := range ops {
		ro := kvservice.IsReadOnly(op)
		if got, want := metered.Execute(1, op, ro), bare.Execute(1, op, ro); !bytes.Equal(got, want) {
			t.Fatalf("op %d: metered %q, bare %q", i, got, want)
		}
	}
	if metered.StateDigest() != bare.StateDigest() {
		t.Fatal("state digests differ")
	}
	if !bytes.Equal(metered.Snapshot(), bare.Snapshot()) {
		t.Fatal("snapshots differ")
	}
	if metered.executes.Load() != int64(len(ops)) || metered.snapshots.Load() != 1 {
		t.Fatalf("counted %d executes and %d snapshots", metered.executes.Load(), metered.snapshots.Load())
	}
}

// TestOutputChecksReject feeds the output checks results a faulty service
// could return, and a history no register allows.
func TestOutputChecksReject(t *testing.T) {
	null := nullService{argBytes: 8, resBytes: 4}
	op := null.probe()
	if _, err := null.check(op, make([]byte, 4)); err != nil {
		t.Fatalf("valid null result rejected: %v", err)
	}
	if _, err := null.check(op, make([]byte, 3)); err == nil {
		t.Error("short null result accepted")
	}
	if _, err := null.check(op, []byte{0, 0, 1, 0}); err == nil {
		t.Error("nonzero null result accepted")
	}

	kv := newKVStore(4, 64)
	get := kv.probe()
	if id, err := kv.check(get, []byte(kv.value(preloadID))); err != nil || id != preloadID {
		t.Fatalf("valid get: id %d, err %v", id, err)
	}
	torn := []byte(kv.value(preloadID))
	torn[20] ^= 1
	if _, err := kv.check(get, torn); err == nil {
		t.Error("torn value accepted")
	}

	ms := time.Millisecond
	stale := []opRecord{
		{client: 0, key: 1, write: true, value: 7, invoke: 0, ret: 1 * ms},
		{client: 1, key: 1, value: preloadID | 1, invoke: 2 * ms, ret: 3 * ms},
	}
	if err := kv.verify(stale); err == nil {
		t.Error("stale read after a completed write accepted")
	}
	if err := kv.verify(stale[:1]); err != nil {
		t.Errorf("single write rejected: %v", err)
	}
}

// TestRecordLogKeepsEveryRecord fills a log past several growths and reads
// every record back.
func TestRecordLogKeepsEveryRecord(t *testing.T) {
	var l recordLog
	const n = 3 * (1 << 20) / recordSize
	for i := 0; i < n; i++ {
		if err := l.add(opRecord{client: i % 2, key: i, value: uint64(i), invoke: time.Duration(i), failed: i%7 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	recs := l.drain()
	if len(recs) != n {
		t.Fatalf("drained %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.key != i || r.value != uint64(i) || r.invoke != time.Duration(i) || r.client != i%2 || r.failed != (i%7 == 0) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	if l.mem != nil || len(l.drain()) != 0 {
		t.Fatal("drain left the log non-empty")
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json's workloads and metrics in
// step with the program.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
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
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); got != "["+strings.Join(names, " ")+"]" {
		t.Errorf("BENCHMARK.json workloads %v, program %s", names, got)
	}
	same := func(kind string, file []struct{ Name, Unit string }, prog []metric) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(prog))
			return
		}
		for i, m := range prog {
			if file[i].Name != m.name || file[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, file[i].Name, file[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndUnits)
	same("per_layer", spec.PerLayer, perLayerUnits)
}
