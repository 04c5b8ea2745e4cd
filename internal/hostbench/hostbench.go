// Package hostbench measures the host-side (wall-clock) cost of the
// simulation's three hot paths: the message codec, MAC/authenticator
// computation, and the discrete-event kernel itself, plus one reduced-scale
// end-to-end figure run. It is the counterpart of internal/bench, which
// measures *simulated-time* protocol behavior; hostbench answers "how fast
// does the simulator run on this machine", which bounds how large an
// experiment is practical.
//
// The benchmark bodies live in this package (not a _test file) so that both
// `go test -bench ./internal/hostbench` and cmd/bench-host (which renders
// them into BENCH_host.json via testing.Benchmark) drive the same code.
package hostbench

import (
	"testing"
	"time"

	"bftfast/internal/bench"
	"bftfast/internal/crypto"
	"bftfast/internal/message"
	"bftfast/internal/obs"
	"bftfast/internal/proc"
	"bftfast/internal/sim"
)

// Bench is one registered microbenchmark.
type Bench struct {
	Name string
	F    func(b *testing.B)
}

// Benchmarks lists every hot-path microbenchmark. The hostbench tests and
// cmd/bench-host both iterate this registry, so the JSON report and the
// test-run benchmarks cannot drift apart.
var Benchmarks = []Bench{
	{"CodecEncodePrepare", BenchCodecEncodePrepare},
	{"CodecMarshalPrePrepare", BenchCodecMarshalPrePrepare},
	{"CodecDecodePrepare", BenchCodecDecodePrepare},
	{"CodecDecodeCommit", BenchCodecDecodeCommit},
	{"AuthenticatorInto", BenchAuthenticatorInto},
	{"AuthenticatorVerify", BenchAuthenticatorVerify},
	{"SimKernelChurn", BenchSimKernelChurn},
	{"TraceRecord", BenchTraceRecord},
	{"HistogramObserve", BenchHistogramObserve},
	{"PhaseTrackerObserve", BenchPhaseTrackerObserve},
	{"PrometheusRender", BenchPrometheusRender},
	{"CheckpointKV", BenchCheckpointKV},
	{"EndToEndFigure4Point", BenchEndToEndFigure4Point},
}

// groupN is the paper's baseline group size (f=1).
const groupN = 4

// sink defeats dead-code elimination of benchmark results.
var sink int

// keyedTables builds n key tables with consistent pairwise session keys.
func keyedTables(n int) []*crypto.KeyTable {
	key := func(from, to int) crypto.Key {
		var k crypto.Key
		k[0], k[1], k[2] = byte(from), byte(to), 0x5a
		return k
	}
	ts := make([]*crypto.KeyTable, n)
	for i := range ts {
		ts[i] = crypto.NewKeyTable(i)
	}
	for i := range ts {
		for j := range ts {
			if i != j {
				ts[i].Pair(j, key(j, i), key(i, j), 1)
			}
		}
	}
	return ts
}

func sampleDigest() crypto.Digest {
	var d crypto.Digest
	for i := range d {
		d[i] = byte(i * 7)
	}
	return d
}

// samplePrepare is a representative steady-state prepare: one piggybacked
// commit and a full authenticator.
func samplePrepare(tables []*crypto.KeyTable) *message.Prepare {
	d := sampleDigest()
	p := &message.Prepare{View: 3, Seq: 117, Digest: d, Replica: 2}
	p.Commits = []message.CommitRef{{Seq: 116, Digest: d}}
	p.Auth = crypto.AuthenticatorFor(tables[2], groupN,
		message.OrderContentWithCommits(p.View, p.Seq, p.Digest, p.Commits))
	return p
}

func sampleCommit(tables []*crypto.KeyTable) *message.Commit {
	d := sampleDigest()
	c := &message.Commit{View: 3, Seq: 117, Digest: d, Replica: 1}
	c.Auth = crypto.AuthenticatorFor(tables[1], groupN,
		message.OrderContent(c.View, c.Seq, c.Digest))
	return c
}

// BenchCodecEncodePrepare measures scratch-encoder encoding of a prepare
// (the per-message wire-format cost without the send-buffer clone).
func BenchCodecEncodePrepare(b *testing.B) {
	p := samplePrepare(keyedTables(groupN))
	e := message.NewEncoder(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = len(message.EncodeTo(e, p))
	}
}

// BenchCodecMarshalPrePrepare measures the full send path of a small-batch
// pre-prepare through an encoder free-list: scratch encode plus the one
// exact-size clone a send buffer requires.
func BenchCodecMarshalPrePrepare(b *testing.B) {
	tables := keyedTables(groupN)
	d := sampleDigest()
	pp := &message.PrePrepare{
		View: 3,
		Seq:  118,
		Refs: []message.RequestRef{{Digest: d}, {Digest: d}},
	}
	pp.Auth = crypto.AuthenticatorFor(tables[0], groupN,
		message.OrderContentWithCommits(pp.View, pp.Seq, d, nil))
	var l message.EncoderList
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = len(message.MarshalWith(&l, pp))
	}
}

// BenchCodecDecodePrepare measures the decode-into fast path a replica runs
// for every prepare it receives.
func BenchCodecDecodePrepare(b *testing.B) {
	wire := message.Marshal(samplePrepare(keyedTables(groupN)))
	var scratch message.Prepare
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := message.UnmarshalPrepareInto(wire, &scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchCodecDecodeCommit measures the decode-into fast path for commits.
func BenchCodecDecodeCommit(b *testing.B) {
	wire := message.Marshal(sampleCommit(keyedTables(groupN)))
	var scratch message.Commit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := message.UnmarshalCommitInto(wire, &scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchAuthenticatorInto measures authenticating one ordering message for
// the whole group with cached HMAC states and a reused destination vector.
func BenchAuthenticatorInto(b *testing.B) {
	tables := keyedTables(groupN)
	content := message.OrderContent(3, 117, sampleDigest())
	var dst crypto.Authenticator
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = crypto.AuthenticatorInto(tables[0], dst, groupN, content)
	}
	sink = len(dst)
}

// BenchAuthenticatorVerify measures a receiver checking its own entry.
func BenchAuthenticatorVerify(b *testing.B) {
	tables := keyedTables(groupN)
	content := message.OrderContent(3, 117, sampleDigest())
	a := crypto.AuthenticatorFor(tables[0], groupN, content)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !crypto.VerifyEntry(tables[1], 0, a, content) {
			b.Fatal("authenticator entry did not verify")
		}
	}
}

// pingNode bounces a payload with a peer and re-arms a timer on every
// receive, exercising the kernel's arrival, ingress, enqueue, process and
// timer-generation paths without any protocol logic on top.
type pingNode struct {
	env  proc.Env
	peer int
	left *int
	kick bool
}

func (p *pingNode) Init(env proc.Env) {
	p.env = env
	if p.kick {
		p.env.Send(p.peer, make([]byte, 64))
	}
}

func (p *pingNode) Receive(data []byte) {
	p.env.SetTimer(1, time.Millisecond)
	if *p.left <= 0 {
		return
	}
	*p.left--
	p.env.Send(p.peer, data)
}

func (p *pingNode) OnTimer(key int) {}

// churnMessages is the ping-pong count per kernel-churn iteration.
const churnMessages = 20000

// BenchSimKernelChurn measures raw event-kernel throughput: each iteration
// drives churnMessages datagrams (plus their timers) through a two-node
// simulation.
func BenchSimKernelChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New(sim.DefaultCostModel(), 1)
		left := churnMessages
		s.AddNode(&pingNode{peer: 1, left: &left, kick: true})
		s.AddNode(&pingNode{peer: 0, left: &left})
		s.Run(time.Hour)
	}
}

// BenchTraceRecord measures the enabled trace hook: one ring-buffer write
// per event, zero allocations in steady state (the ring overwrites).
func BenchTraceRecord(b *testing.B) {
	rec := obs.NewRecorder(0, 1<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Record(time.Duration(i), obs.EvPrepared, int64(i), 3, 0)
	}
	sink = rec.Len()
}

// BenchHistogramObserve measures the latency-histogram hot path: a bucket
// index computation and a handful of in-place counter updates.
func BenchHistogramObserve(b *testing.B) {
	var h obs.Histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i)*37 + 100)
	}
	sink = int(h.Count())
}

// BenchEndToEndFigure4Point runs one reduced-scale Figure 4 measurement
// point (4 replicas, 10 clients, null operations) end to end: the number
// that bounds how fast the full figure sweeps regenerate. It also reports
// the run's simulated latency percentiles as extra metrics, which
// cmd/bench-host carries into BENCH_host.json.
func BenchEndToEndFigure4Point(b *testing.B) {
	p := bench.DefaultMicroParams()
	p.Clients = 10
	p.Warmup = 50 * time.Millisecond
	p.Measure = 250 * time.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	var last bench.MicroResult
	for i := 0; i < b.N; i++ {
		last = bench.RunMicro(p)
		if last.Completed == 0 {
			b.Fatal("reduced-scale run completed no operations")
		}
	}
	b.ReportMetric(float64(last.P50.Microseconds()), "sim-p50-µs")
	b.ReportMetric(float64(last.P99.Microseconds()), "sim-p99-µs")
}
