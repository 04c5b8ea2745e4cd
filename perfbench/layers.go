package main

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"bftfast/internal/core"
	"bftfast/internal/crypto"
	"bftfast/internal/message"
	"bftfast/internal/proc"
	"bftfast/internal/transport"
)

// The layer meters below time calls into each layer's public interface from
// the outside: they wrap a transport.Network, a proc.Handler, a
// core.StateMachine, and implement crypto.Meter. None of them changes what
// the wrapped layer returns; the wrapper tests pin that.

// numTypes covers every one-byte wire type tag.
const numTypes = 256

// nodeMeter accumulates one node's transport and handler work. Handler and
// send counters are written on the node's event loop and read from the
// benchmark goroutine while the node runs, hence atomics.
type nodeMeter struct {
	// Outbound datagrams by wire type.
	sentMsgs  [numTypes]atomic.Int64
	sentBytes [numTypes]atomic.Int64
	sendNs    atomic.Int64

	// loopNs is the time spent inside handler calls (Receive and OnTimer,
	// including what they call); timerNs is the OnTimer share. selfNs is
	// Receive time by inbound wire type minus childNs, the sends and
	// service calls made inside it.
	loopNs  atomic.Int64
	timerNs atomic.Int64
	childNs atomic.Int64
	handled [numTypes]atomic.Int64
	selfNs  [numTypes]atomic.Int64

	// Delivery instants of datagrams not yet handled, keyed by buffer.
	mu        sync.Mutex
	delivered map[*byte]time.Time
	waits     []time.Duration // inbox waits since the last reset
}

func newNodeMeter() *nodeMeter {
	return &nodeMeter{delivered: make(map[*byte]time.Time)}
}

// takeWaits returns the inbox waits recorded since the previous call.
func (m *nodeMeter) takeWaits() []time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.waits
	m.waits = nil
	return w
}

// meteredNetwork wraps a transport.Network, timing Send and stamping each
// datagram's delivery so the handler side can measure its inbox wait.
type meteredNetwork struct {
	transport.Network
	nodes map[int]*nodeMeter
}

func newMeteredNetwork(inner transport.Network, ids []int) *meteredNetwork {
	m := &meteredNetwork{Network: inner, nodes: make(map[int]*nodeMeter, len(ids))}
	for _, id := range ids {
		m.nodes[id] = newNodeMeter()
	}
	return m
}

// Send implements transport.Network.
func (m *meteredNetwork) Send(src, dst int, data []byte) {
	start := time.Now()
	m.Network.Send(src, dst, data)
	d := time.Since(start).Nanoseconds()
	nm := m.nodes[src]
	if nm == nil || len(data) == 0 {
		return
	}
	nm.sentMsgs[data[0]].Add(1)
	nm.sentBytes[data[0]].Add(int64(len(data)))
	nm.sendNs.Add(d)
	nm.childNs.Add(d)
}

// Register implements transport.Network.
func (m *meteredNetwork) Register(id int, recv func(data []byte)) error {
	nm := m.nodes[id]
	if nm == nil {
		return m.Network.Register(id, recv)
	}
	return m.Network.Register(id, func(data []byte) {
		if len(data) > 0 {
			nm.mu.Lock()
			nm.delivered[unsafe.SliceData(data)] = time.Now()
			nm.mu.Unlock()
		}
		recv(data)
	})
}

// meteredHandler wraps a node's engine, timing each call the transport
// makes into it.
type meteredHandler struct {
	proc.Handler
	m *nodeMeter
}

// Receive implements proc.Handler.
func (h meteredHandler) Receive(data []byte) {
	start := time.Now()
	if len(data) > 0 {
		key := unsafe.SliceData(data)
		h.m.mu.Lock()
		if at, ok := h.m.delivered[key]; ok {
			delete(h.m.delivered, key)
			h.m.waits = append(h.m.waits, start.Sub(at))
		}
		h.m.mu.Unlock()
	}
	child := h.m.childNs.Load()
	h.Handler.Receive(data)
	d := time.Since(start).Nanoseconds()
	h.m.loopNs.Add(d)
	if len(data) > 0 {
		h.m.handled[data[0]].Add(1)
		h.m.selfNs[data[0]].Add(d - (h.m.childNs.Load() - child))
	}
}

// OnTimer implements proc.Handler.
func (h meteredHandler) OnTimer(key int) {
	start := time.Now()
	h.Handler.OnTimer(key)
	d := time.Since(start).Nanoseconds()
	h.m.loopNs.Add(d)
	h.m.timerNs.Add(d)
}

// cryptoMeter counts MAC and digest work for one node (crypto.Meter). The
// engine calls it on its event loop; the benchmark reads it concurrently.
type cryptoMeter struct {
	macs, macBytes       atomic.Int64
	digests, digestBytes atomic.Int64
}

var _ crypto.Meter = (*cryptoMeter)(nil)

func (c *cryptoMeter) OnMAC(n int) {
	c.macs.Add(1)
	c.macBytes.Add(int64(n))
}

func (c *cryptoMeter) OnDigest(n int) {
	c.digests.Add(1)
	c.digestBytes.Add(int64(n))
}

// meteredService wraps a replica's state machine, timing Execute and
// Snapshot and charging both to the node's child time.
type meteredService struct {
	core.StateMachine
	node *nodeMeter

	executes, executeNs   atomic.Int64
	snapshots, snapshotNs atomic.Int64
}

// Execute implements core.StateMachine.
func (s *meteredService) Execute(client int32, op []byte, readOnly bool) []byte {
	start := time.Now()
	res := s.StateMachine.Execute(client, op, readOnly)
	d := time.Since(start).Nanoseconds()
	s.executes.Add(1)
	s.executeNs.Add(d)
	s.node.childNs.Add(d)
	return res
}

// Snapshot implements core.StateMachine.
func (s *meteredService) Snapshot() []byte {
	start := time.Now()
	snap := s.StateMachine.Snapshot()
	d := time.Since(start).Nanoseconds()
	s.snapshots.Add(1)
	s.snapshotNs.Add(d)
	s.node.childNs.Add(d)
	return snap
}

// SetEnv forwards core.EnvAware to services that implement it, so the
// wrapper is invisible to the replica.
func (s *meteredService) SetEnv(env proc.Env) {
	if aware, ok := s.StateMachine.(core.EnvAware); ok {
		aware.SetEnv(env)
	}
}

// simTimer is the simulator-path layer meter: bench.MicroParams.WrapReplica
// installs it around each replica engine. It reads the host clock only,
// never the simulator's, so simulated results stay bit-identical.
type simTimer struct {
	handlerNs [numTypes]int64
	handled   [numTypes]int64
	timerNs   int64
	totalNs   []int64 // per replica
}

func newSimTimer(n int) *simTimer { return &simTimer{totalNs: make([]int64, n)} }

// wrap matches bench.MicroParams.WrapReplica.
func (t *simTimer) wrap(id, _ int, h proc.Handler, _ *crypto.KeyTable) proc.Handler {
	return &simTimedHandler{Handler: h, t: t, id: id}
}

type simTimedHandler struct {
	proc.Handler
	t  *simTimer
	id int
}

func (h *simTimedHandler) Receive(data []byte) {
	start := time.Now()
	h.Handler.Receive(data)
	d := time.Since(start).Nanoseconds()
	h.t.totalNs[h.id] += d
	if len(data) > 0 {
		h.t.handled[data[0]]++
		h.t.handlerNs[data[0]] += d
	}
}

func (h *simTimedHandler) OnTimer(key int) {
	start := time.Now()
	h.Handler.OnTimer(key)
	d := time.Since(start).Nanoseconds()
	h.t.totalNs[h.id] += d
	h.t.timerNs += d
}

// typeClass maps a wire type tag to the per-type metric suffix.
func typeClass(tag int) string {
	switch t := message.Type(tag); t {
	case message.TypeRequest, message.TypeReply, message.TypePrePrepare, message.TypePrepare,
		message.TypeCommit, message.TypeCheckpoint, message.TypeStatus:
		return t.String()
	}
	return "other"
}

// typeClasses lists typeClass's results in report order.
var typeClasses = []string{"request", "pre-prepare", "prepare", "commit", "reply", "checkpoint", "status", "other"}
