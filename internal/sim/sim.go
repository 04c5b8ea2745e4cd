package sim

import (
	"fmt"
	"math/rand"
	"time"

	"bftfast/internal/crypto"
	"bftfast/internal/obs"
	"bftfast/internal/proc"
)

// eventKind discriminates the typed events the kernel schedules. Keeping
// the set closed (instead of a func() per event) lets the queue store
// events by value and recycle their slots: steady-state scheduling does
// not allocate.
type eventKind uint8

const (
	evCallback eventKind = iota // harness callback registered via At
	evInit                      // node handler Init at t=0
	evArrival                   // datagram reaching the destination's ingress port
	evEnqueue                   // datagram entering the destination's socket buffer
	evTimer                     // armed timer firing (generation-checked)
	evProcess                   // CPU picking up the head of the socket buffer
)

// event is one scheduled action. seq breaks ties deterministically in FIFO
// order so runs are reproducible.
type event struct {
	at   time.Duration
	seq  uint64
	gen  uint64 // evTimer: timer generation at arming time
	data []byte // evArrival/evEnqueue: datagram payload
	fn   func() // evCallback only
	node int32  // target node (all kinds except evCallback)
	key  int32  // evTimer: timer key
	kind eventKind
}

// eventQueue is a binary min-heap of indices into an event arena, ordered
// by (at, seq). Popped slots go on a free-list and are reused, so the
// arena stops growing once the simulation reaches steady state.
type eventQueue struct {
	arena []event
	free  []int32
	heap  []int32
}

func (q *eventQueue) alloc() int32 {
	if n := len(q.free); n > 0 {
		id := q.free[n-1]
		q.free = q.free[:n-1]
		return id
	}
	q.arena = append(q.arena, event{})
	return int32(len(q.arena) - 1)
}

// release clears the slot (dropping payload/closure references for the GC)
// and returns it to the free-list.
func (q *eventQueue) release(id int32) {
	q.arena[id] = event{}
	q.free = append(q.free, id)
}

func (q *eventQueue) less(a, b int32) bool {
	ea, eb := &q.arena[a], &q.arena[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

func (q *eventQueue) push(id int32) {
	q.heap = append(q.heap, id)
	i := len(q.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(q.heap[i], q.heap[parent]) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *eventQueue) pop() int32 {
	top := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	i, n := 0, last
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && q.less(q.heap[r], q.heap[l]) {
			c = r
		}
		if !q.less(q.heap[c], q.heap[i]) {
			break
		}
		q.heap[i], q.heap[c] = q.heap[c], q.heap[i]
		i = c
	}
	return top
}

// NodeStats counts one host's traffic and resource usage.
type NodeStats struct {
	MsgsSent  int64
	BytesSent int64
	MsgsRecv  int64
	BytesRecv int64
	Drops     int64
	CPUBusy   time.Duration
}

// Simulator is the discrete-event kernel. It is not safe for concurrent
// use; a benchmark drives it from a single goroutine.
type Simulator struct {
	cm    CostModel
	now   time.Duration
	seq   uint64
	queue eventQueue
	nodes []*node
	rng   *rand.Rand
}

// New returns a simulator with the given cost model and deterministic seed.
func New(cm CostModel, seed int64) *Simulator {
	return &Simulator{cm: cm, rng: rand.New(rand.NewSource(seed))}
}

// Rand returns the simulator's seeded random source, for deterministic
// workload generation.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// CostModel returns the simulator's cost model.
func (s *Simulator) CostModel() CostModel { return s.cm }

// AddNode registers a handler as the next host and returns its node id.
// All nodes must be added before Run.
func (s *Simulator) AddNode(h proc.Handler) int {
	id := len(s.nodes)
	n := &node{sim: s, id: id, h: h}
	s.nodes = append(s.nodes, n)
	return id
}

// AddMeteredNode registers a handler that needs the node's cryptographic
// work meter at construction time (protocol engines charge digest/MAC work
// through it). build receives the meter and returns the handler.
func (s *Simulator) AddMeteredNode(build func(meter crypto.Meter) proc.Handler) int {
	id := len(s.nodes)
	n := &node{sim: s, id: id}
	s.nodes = append(s.nodes, n)
	n.h = build(n)
	return id
}

// Stats returns a copy of the traffic counters for node id.
func (s *Simulator) Stats(id int) NodeStats { return s.nodes[id].stats }

// RegisterMetrics exposes every node's traffic counters plus cluster-wide
// totals as read-through gauges under prefix (e.g. "sim."). Like Stats, the
// gauges read live kernel state, so snapshots must not race a running
// simulation (benchmarks drive the simulator from one goroutine anyway).
func (s *Simulator) RegisterMetrics(reg *obs.Registry, prefix string) {
	for _, n := range s.nodes {
		n := n
		base := fmt.Sprintf("%snode%d.", prefix, n.id)
		reg.GaugeFunc(base+"msgs_sent", func() int64 { return n.stats.MsgsSent })
		reg.GaugeFunc(base+"bytes_sent", func() int64 { return n.stats.BytesSent })
		reg.GaugeFunc(base+"msgs_recv", func() int64 { return n.stats.MsgsRecv })
		reg.GaugeFunc(base+"bytes_recv", func() int64 { return n.stats.BytesRecv })
		reg.GaugeFunc(base+"drops", func() int64 { return n.stats.Drops })
		reg.GaugeFunc(base+"cpu_busy_ns", func() int64 { return int64(n.stats.CPUBusy) })
	}
	reg.GaugeFunc(prefix+"drops", func() int64 {
		var total int64
		for _, n := range s.nodes {
			total += n.stats.Drops
		}
		return total
	})
	// The busiest host's CPU time: the structural serial bottleneck of a
	// run (the primary, for single-leader ordering at saturation). The
	// parallel-leader sweep reads it to show leader work spreading with g.
	reg.GaugeFunc(prefix+"cpu_busy_max_ns", func() int64 {
		var max int64
		for _, n := range s.nodes {
			if busy := int64(n.stats.CPUBusy); busy > max {
				max = busy
			}
		}
		return max
	})
	reg.GaugeFunc(prefix+"msgs_sent", func() int64 {
		var total int64
		for _, n := range s.nodes {
			total += n.stats.MsgsSent
		}
		return total
	})
}

// schedule enqueues ev at time at (clamped to now). ev's at/seq fields are
// assigned here; callers fill the rest.
func (s *Simulator) schedule(at time.Duration, ev event) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	ev.at = at
	ev.seq = s.seq
	id := s.queue.alloc()
	s.queue.arena[id] = ev
	s.queue.push(id)
}

// At schedules a harness callback at virtual time at. The callback runs
// outside any node context and consumes no simulated resources.
func (s *Simulator) At(at time.Duration, fn func()) {
	s.schedule(at, event{kind: evCallback, fn: fn})
}

// Run initializes every node and processes events until no events remain
// or virtual time reaches limit. It returns the final virtual time.
func (s *Simulator) Run(limit time.Duration) time.Duration {
	for _, n := range s.nodes {
		s.schedule(0, event{kind: evInit, node: int32(n.id)})
	}
	return s.Resume(limit)
}

// Resume continues processing events until the queue empties or virtual
// time reaches limit. It may be called repeatedly with growing limits.
func (s *Simulator) Resume(limit time.Duration) time.Duration {
	for len(s.queue.heap) > 0 {
		id := s.queue.heap[0]
		if s.queue.arena[id].at > limit {
			s.now = limit
			return s.now
		}
		s.queue.pop()
		// Copy out before releasing: dispatch may schedule new events,
		// reusing (or growing past) this slot.
		ev := s.queue.arena[id]
		s.queue.release(id)
		s.now = ev.at
		s.dispatch(ev)
	}
	return s.now
}

func (s *Simulator) dispatch(ev event) {
	switch ev.kind {
	case evCallback:
		ev.fn()
	case evInit:
		s.nodes[ev.node].runInit()
	case evArrival:
		s.nodes[ev.node].ingressArrive(ev.data)
	case evEnqueue:
		s.nodes[ev.node].enqueue(workItem{data: ev.data}, len(ev.data))
	case evTimer:
		n := s.nodes[ev.node]
		if n.timerGen[ev.key] == ev.gen {
			n.enqueue(workItem{timerKey: int(ev.key)}, 0)
		}
	case evProcess:
		s.nodes[ev.node].processNext()
	}
}

// workItem is a unit of host CPU work: an incoming datagram or an expired
// timer.
type workItem struct {
	data     []byte // nil for timers
	timerKey int
}

// workRing is a FIFO of work items backed by a reusing power-of-two ring
// buffer, so the socket queue's steady-state churn performs no head-of-
// slice re-slicing and no allocation.
type workRing struct {
	items []workItem
	head  int
	n     int
}

func (r *workRing) len() int { return r.n }

func (r *workRing) push(w workItem) {
	if r.n == len(r.items) {
		r.grow()
	}
	r.items[(r.head+r.n)&(len(r.items)-1)] = w
	r.n++
}

func (r *workRing) pop() workItem {
	i := r.head
	w := r.items[i]
	r.items[i] = workItem{} // drop the payload reference for the GC
	r.head = (i + 1) & (len(r.items) - 1)
	r.n--
	return w
}

func (r *workRing) grow() {
	size := 2 * len(r.items)
	if size == 0 {
		size = 8
	}
	items := make([]workItem, size)
	for i := 0; i < r.n; i++ {
		items[i] = r.items[(r.head+i)&(len(r.items)-1)]
	}
	r.items = items
	r.head = 0
}

// node models one host: a single CPU, full-duplex ingress/egress links, and
// a bounded receive socket buffer.
type node struct {
	sim *Simulator
	id  int
	h   proc.Handler

	cpuFree     time.Duration
	egressFree  time.Duration
	ingressFree time.Duration

	pending       workRing
	pendingBytes  int
	processing    bool
	overloadCount int // datagrams accepted while over RareLossBacklog

	// cursor is the running CPU position while a handler executes.
	cursor time.Duration
	inRun  bool

	// timerGen is indexed directly by the timer key: engine timer keys are
	// small dense constants (enforced by bft-vet's timerkey analyzer), so a
	// slice replaces the former map. Grown on demand by timerSlot.
	timerGen []uint64

	stats NodeStats
}

var _ proc.Env = (*node)(nil)

// runInit runs the handler's Init as a zero-cost processing run at t=0.
func (n *node) runInit() {
	n.beginRun()
	n.h.Init(n)
	n.endRun()
}

func (n *node) beginRun() {
	start := n.sim.now
	if n.cpuFree > start {
		start = n.cpuFree
	}
	n.cursor = start
	n.inRun = true
}

func (n *node) endRun() {
	n.stats.CPUBusy += n.cursor - n.sim.now
	n.cpuFree = n.cursor
	n.inRun = false
}

// nowOrCursor is the node-local current time: the CPU cursor while a
// handler is running, the global clock otherwise.
func (n *node) nowOrCursor() time.Duration {
	if n.inRun {
		return n.cursor
	}
	return n.sim.now
}

// Now implements proc.Env.
func (n *node) Now() time.Duration { return n.nowOrCursor() }

// Charge implements proc.Env.
func (n *node) Charge(d time.Duration) {
	if d <= 0 {
		return
	}
	if n.inRun {
		n.cursor += d
	} else {
		n.cpuFree = n.sim.now + d
	}
}

// OnDigest implements crypto.Meter: charge MD5-era hashing cost.
func (n *node) OnDigest(bytes int) { n.Charge(n.sim.cm.digestCost(bytes)) }

// OnMAC implements crypto.Meter: charge UMAC-era authentication cost.
func (n *node) OnMAC(bytes int) { n.Charge(n.sim.cm.macCost(bytes)) }

// Send implements proc.Env.
func (n *node) Send(dst int, data []byte) { n.transmit([]int{dst}, data) }

// Multicast implements proc.Env: hardware multicast occupies the sender's
// egress link once for any number of destinations.
func (n *node) Multicast(dsts []int, data []byte) { n.transmit(dsts, data) }

func (n *node) transmit(dsts []int, data []byte) {
	// A datagram only leaves the host if at least one destination exists;
	// malformed destination lists must not charge send cost or skew the
	// MsgsSent/BytesSent counters.
	valid := 0
	for _, dst := range dsts {
		if dst >= 0 && dst < len(n.sim.nodes) {
			valid++
		}
	}
	if valid == 0 {
		return
	}
	cm := &n.sim.cm
	n.Charge(cm.sendCost(len(data)))
	n.stats.MsgsSent++
	n.stats.BytesSent += int64(len(data))

	txStart := n.nowOrCursor()
	if n.egressFree > txStart {
		txStart = n.egressFree
	}
	txEnd := txStart + cm.txTime(len(data))
	n.egressFree = txEnd

	arrival := txEnd + cm.WireLatency
	for _, dst := range dsts {
		if dst < 0 || dst >= len(n.sim.nodes) {
			continue
		}
		if dst == n.id {
			// Loopback: skip the wire, go straight to the receive queue.
			n.sim.schedule(n.nowOrCursor(), event{kind: evEnqueue, node: int32(n.id), data: data})
			continue
		}
		n.sim.schedule(arrival, event{kind: evArrival, node: int32(dst), data: data})
	}
}

// ingressArrive serializes the datagram through this host's ingress port
// (store-and-forward from the switch), then hands it to the socket buffer.
// Two loss mechanisms apply on the wire side: a hard tail-drop when the
// burst exceeds the switch's per-port buffering, and the rare residual
// loss of a receive path under sustained near-saturation (see CostModel).
func (n *node) ingressArrive(data []byte) {
	rxStart := n.sim.now
	if n.ingressFree > rxStart {
		rxStart = n.ingressFree
	}
	cm := &n.sim.cm
	backlog := rxStart - n.sim.now
	if backlog > cm.txTime(cm.SwitchBufferBytes) {
		n.stats.Drops++
		return
	}
	if cm.RareLossEvery > 0 && backlog > cm.RareLossBacklog && len(data) > 1480 {
		n.overloadCount++
		if n.overloadCount%cm.RareLossEvery == 0 {
			n.stats.Drops++
			return
		}
	}
	rxEnd := rxStart + cm.txTime(len(data))
	n.ingressFree = rxEnd
	n.sim.schedule(rxEnd, event{kind: evEnqueue, node: int32(n.id), data: data})
}

// enqueue appends a work item to the socket buffer, dropping it if the
// buffer is full (UDP semantics), and kicks the CPU if idle.
func (n *node) enqueue(w workItem, size int) {
	if w.data != nil && n.pendingBytes+size > n.sim.cm.SocketBufferBytes {
		n.stats.Drops++
		return
	}
	n.pending.push(w)
	n.pendingBytes += size
	if !n.processing {
		n.processing = true
		start := n.sim.now
		if n.cpuFree > start {
			start = n.cpuFree
		}
		n.sim.schedule(start, event{kind: evProcess, node: int32(n.id)})
	}
}

// processNext runs the handler on the head of the socket buffer.
func (n *node) processNext() {
	if n.pending.len() == 0 {
		n.processing = false
		return
	}
	w := n.pending.pop()
	n.beginRun()
	if w.data != nil {
		n.pendingBytes -= len(w.data)
		n.Charge(n.sim.cm.recvCost(len(w.data)))
		n.stats.MsgsRecv++
		n.stats.BytesRecv += int64(len(w.data))
		n.h.Receive(w.data)
	} else {
		n.Charge(n.sim.cm.TimerFixed)
		n.h.OnTimer(w.timerKey)
	}
	n.endRun()
	if n.pending.len() > 0 {
		n.sim.schedule(n.cpuFree, event{kind: evProcess, node: int32(n.id)})
	} else {
		n.processing = false
	}
}

// timerSlot grows the dense generation table to cover key and returns it.
// Timer keys are small non-negative constants (the bft-vet timerkey
// analyzer enforces constancy at every SetTimer/CancelTimer site).
func (n *node) timerSlot(key int) int {
	if key < 0 {
		panic(fmt.Sprintf("sim: negative timer key %d", key))
	}
	for key >= len(n.timerGen) {
		n.timerGen = append(n.timerGen, 0)
	}
	return key
}

// SetTimer implements proc.Env.
func (n *node) SetTimer(key int, d time.Duration) {
	k := n.timerSlot(key)
	n.timerGen[k]++
	n.sim.schedule(n.nowOrCursor()+d, event{
		kind: evTimer,
		node: int32(n.id),
		key:  int32(k),
		gen:  n.timerGen[k],
	})
}

// CancelTimer implements proc.Env.
func (n *node) CancelTimer(key int) { n.timerGen[n.timerSlot(key)]++ }

// String aids debugging.
func (n *node) String() string { return fmt.Sprintf("node(%d)", n.id) }

// DebugNode reports a node's internal queue state (development tooling).
func (s *Simulator) DebugNode(id int) string {
	n := s.nodes[id]
	return fmt.Sprintf("{pendingItems=%d pendingBytes=%d processing=%v cpuFree=%v ingressFree=%v egressFree=%v}",
		n.pending.len(), n.pendingBytes, n.processing, n.cpuFree, n.ingressFree, n.egressFree)
}
