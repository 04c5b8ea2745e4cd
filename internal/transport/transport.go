// Package transport runs protocol engines (internal/proc handlers) on real
// networks in wall-clock time: an in-process channel network for tests and
// examples, and a UDP network for multi-process deployments. Each node gets
// a single-goroutine event loop that serializes Receive/OnTimer calls, so
// engines need no locking — the same contract the simulator provides.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bftfast/internal/obs"
	"bftfast/internal/proc"
)

// ErrClosed is returned by operations on a closed node or network.
var ErrClosed = errors.New("transport: closed")

// Network delivers datagrams between numbered nodes. Implementations must
// be safe for concurrent use. Delivery is best-effort (UDP semantics).
type Network interface {
	// Send transmits data to dst. The buffer must not be retained.
	Send(src, dst int, data []byte)
	// Register installs the receive callback for a node. The callback may
	// be invoked from arbitrary goroutines and owns the buffer it is given.
	Register(id int, recv func(data []byte)) error
	// Unregister removes a node's receive callback.
	Unregister(id int)
}

// event is one unit of work for a node loop.
type event struct {
	data     []byte // non-nil: datagram
	timerKey int    // data == nil && fn == nil: timer expiry
	timerGen uint64 // generation the expiry belongs to
	fn       func() // externally injected action
}

// Node runs one handler on a network. Create with Start; stop with Close.
type Node struct {
	id      int
	h       proc.Handler
	net     Network
	inbox   chan event
	done    chan struct{}
	wg      sync.WaitGroup
	start   time.Time
	closing sync.Once

	mu     sync.Mutex
	timers map[int]*time.Timer
	// timerGen guards against stale expiries: a timer may fire and enqueue
	// its event in the same instant the handler cancels or re-arms it, and
	// time.Timer.Stop cannot retract the queued event. Each arm/cancel
	// bumps the key's generation; expiries carrying an old generation are
	// discarded by the loop. Engines would otherwise see ghost timeouts —
	// e.g. a just-elected primary deposing itself on the suspicion timer it
	// had already canceled.
	timerGen map[int]uint64
	closed   bool

	// drops counts datagrams discarded because the inbox was full (timer
	// expiries and injected actions wait for room instead); post runs on
	// arbitrary goroutines, hence atomic.
	drops atomic.Int64

	// crashDump, when set, runs on the loop goroutine if the handler
	// panics, before the panic resumes (see SetCrashDump).
	crashDump atomic.Value // func()
}

// nodeEnv is the proc.Env exposed to the handler; all its methods run on
// the loop goroutine.
type nodeEnv struct{ n *Node }

var _ proc.Env = nodeEnv{}

func (e nodeEnv) Now() time.Duration   { return time.Since(e.n.start) }
func (e nodeEnv) Charge(time.Duration) {}

func (e nodeEnv) Send(dst int, data []byte) {
	e.n.net.Send(e.n.id, dst, data)
}

func (e nodeEnv) Multicast(dsts []int, data []byte) {
	for _, dst := range dsts {
		e.n.net.Send(e.n.id, dst, data)
	}
}

func (e nodeEnv) SetTimer(key int, d time.Duration) {
	n := e.n
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	if t, ok := n.timers[key]; ok {
		t.Stop()
	}
	n.timerGen[key]++
	gen := n.timerGen[key]
	// The expiry waits for inbox room rather than being dropped: timers
	// re-arm only from their own OnTimer, so a lost expiry would silence
	// the timer for good. The generation check discards it if stale.
	n.timers[key] = time.AfterFunc(d, func() {
		_ = n.enqueue(event{timerKey: key, timerGen: gen})
	})
}

func (e nodeEnv) CancelTimer(key int) {
	n := e.n
	n.mu.Lock()
	defer n.mu.Unlock()
	n.timerGen[key]++
	if t, ok := n.timers[key]; ok {
		t.Stop()
		delete(n.timers, key)
	}
}

// timerCurrent reports whether a fired timer's generation is still live.
func (n *Node) timerCurrent(key int, gen uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.timerGen[key] == gen
}

// Start registers the handler on the network and launches its event loop.
func Start(id int, h proc.Handler, net Network) (*Node, error) {
	n := &Node{
		id:       id,
		h:        h,
		net:      net,
		inbox:    make(chan event, 4096),
		done:     make(chan struct{}),
		start:    time.Now(),
		timers:   make(map[int]*time.Timer),
		timerGen: make(map[int]uint64),
	}
	if err := net.Register(id, n.post); err != nil {
		return nil, fmt.Errorf("transport: registering node %d: %w", id, err)
	}
	n.wg.Add(1)
	go n.loop()
	return n, nil
}

// post enqueues a datagram, dropping (and counting) it if the node is
// saturated — datagram semantics: the protocol retransmits.
func (n *Node) post(data []byte) {
	select {
	case n.inbox <- event{data: data}:
	case <-n.done:
	default:
		// Inbox full: drop, like a kernel socket buffer.
		n.drops.Add(1)
	}
}

// Dropped reports how many datagrams were discarded on a full inbox.
func (n *Node) Dropped() int64 { return n.drops.Load() }

// Done returns a channel closed when the node stops. Waiters on injected
// actions select on it alongside their own completion signal: Do can
// succeed in enqueueing just before Close, in which case the action never
// runs and only Done unblocks the waiter.
func (n *Node) Done() <-chan struct{} { return n.done }

// Uptime returns the wall-clock time since the node started — the same
// clock its proc.Env.Now serves the engine, so engine-recorded instants
// (e.g. core.Replica.PeerHeard) compare directly against it.
func (n *Node) Uptime() time.Duration { return time.Since(n.start) }

// RegisterMetrics exposes the node's transport counters under prefix
// (e.g. "node3."). The gauges are atomics and safe to snapshot while the
// node runs.
func (n *Node) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.GaugeFunc(prefix+"inbox_drops", n.drops.Load)
	reg.GaugeFunc(prefix+"inbox_depth", func() int64 { return int64(len(n.inbox)) })
}

// SetCrashDump installs a hook that runs on the loop goroutine when a
// handler panic escapes, before the panic resumes. Because the loop is
// the engine's only writer, the hook may read engine state (the trace
// ring, counters) directly — this is how hosts flush the flight recorder
// on a crash. The hook must not panic itself; the original panic value is
// re-raised unchanged so crash semantics (exit status, stack trace) are
// preserved.
func (n *Node) SetCrashDump(fn func()) {
	n.crashDump.Store(fn)
}

// Do runs fn on the node's event loop (used to inject client operations).
func (n *Node) Do(fn func()) error { return n.enqueue(event{fn: fn}) }

// enqueue waits for inbox room, failing only once the node is closed.
func (n *Node) enqueue(ev event) error {
	// Check done first: a select with both cases ready picks randomly, and
	// enqueueing onto a closed node must fail deterministically.
	select {
	case <-n.done:
		return ErrClosed
	default:
	}
	select {
	case n.inbox <- ev:
		return nil
	case <-n.done:
		return ErrClosed
	}
}

func (n *Node) loop() {
	defer n.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			if fn, ok := n.crashDump.Load().(func()); ok && fn != nil {
				fn()
			}
			panic(r)
		}
	}()
	env := nodeEnv{n: n}
	n.h.Init(env)
	for {
		select {
		case <-n.done:
			return
		case ev := <-n.inbox:
			switch {
			case ev.fn != nil:
				ev.fn()
			case ev.data != nil:
				n.h.Receive(ev.data)
			default:
				if n.timerCurrent(ev.timerKey, ev.timerGen) {
					n.h.OnTimer(ev.timerKey)
				}
			}
		}
	}
}

// Close stops the loop, cancels timers, and unregisters from the network.
func (n *Node) Close() {
	n.closing.Do(func() {
		n.mu.Lock()
		n.closed = true
		for _, t := range n.timers {
			t.Stop()
		}
		n.mu.Unlock()
		n.net.Unregister(n.id)
		close(n.done)
		n.wg.Wait()
	})
}
