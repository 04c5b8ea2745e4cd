package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bftfast/internal/proc"
)

// echoHandler replies to every datagram by sending it back to a fixed peer
// and counts timer fires.
type echoHandler struct {
	env    proc.Env
	peer   int
	mu     sync.Mutex
	seen   [][]byte
	timers []int
}

func (h *echoHandler) Init(env proc.Env) { h.env = env }

func (h *echoHandler) Receive(data []byte) {
	h.mu.Lock()
	h.seen = append(h.seen, data)
	h.mu.Unlock()
	if h.peer >= 0 {
		h.env.Send(h.peer, append([]byte("echo:"), data...))
	}
}

func (h *echoHandler) OnTimer(key int) {
	h.mu.Lock()
	h.timers = append(h.timers, key)
	h.mu.Unlock()
}

func (h *echoHandler) messages() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.seen)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestChannelNetworkRoundTrip(t *testing.T) {
	net := NewChannelNetwork()
	a := &echoHandler{peer: 1}
	b := &echoHandler{peer: -1}
	na, err := Start(0, a, net)
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	nb, err := Start(1, b, net)
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()

	if err := na.Do(func() { a.env.Send(1, []byte("ping")) }); err != nil {
		t.Fatal(err)
	}
	// b got "ping" directly? No: a sent to 1 => b receives "ping"; b's peer
	// is -1 so no echo. Send from b to a instead to test both directions.
	waitFor(t, "b to receive", func() bool { return b.messages() == 1 })
	if err := nb.Do(func() { b.env.Send(0, []byte("pong")) }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a to receive and echo", func() bool { return a.messages() == 1 && b.messages() == 2 })
}

func TestChannelNetworkDuplicateRegistration(t *testing.T) {
	net := NewChannelNetwork()
	n, err := Start(7, &echoHandler{peer: -1}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := Start(7, &echoHandler{peer: -1}, net); err == nil {
		t.Fatal("duplicate node id accepted")
	}
}

func TestChannelNetworkPartition(t *testing.T) {
	net := NewChannelNetwork()
	a := &echoHandler{peer: -1}
	b := &echoHandler{peer: -1}
	na, _ := Start(0, a, net)
	defer na.Close()
	nb, _ := Start(1, b, net)
	defer nb.Close()

	net.SetPartitioned(1, true)
	_ = na.Do(func() { a.env.Send(1, []byte("lost")) })
	time.Sleep(20 * time.Millisecond)
	if b.messages() != 0 {
		t.Fatal("partitioned node received a message")
	}
	net.SetPartitioned(1, false)
	_ = na.Do(func() { a.env.Send(1, []byte("found")) })
	waitFor(t, "healed delivery", func() bool { return b.messages() == 1 })
}

func TestTimersFireAndCancel(t *testing.T) {
	net := NewChannelNetwork()
	h := &echoHandler{peer: -1}
	n, _ := Start(0, h, net)
	defer n.Close()

	_ = n.Do(func() {
		h.env.SetTimer(1, 10*time.Millisecond)
		h.env.SetTimer(2, 15*time.Millisecond)
		h.env.CancelTimer(2)
	})
	time.Sleep(60 * time.Millisecond)
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.timers) != 1 || h.timers[0] != 1 {
		t.Fatalf("timers fired: %v, want [1]", h.timers)
	}
}

// TestStaleTimerExpirySuppressed pins the regression where a timer firing
// concurrently with its cancellation still delivered OnTimer (which made a
// freshly elected primary depose itself).
func TestStaleTimerExpirySuppressed(t *testing.T) {
	net := NewChannelNetwork()
	h := &echoHandler{peer: -1}
	n, _ := Start(0, h, net)
	defer n.Close()

	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		err := n.Do(func() {
			defer wg.Done()
			// Arm a timer that fires essentially immediately, then cancel
			// it after a tiny spin — often after the expiry was enqueued.
			h.env.SetTimer(9, time.Microsecond)
			busy := time.Now()
			for time.Since(busy) < 50*time.Microsecond {
				_ = busy
			}
			h.env.CancelTimer(9)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	time.Sleep(20 * time.Millisecond)
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.timers) != 0 {
		t.Fatalf("%d stale timer expiries delivered after cancellation", len(h.timers))
	}
}

func TestUDPNetworkRoundTrip(t *testing.T) {
	net, err := NewUDPNetwork(map[int]string{
		0: "127.0.0.1:48311",
		1: "127.0.0.1:48312",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	a := &echoHandler{peer: 1}
	b := &echoHandler{peer: -1}
	na, err := Start(0, a, net)
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	nb, err := Start(1, b, net)
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()

	_ = na.Do(func() { a.env.Send(1, []byte("over-udp")) })
	waitFor(t, "UDP delivery", func() bool { return b.messages() == 1 })
	b.mu.Lock()
	got := string(b.seen[0])
	b.mu.Unlock()
	if got != "over-udp" {
		t.Fatalf("received %q", got)
	}
}

func TestUDPNetworkUnknownAddress(t *testing.T) {
	if _, err := NewUDPNetwork(map[int]string{0: "not-an-address"}); err == nil {
		t.Fatal("bad address accepted")
	}
	net, err := NewUDPNetwork(map[int]string{0: "127.0.0.1:48321"})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if err := net.Register(5, func([]byte) {}); err == nil {
		t.Fatal("registration for unknown node accepted")
	}
}

func TestNodeCloseIsIdempotentAndStopsDo(t *testing.T) {
	net := NewChannelNetwork()
	h := &echoHandler{peer: -1}
	n, _ := Start(0, h, net)
	n.Close()
	n.Close() // must not panic or deadlock
	if err := n.Do(func() {}); err == nil {
		t.Fatal("Do succeeded on a closed node")
	}
}

func TestManyNodesConcurrentTraffic(t *testing.T) {
	net := NewChannelNetwork()
	const nodes = 8
	var total atomic.Int64
	type counter struct {
		echoHandler
		total *atomic.Int64
	}
	handlers := make([]*counter, nodes)
	for i := 0; i < nodes; i++ {
		handlers[i] = &counter{echoHandler: echoHandler{peer: -1}, total: &total}
	}
	nodesArr := make([]*Node, nodes)
	for i := 0; i < nodes; i++ {
		nn, err := Start(i, handlers[i], net)
		if err != nil {
			t.Fatal(err)
		}
		nodesArr[i] = nn
		defer nn.Close()
	}
	for i := 0; i < nodes; i++ {
		i := i
		_ = nodesArr[i].Do(func() {
			for j := 0; j < nodes; j++ {
				if j != i {
					handlers[i].env.Send(j, []byte(fmt.Sprintf("from %d", i)))
				}
			}
		})
	}
	waitFor(t, "all-to-all delivery", func() bool {
		sum := 0
		for _, h := range handlers {
			sum += h.messages()
		}
		return sum == nodes*(nodes-1)
	})
}

func TestChannelNetworkLossAndDelay(t *testing.T) {
	net := NewChannelNetwork()
	a := &echoHandler{peer: -1}
	b := &echoHandler{peer: -1}
	na, _ := Start(0, a, net)
	defer na.Close()
	nb, _ := Start(1, b, net)
	defer nb.Close()

	// Total loss: nothing arrives.
	net.SetLossRate(1.0)
	for i := 0; i < 20; i++ {
		_ = na.Do(func() { a.env.Send(1, []byte("x")) })
	}
	time.Sleep(20 * time.Millisecond)
	if b.messages() != 0 {
		t.Fatal("messages survived a 100% loss rate")
	}

	// No loss, but delay: delivery happens, later.
	net.SetLossRate(0)
	net.SetDelay(30 * time.Millisecond)
	start := time.Now()
	_ = na.Do(func() { a.env.Send(1, []byte("y")) })
	waitFor(t, "delayed delivery", func() bool { return b.messages() == 1 })
	if since := time.Since(start); since < 25*time.Millisecond {
		t.Fatalf("delivery after %v, want >= the configured delay", since)
	}
}

func TestPublicClusterSurvivesLossyNetwork(t *testing.T) {
	// Exercised through the raw transport here; the bft package test suite
	// covers the same path through the public API.
	net := NewChannelNetwork()
	net.SetLossRate(0.2)
	a := &echoHandler{peer: 1}
	b := &echoHandler{peer: -1}
	na, _ := Start(0, a, net)
	defer na.Close()
	nb, _ := Start(1, b, net)
	defer nb.Close()
	delivered := func() int { return b.messages() }
	for i := 0; i < 200; i++ {
		_ = na.Do(func() { a.env.Send(1, []byte("z")) })
	}
	waitFor(t, "most messages through 20% loss", func() bool { return delivered() > 100 })
}

// rearmHandler blocks inside its first Receive until released and keeps
// one timer re-arming itself from OnTimer, the way a replica's status and
// recovery timers do.
type rearmHandler struct {
	env     proc.Env
	blocked chan struct{} // closed once the first Receive is blocking
	arm     chan struct{} // tells the blocked Receive to arm the timer
	release chan struct{} // unblocks the first Receive
	first   sync.Once
	fires   atomic.Int64
}

func (h *rearmHandler) Init(env proc.Env) { h.env = env }

func (h *rearmHandler) Receive([]byte) {
	h.first.Do(func() {
		close(h.blocked)
		<-h.arm
		h.env.SetTimer(1, time.Millisecond)
		<-h.release
	})
}

func (h *rearmHandler) OnTimer(key int) {
	h.fires.Add(1)
	h.env.SetTimer(key, time.Millisecond)
}

// TestTimerExpirySurvivesFullInbox pins that a timer expiry is never lost
// to a saturated inbox. Timers re-arm only from their own OnTimer, so an
// expiry dropped like a datagram would silence the timer for good.
func TestTimerExpirySurvivesFullInbox(t *testing.T) {
	net := NewChannelNetwork()
	h := &rearmHandler{
		blocked: make(chan struct{}),
		arm:     make(chan struct{}),
		release: make(chan struct{}),
	}
	n, err := Start(0, h, net)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	n.post([]byte("block"))
	<-h.blocked
	for i := 0; i <= cap(n.inbox); i++ {
		n.post([]byte("flood"))
	}
	if n.Dropped() == 0 {
		t.Fatal("inbox never filled")
	}
	// Arm the timer while the inbox is full and let it expire into it.
	close(h.arm)
	time.Sleep(50 * time.Millisecond)
	close(h.release)

	waitFor(t, "the re-arming timer to keep firing", func() bool { return h.fires.Load() >= 5 })
}
