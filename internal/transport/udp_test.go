package transport

import (
	"testing"

	"bftfast/internal/obs"
)

// TestUDPDeliverDropsBufferFillingDatagram checks the truncation guard: a
// read that fills the entire buffer may have been cut off by the kernel,
// and datagram semantics promise "not truncated midway" — so it must be
// dropped and counted, never delivered. A real socket cannot produce the
// condition on IPv4 (payloads cap at 65507 < maxDatagram), so the
// decision is driven directly.
func TestUDPDeliverDropsBufferFillingDatagram(t *testing.T) {
	u := &UDPNetwork{}
	buf := make([]byte, maxDatagram)

	delivered := 0
	u.deliver(buf, maxDatagram, func([]byte) { delivered++ })
	if delivered != 0 {
		t.Fatal("buffer-filling datagram was delivered despite possible truncation")
	}
	if got := u.Oversized(); got != 1 {
		t.Fatalf("Oversized() = %d, want 1", got)
	}

	u.deliver(buf, maxDatagram-1, func(data []byte) {
		delivered++
		if len(data) != maxDatagram-1 {
			t.Fatalf("delivered %d bytes, want %d", len(data), maxDatagram-1)
		}
	})
	if delivered != 1 {
		t.Fatal("maximum-size untruncated datagram was not delivered")
	}
	if got := u.Oversized(); got != 1 {
		t.Fatalf("Oversized() = %d after legal delivery, want 1", got)
	}
}

// TestUDPMetricsSnapshot checks the drop counters surface through the
// unified obs registry: the snapshot gauge tracks Oversized live.
func TestUDPMetricsSnapshot(t *testing.T) {
	u := &UDPNetwork{}
	reg := obs.NewRegistry()
	u.RegisterMetrics(reg, "udp.")

	m, ok := reg.Get("udp.oversized")
	if !ok || m.Kind != obs.KindGauge || m.Value != 0 {
		t.Fatalf("udp.oversized = %+v (ok=%v), want gauge 0", m, ok)
	}

	buf := make([]byte, maxDatagram)
	u.deliver(buf, maxDatagram, func([]byte) { t.Fatal("truncated datagram delivered") })
	u.deliver(buf, maxDatagram, func([]byte) { t.Fatal("truncated datagram delivered") })

	if m, _ = reg.Get("udp.oversized"); m.Value != 2 {
		t.Fatalf("udp.oversized = %d after two drops, want 2", m.Value)
	}
	if m.Value != u.Oversized() {
		t.Fatalf("snapshot %d disagrees with Oversized() %d", m.Value, u.Oversized())
	}
}

// TestNodeMetricsSnapshot checks the event-loop inbox drop counter is
// exported through the same registry surface.
func TestNodeMetricsSnapshot(t *testing.T) {
	n := &Node{inbox: make(chan event), done: make(chan struct{})}
	reg := obs.NewRegistry()
	n.RegisterMetrics(reg, "node0.")

	// An unserviced zero-capacity inbox forces the drop path.
	n.post([]byte("x"))
	n.post([]byte("y"))

	if got := n.Dropped(); got != 2 {
		t.Fatalf("Dropped() = %d, want 2", got)
	}
	if m, ok := reg.Get("node0.inbox_drops"); !ok || m.Value != 2 {
		t.Fatalf("node0.inbox_drops = %+v (ok=%v), want 2", m, ok)
	}
}

// TestUDPDeliverCopiesOutOfReadBuffer checks delivery hands the engine a
// private copy: the reader immediately reuses its buffer for the next
// ReadFromUDP, so aliasing it would corrupt earlier messages.
func TestUDPDeliverCopiesOutOfReadBuffer(t *testing.T) {
	u := &UDPNetwork{}
	buf := []byte("first-datagram..padding")
	var got []byte
	u.deliver(buf, 5, func(data []byte) { got = data })
	copy(buf, "XXXXX")
	if string(got) != "first" {
		t.Fatalf("delivered data aliases the read buffer: %q", got)
	}
}

// TestUDPSocketBufferSizing exercises the socket-buffer knobs: explicit
// sizes and the leave-OS-default escape hatch must both register cleanly
// (the kernel may clamp the values; the calls themselves must not fail
// registration).
func TestUDPSocketBufferSizing(t *testing.T) {
	net, err := NewUDPNetwork(map[int]string{0: "127.0.0.1:48356", 1: "127.0.0.1:48357"})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.ReadBufferBytes = 256 << 10
	net.WriteBufferBytes = -1 // leave the OS default
	if err := net.Register(0, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	net.ReadBufferBytes = 0 // defaultSocketBuffer
	net.WriteBufferBytes = 0
	if err := net.Register(1, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
}
