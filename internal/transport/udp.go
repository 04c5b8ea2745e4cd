package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"bftfast/internal/obs"
)

// maxDatagram bounds UDP reads; the protocol's largest normal-case
// messages are pre-prepares bounded by the batch size, and state-transfer
// fragments are 8 KiB, both far below this.
const maxDatagram = 64 << 10

// defaultSocketBuffer is the kernel send/receive buffer size requested for
// each node's socket. The OS-default UDP buffer (a couple hundred KiB on
// Linux) overflows under the benchmark's burst rates long before the
// engine saturates; one MiB rides out multi-sender bursts. The kernel
// clamps to its configured maximum (net.core.rmem_max) silently.
const defaultSocketBuffer = 1 << 20

// UDPNetwork is a Network over real UDP sockets, one per local node. The
// address table maps node ids to UDP addresses (typically loopback ports in
// the demo, distinct hosts in a deployment).
type UDPNetwork struct {
	addrs map[int]*net.UDPAddr

	// ReadBufferBytes and WriteBufferBytes size each socket's kernel
	// buffers at Register time (SetReadBuffer/SetWriteBuffer); zero means
	// defaultSocketBuffer, negative leaves the OS default. Set before
	// registering nodes.
	ReadBufferBytes  int
	WriteBufferBytes int

	mu    sync.Mutex
	conns map[int]*net.UDPConn
	wg    sync.WaitGroup

	oversized atomic.Int64
}

// Oversized reports how many inbound datagrams were dropped because they
// filled the entire read buffer and may have been truncated by the kernel.
// A nonzero count means a peer sends datagrams at or above maxDatagram and
// the limit needs raising in lockstep on every node.
func (u *UDPNetwork) Oversized() int64 { return u.oversized.Load() }

// Backpressure always returns 0: every receive callback accepts every
// datagram. It stays only because the end-to-end benchmark still reads it
// as its transport.udp_backpressure metric.
func (u *UDPNetwork) Backpressure() int64 { return 0 }

// RegisterMetrics exposes the network's drop counter under prefix
// (e.g. "udp.") through the unified obs snapshot API. The gauges read
// atomics and are safe to snapshot while readers run.
func (u *UDPNetwork) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.GaugeFunc(prefix+"oversized", u.oversized.Load)
}

// NewUDPNetwork builds a network from a node-id to address table.
func NewUDPNetwork(addrs map[int]string) (*UDPNetwork, error) {
	resolved := make(map[int]*net.UDPAddr, len(addrs))
	for id, a := range addrs {
		ua, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			return nil, fmt.Errorf("transport: resolving %q for node %d: %w", a, id, err)
		}
		resolved[id] = ua
	}
	return &UDPNetwork{addrs: resolved, conns: make(map[int]*net.UDPConn)}, nil
}

func sizeOrDefault(configured int) int {
	if configured == 0 {
		return defaultSocketBuffer
	}
	return configured
}

// Register implements Network: binds and sizes the node's socket and
// starts its reader goroutine. Buffer-sizing errors are ignored: kernels
// clamp oversized requests, and a socket with default buffers still works
// — just drops earlier under load.
func (u *UDPNetwork) Register(id int, recv func(data []byte)) error {
	addr, ok := u.addrs[id]
	if !ok {
		return fmt.Errorf("transport: no address for node %d", id)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return fmt.Errorf("transport: binding node %d: %w", id, err)
	}
	if rb := sizeOrDefault(u.ReadBufferBytes); rb > 0 {
		_ = conn.SetReadBuffer(rb)
	}
	if wb := sizeOrDefault(u.WriteBufferBytes); wb > 0 {
		_ = conn.SetWriteBuffer(wb)
	}
	u.mu.Lock()
	u.conns[id] = conn
	u.mu.Unlock()
	u.wg.Add(1)
	go func() {
		defer u.wg.Done()
		buf := make([]byte, maxDatagram)
		for {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				return // closed
			}
			u.deliver(buf, n, recv)
		}
	}()
	return nil
}

// deliver copies one received datagram of length n out of the reader's
// buffer and hands it to recv — unless it filled the buffer completely,
// in which case the kernel may have cut it off. Delivering that would
// hand the engine a silently truncated message, violating the "dropped,
// delayed, or duplicated, but not truncated midway" datagram promise of
// proc.Env, so the datagram is dropped and counted instead (the protocol
// retransmits).
func (u *UDPNetwork) deliver(buf []byte, n int, recv func(data []byte)) {
	if n >= len(buf) {
		u.oversized.Add(1)
		return
	}
	data := make([]byte, n)
	copy(data, buf[:n])
	recv(data)
}

// Unregister implements Network: closes the node's socket, stopping its
// reader.
func (u *UDPNetwork) Unregister(id int) {
	u.mu.Lock()
	conn := u.conns[id]
	delete(u.conns, id)
	u.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// Send implements Network.
func (u *UDPNetwork) Send(src, dst int, data []byte) {
	addr, ok := u.addrs[dst]
	if !ok {
		return
	}
	u.mu.Lock()
	conn := u.conns[src]
	u.mu.Unlock()
	if conn == nil {
		return
	}
	_, _ = conn.WriteToUDP(data, addr) // best effort, like the wire
}

// Close shuts every local socket and waits for readers to exit.
func (u *UDPNetwork) Close() {
	u.mu.Lock()
	for id, conn := range u.conns {
		_ = conn.Close()
		delete(u.conns, id)
	}
	u.mu.Unlock()
	u.wg.Wait()
}
