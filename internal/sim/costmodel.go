// Package sim is a deterministic discrete-event simulator of the paper's
// testbed: Dell Precision 410 hosts (600 MHz Pentium III) on a 100 Mb/s
// switched Ethernet (Extreme Networks Summit48). Protocol engines from
// internal/proc run unchanged on it in virtual time.
//
// The simulator models three resources per host — a single CPU, a
// full-duplex egress link, and a full-duplex ingress link — plus a
// store-and-forward switch with hardware multicast. Messages are real
// encoded bytes; transmission is charged by actual size, and CPU is charged
// per real cryptographic operation (through the crypto.Meter interface) at
// 2001-era MD5/UMAC costs, plus fixed per-datagram protocol-stack costs.
package sim

import "time"

// CostModel holds the calibration constants of the simulated testbed.
// The defaults approximate the paper's hardware; see DESIGN.md §5 and
// EXPERIMENTS.md for the calibration discussion.
type CostModel struct {
	// LinkBytesPerSec is the per-port bandwidth of the switched Ethernet
	// (full duplex, so ingress and egress each get this much).
	LinkBytesPerSec float64

	// WireLatency is the fixed propagation + switch store-and-forward
	// latency added to every hop.
	WireLatency time.Duration

	// FrameOverheadBytes is added to every datagram on the wire
	// (Ethernet + IP + UDP headers).
	FrameOverheadBytes int

	// SendFixed and RecvFixed are the per-datagram protocol-stack CPU
	// costs (system call, UDP/IP processing, interrupt handling).
	SendFixed time.Duration
	RecvFixed time.Duration

	// SendPerByte and RecvPerByte model per-byte kernel copy costs.
	SendPerByte time.Duration
	RecvPerByte time.Duration

	// DigestFixed and DigestPerByte model MD5 on the 600 MHz PIII.
	DigestFixed   time.Duration
	DigestPerByte time.Duration

	// MACFixed and MACPerByte model UMAC32; per the paper its cost is
	// negligible next to digests.
	MACFixed   time.Duration
	MACPerByte time.Duration

	// TimerFixed is the CPU cost of handling a timer expiry.
	TimerFixed time.Duration

	// SocketBufferBytes bounds each host's CPU-side receive queue;
	// datagrams arriving while it is full are dropped, like UDP.
	SocketBufferBytes int

	// SwitchBufferBytes bounds the wire-side queue toward one host (switch
	// output buffer + NIC ring). Bursts beyond it are tail-dropped.
	SwitchBufferBytes int

	// RareLossBacklog and RareLossEvery model the residual datagram loss
	// of a receive path under sustained near-saturation (NIC-ring and IP
	// reassembly pressure): once the standing wire backlog exceeds
	// RareLossBacklog, every RareLossEvery-th *fragmented* datagram (larger
	// than one Ethernet frame; losing any fragment loses the datagram) is
	// dropped. Single-frame protocol messages are unaffected. For the
	// unreplicated baseline — which never retransmits — even this rare
	// loss parks clients for good, which is why the paper has no NO-REP
	// data points beyond 15 clients of 4 KB requests; the BFT library
	// fetches or retransmits through it.
	RareLossBacklog time.Duration
	RareLossEvery   int
}

// DefaultCostModel returns the calibrated testbed constants.
func DefaultCostModel() CostModel {
	return CostModel{
		LinkBytesPerSec:    12.5e6, // 100 Mb/s
		WireLatency:        25 * time.Microsecond,
		FrameOverheadBytes: 46, // Ethernet(18) + IP(20) + UDP(8)
		SendFixed:          30 * time.Microsecond,
		RecvFixed:          40 * time.Microsecond,
		SendPerByte:        8 * time.Nanosecond, // ~125 MB/s kernel copy
		RecvPerByte:        8 * time.Nanosecond,
		DigestFixed:        2 * time.Microsecond,
		DigestPerByte:      13 * time.Nanosecond, // MD5 ≈ 75 MB/s on a PIII
		MACFixed:           1 * time.Microsecond,
		MACPerByte:         1 * time.Nanosecond, // UMAC ≈ 1 cycle/byte
		TimerFixed:         5 * time.Microsecond,
		SocketBufferBytes:  64 << 10, // era-default UDP receive buffer
		SwitchBufferBytes:  3 << 20,  // the Summit48 had 3 MB of shared packet memory
		RareLossBacklog:    6 * time.Millisecond,
		RareLossEvery:      2000,
	}
}

// txTime returns the wire occupancy of a datagram with the given payload.
func (c *CostModel) txTime(payload int) time.Duration {
	bytes := float64(payload + c.FrameOverheadBytes)
	return time.Duration(bytes / c.LinkBytesPerSec * float64(time.Second))
}

// sendCost returns the sender-side CPU cost of one datagram.
func (c *CostModel) sendCost(payload int) time.Duration {
	return c.SendFixed + time.Duration(payload)*c.SendPerByte
}

// recvCost returns the receiver-side CPU cost of one datagram.
func (c *CostModel) recvCost(payload int) time.Duration {
	return c.RecvFixed + time.Duration(payload)*c.RecvPerByte
}

// digestCost returns the CPU cost of hashing n bytes.
func (c *CostModel) digestCost(n int) time.Duration {
	return c.DigestFixed + time.Duration(n)*c.DigestPerByte
}

// macCost returns the CPU cost of one MAC over n bytes.
func (c *CostModel) macCost(n int) time.Duration {
	return c.MACFixed + time.Duration(n)*c.MACPerByte
}
