// Package flow seeds verify-before-mutate violations for the macflow
// analyzer: transport bytes reaching state stores with and without a
// crypto verification event in between. Loaded under an engine import
// path by the test.
package flow

import (
	"bftfast/internal/crypto"
	"bftfast/internal/message"
	"bftfast/internal/proc"
)

type engine struct {
	key    crypto.Key
	last   map[int32][]byte
	acks   int64
	inner  proc.Handler
	stats  struct{ Dropped int64 }
	wantD  crypto.Digest
	bodies map[crypto.Digest][]byte
}

// Receive is the taint entry point. The raw store and the unverified
// decoded store are violations; the stats tick is exempt.
func (e *engine) Receive(data []byte) {
	d := message.NewDecoder(data)
	client := d.I32()
	body := d.Blob()
	tag := d.MAC()
	if d.Finish() != nil {
		e.stats.Dropped++
		return
	}
	e.last[client] = body // want `unverified message bytes stored into e\.last before any crypto verification`
	e.apply(client, body)
	_ = tag
}

// apply receives the taint through the worklist: the store here is the
// same violation one call deep.
func (e *engine) apply(client int32, body []byte) {
	e.last[client] = body // want `unverified message bytes stored into e\.last before any crypto verification`
}

// ReceiveChecked is the contract's shape: verify, then mutate. Silent.
func (e *engine) ReceiveChecked(data []byte) { e.checked(data) }

func (e *engine) checked(data []byte) {
	d := message.NewDecoder(data)
	client := d.I32()
	body := d.Blob()
	tag := d.MAC()
	if d.Finish() != nil {
		return
	}
	if !crypto.VerifyMAC(e.key, tag, body) {
		e.stats.Dropped++
		return
	}
	e.last[client] = body
	e.acks++
}

// Receive2 routes through checked: the callee's verification covers the
// handoff, so nothing fires past it.
type engine2 struct {
	engine
}

func (e *engine2) Receive(data []byte) {
	e.checked(data)
}

// digestEngine validates content against an already-trusted digest
// instead of a MAC: a Digest comparison is a verification event.
type digestEngine struct {
	engine
}

func (e *digestEngine) Receive(data []byte) {
	d := message.NewDecoder(data)
	body := d.Blob()
	got := d.Digest()
	if d.Finish() != nil {
		return
	}
	if got != e.wantD {
		return
	}
	e.bodies[got] = body
}

// forwarder hands raw bytes to an inner handler (the adversary-wrapper
// shape): a handoff, not a mutation. Silent.
type forwarder struct {
	engine
}

func (f *forwarder) Receive(data []byte) {
	f.inner.Receive(data)
}

// quarantine retains raw bytes pre-verification on purpose, with the
// documented justification.
type quarantine struct {
	engine
	frags map[int32][]byte
}

func (q *quarantine) Receive(data []byte) {
	d := message.NewDecoder(data)
	seq := d.I32()
	frag := d.Blob()
	if d.Finish() != nil {
		return
	}
	//bftvet:allow:macflow reassembly buffer is quarantined; the rebuilt message re-enters Receive and verifies there
	q.frags[seq] = frag
}
