// Package simpleservice is the paper's micro-benchmark service: a stateless
// skeleton whose operations take an argument of a chosen size and return a
// zero-filled result of a chosen size, performing no computation. The
// paper's operation "a/b" has an a-KB argument and a b-KB result; it is the
// worst case for the replication library because there is no service work
// to hide the protocol behind.
package simpleservice

import (
	"encoding/binary"

	"bftfast/internal/core"
	"bftfast/internal/crypto"
)

// header is the fixed prefix of an operation: 4 bytes of requested result
// size.
const header = 4

// Op builds an operation whose encoded argument occupies argBytes (>= 4)
// and that requests a result of resultBytes.
func Op(argBytes, resultBytes int) []byte {
	if argBytes < header {
		argBytes = header
	}
	op := make([]byte, argBytes)
	binary.LittleEndian.PutUint32(op, uint32(resultBytes))
	return op
}

// Service implements core.StateMachine for the null service.
type Service struct{}

var _ core.StateMachine = Service{}

// Execute returns a zero-filled result of the requested size.
func (Service) Execute(client int32, op []byte, readOnly bool) []byte {
	if len(op) < header {
		return nil
	}
	n := binary.LittleEndian.Uint32(op)
	return make([]byte, n)
}

// StateDigest implements core.StateMachine; the service has no state.
func (Service) StateDigest() crypto.Digest { return crypto.Digest{} }

// Freeze implements core.StateMachine.
func (Service) Freeze() core.Frozen { return core.FrozenBytes(nil) }

// Snapshot implements core.StateMachine.
func (Service) Snapshot() []byte { return nil }

// Restore implements core.StateMachine.
func (Service) Restore([]byte) error { return nil }
