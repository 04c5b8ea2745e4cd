package core

import (
	"bftfast/internal/crypto"
	"bftfast/internal/proc"
)

// StateMachine is the deterministic service replicated by the protocol.
// All replicas must produce identical results and state digests when they
// execute the same operations in the same order; any nondeterminism (time,
// randomness, map iteration order) must be resolved before reaching the
// state machine.
type StateMachine interface {
	// Execute applies op on behalf of client and returns the result.
	// readOnly is true only for operations the service itself declares
	// read-only; implementations must not mutate state when it is set.
	// The replica retains the returned slice by reference (as the
	// client's stored reply, and in checkpoints), so the service must not
	// modify a result after returning it.
	Execute(client int32, op []byte, readOnly bool) []byte

	// StateDigest returns a digest of the current service state. It is
	// compared across replicas at every checkpoint, so it must be a
	// deterministic function of state — and it should be cheap
	// (incrementally maintained), since it runs every CheckpointInterval
	// batches. The paper's library achieved this with copy-on-write pages
	// and hierarchical digests.
	StateDigest() crypto.Digest

	// Freeze returns a read-only view of the current service state. Later
	// Execute and Restore calls must not change what the view's Snapshot
	// returns. The replica freezes state at every checkpoint and
	// serialises a view only when a peer fetches the checkpoint or a view
	// change rolls back tentative execution, so Freeze should be cheap:
	// copy-on-write, as the paper's library did with pages. Services with
	// small state may simply return a copy (FrozenBytes(Snapshot())).
	Freeze() Frozen

	// Snapshot serializes the full service state; it defines Restore's
	// input format and must equal Freeze().Snapshot().
	Snapshot() []byte

	// Restore replaces the service state from a Snapshot serialization.
	Restore(snap []byte) error
}

// Frozen is a read-only view of service state captured by
// StateMachine.Freeze.
type Frozen interface {
	// Snapshot serializes the state as of the Freeze call, in the
	// StateMachine.Snapshot format. The caller must not modify the result.
	Snapshot() []byte
}

// FrozenBytes is a Frozen over an already-serialised snapshot.
type FrozenBytes []byte

// Snapshot implements Frozen.
func (b FrozenBytes) Snapshot() []byte { return b }

// EnvAware is implemented by state machines that model execution cost (or
// need timers/time); the replica hands them its environment before any
// Execute call.
type EnvAware interface {
	SetEnv(env proc.Env)
}
