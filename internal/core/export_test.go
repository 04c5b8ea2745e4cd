package core

import "bftfast/internal/crypto"

// Hooks for the external core_test package, whose tests run the replica
// over real services (which import core, so package core cannot).

// CheckpointForTest takes the checkpoint at seq as execution does every
// CheckpointInterval batches, makes it stable, and returns its digest.
func (r *Replica) CheckpointForTest(seq int64) crypto.Digest {
	r.lastExec, r.lastCommittedExec = seq, seq
	r.takeCheckpoint(seq)
	d := r.checkpoints[seq][int32(r.cfg.Self)]
	r.makeStable(seq, d)
	return d
}

// ServedSnapshotForTest returns the state a peer fetching checkpoint seq
// receives: every fragment, concatenated.
func (r *Replica) ServedSnapshotForTest(seq int64) []byte {
	var snap []byte
	for _, frag := range r.chunked(seq).frags {
		snap = append(snap, frag...)
	}
	return snap
}

// RestoreForTest installs a fetched checkpoint as state transfer does.
func (r *Replica) RestoreForTest(snap []byte) error { return r.restoreSnapshot(snap) }

// RollbackForTest undoes tentative execution back to the stable checkpoint.
func (r *Replica) RollbackForTest() { r.rollbackTentative() }

// CheckpointDigestForTest digests the current replica-visible state.
func (r *Replica) CheckpointDigestForTest() crypto.Digest { return r.checkpointDigest() }
