package core

import (
	"encoding/binary"

	"bftfast/internal/crypto"
)

// Parallel-leader ordering (multi-instance PBFT; see PROTOCOL.md
// "Parallel-leader ordering" and DESIGN.md §9). The sequence space is
// partitioned into g residue classes — instance i owns sequence numbers
// i+1, i+1+g, i+1+2g, ... — and each instance runs the ordinary
// three-phase ordering under its own leader. Requests are assigned to an
// instance by hashing their content digest, execution merges the
// instances back together by walking sequence numbers in order (the
// unchanged tryExecute loop), and a view change rotates every instance's
// leader at once while preserving all instances' prepared work.
//
// Every function here reduces exactly to the single-leader arithmetic at
// g = 1 (instance 0, leader PrimaryOf(view), classFloor(F) = F), which is
// what keeps Instances <= 1 bit-identical to the pre-extension engine.

// groups returns the number of ordering instances (never less than 1).
func (c *Config) groups() int {
	if c.Instances <= 1 {
		return 1
	}
	return c.Instances
}

// LeaderOf returns the leader of ordering instance inst in a view. At
// inst 0 it coincides with PrimaryOf: the group primary leads instance 0
// and coordinates view changes.
func (c *Config) LeaderOf(view int64, inst int) int {
	return int((view + int64(inst)) % int64(c.N))
}

// instanceOfSeq returns the ordering instance that owns a sequence
// number: seqs are dealt round-robin, instance i owning i+1, i+1+g, ...
// Callers guarantee seq >= 1 (sequence numbers start at 1).
func instanceOfSeq(seq int64, g int) int {
	return int((seq - 1) % int64(g))
}

// instanceForDigest assigns a request to an ordering instance by content
// digest (hash round-robin): the digest is already computed for
// authentication, is uniform, and every replica and client derives the
// same assignment with no extra coordination.
func instanceForDigest(d crypto.Digest, g int) int {
	if g <= 1 {
		return 0
	}
	return int(binary.LittleEndian.Uint64(d[:8]) % uint64(g))
}

// classFloor returns the largest sequence number <= f owned by instance
// inst, or the instance's pre-first-assignment base (inst+1-g) when the
// instance owns nothing at or below f. It is the per-instance
// generalization of the view-change rule lastPP = maxSeq: at g = 1 it
// returns f itself.
func classFloor(f int64, inst, g int) int64 {
	base := int64(inst + 1)
	d := f - base
	k := d / int64(g)
	if d < 0 && d%int64(g) != 0 {
		k--
	}
	return base + k*int64(g)
}

// leaderOfSeq returns the leader responsible for a sequence number in a
// view.
func (r *Replica) leaderOfSeq(view, seq int64) int {
	return r.cfg.LeaderOf(view, instanceOfSeq(seq, r.cfg.groups()))
}

// leadsSeq reports whether this replica leads the instance owning seq in
// the current view.
func (r *Replica) leadsSeq(seq int64) bool {
	return r.leaderOfSeq(r.view, seq) == r.cfg.Self
}

// ownInstance returns the ordering instance this replica leads in the
// current view, or -1 if it leads none. Instances <= N guarantees a
// replica leads at most one instance.
func (r *Replica) ownInstance() int {
	inst := int((int64(r.cfg.Self) - r.view) % int64(r.cfg.N))
	if inst < 0 {
		inst += r.cfg.N
	}
	if inst < r.cfg.groups() {
		return inst
	}
	return -1
}

// resetInstanceCounters aligns every instance's last-assigned sequence
// number with a new-view decision floor: instance i resumes at the
// highest owned seq <= floor (everything at or below floor was decided
// by the new view, so the next assignment of each instance is its first
// owned seq above floor).
func (r *Replica) resetInstanceCounters(floor int64) {
	g := r.cfg.groups()
	for i := range r.instPP {
		r.instPP[i] = classFloor(floor, i, g)
	}
	r.maxKnownPP = floor
}

// fillInstanceGaps keeps a multi-instance group executable when load is
// uneven: execution walks sequence numbers in order, so an instance with
// an empty queue would stall the merge at its first unassigned seq while
// busier instances race ahead. Its leader closes the gap by ordering
// empty batches up to the highest assignment seen anywhere. The pacing
// window W deliberately does not apply — an empty batch at the execution
// head is what lets lastExec advance — only the log window bounds it.
// A single-instance group never has cross-instance gaps; this is a no-op
// there (and at g = 1 it is never armed, preserving bit-identity).
func (r *Replica) fillInstanceGaps(inst int) {
	g := int64(r.cfg.groups())
	if g == 1 || inst < 0 || r.inViewChange {
		return
	}
	for len(r.queue) == 0 {
		next := r.instPP[inst] + g
		if next >= r.maxKnownPP || next > r.lastStable+r.cfg.LogWindow {
			return
		}
		r.sendPrePrepare(nil)
	}
}
