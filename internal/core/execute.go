package core

import (
	"fmt"
	"sort"

	"bftfast/internal/crypto"
	"bftfast/internal/message"
	"bftfast/internal/obs"
)

// tryExecute applies every executable batch in sequence order: committed
// batches unconditionally, and — under the tentative-execution optimization
// — the first uncommitted batch once it is prepared and everything below it
// has committed (which bounds tentative state to one batch).
func (r *Replica) tryExecute() {
	f := r.cfg.F()
	progress := false
	for {
		next := r.lastExec + 1
		s := r.log[next]
		if r.lastCommittedExec < r.lastExec {
			// A tentative batch is outstanding; it can only commit.
			ts := r.log[r.lastExec]
			if ts == nil || !ts.checkCommitted(f) {
				break
			}
			r.trace(obs.EvCommitted, r.lastExec, 0, 0)
			if r.phases != nil {
				r.phases.Committed(r.lastExec, r.env.Now())
			}
			r.lastCommittedExec = r.lastExec
			r.onCommittedAdvance(r.lastExec)
			progress = true
			continue
		}
		if s == nil || !s.resolved() {
			break
		}
		if s.checkCommitted(f) {
			// Traced before execution so the commit boundary precedes the
			// execute boundary (execution charges advance Env.Now).
			r.trace(obs.EvCommitted, next, 0, 0)
			if r.phases != nil {
				r.phases.Committed(next, r.env.Now())
			}
			if !s.executed {
				r.executeBatch(s, false)
				s.executed = true
			}
			r.lastExec = next
			r.lastCommittedExec = next
			r.onCommittedAdvance(next)
			progress = true
			continue
		}
		if r.cfg.Opts.TentativeExecution && s.checkPrepared(f) && !s.executed {
			r.executeBatch(s, true)
			s.executed = true
			r.lastExec = next
			progress = true
			continue
		}
		break
	}
	if progress {
		r.trySendBatches()
		r.syncVCTimer(true)
	}
}

// onCommittedAdvance runs the bookkeeping owed when batch seq commits:
// stored tentative replies become definitive, held read-only replies whose
// prefix committed are released, and checkpoints are taken on interval
// boundaries (before any further tentative execution can dirty the state).
func (r *Replica) onCommittedAdvance(seq int64) {
	for _, rec := range r.clients {
		if rec.lastReplySeq == seq && rec.lastReply != nil {
			rec.lastReply.Tentative = false
		}
	}
	r.flushHeldReadOnly()
	if seq%r.cfg.CheckpointInterval == 0 {
		r.takeCheckpoint(seq)
	}
}

// executeBatch applies each request of a batch to the state machine and
// replies to its client. tentative marks replies produced before commit.
func (r *Replica) executeBatch(s *slot, tentative bool) {
	tent := int64(0)
	if tentative {
		tent = 1
	}
	r.trace(obs.EvExecuted, s.seq, tent, int64(len(s.requests)))
	if r.phases != nil {
		r.phases.Executed(s.seq, r.env.Now())
	}
	r.stats.ExecutedBatches++
	for _, req := range s.requests {
		if req == nil {
			continue // null batch
		}
		rec := r.clientRec(req.Client)
		if req.Timestamp <= rec.lastTimestamp {
			// Already executed (a faulty primary may re-propose); answer
			// from the stored reply if this is the same request.
			if req.Timestamp == rec.lastTimestamp {
				r.resendStoredReply(req, rec)
			}
			continue
		}
		result := r.sm.Execute(req.Client, req.Op, false)
		r.stats.ExecutedRequests++
		r.trace(obs.EvExecRequest, s.seq, int64(req.Client), req.Timestamp)
		resultD := r.suite.Digest(result)
		rec.lastTimestamp = req.Timestamp
		rec.lastReply = &message.Reply{
			View:      r.view,
			Timestamp: req.Timestamp,
			Client:    req.Client,
			Replica:   int32(r.cfg.Self),
			Tentative: tentative,
			Full:      true,
			Result:    result,
			ResultD:   resultD,
		}
		rec.lastReplySeq = s.seq
		r.sendReply(req, rec.lastReply)
	}
	// Executed requests leave the ordering pipeline.
	for _, d := range s.reqDigests {
		delete(r.reqBuffer, d)
		delete(r.inFlight, d)
		delete(r.missingBody, d)
	}
}

// sendReply MACs and sends a reply, honoring the digest-replies
// designation in req.
func (r *Replica) sendReply(req *message.Request, stored *message.Reply) {
	full := !r.cfg.Opts.DigestReplies ||
		req.Replier == message.AllReplicas ||
		int(req.Replier) == r.cfg.Self
	rep := &message.Reply{
		View:      r.view,
		Timestamp: stored.Timestamp,
		Client:    stored.Client,
		Replica:   int32(r.cfg.Self),
		Tentative: stored.Tentative,
		Full:      full,
		ResultD:   stored.ResultD,
	}
	if full {
		rep.Result = stored.Result
	}
	e := r.enc.Get()
	mac, ok := r.suite.MAC(int(rep.Client), rep.AuthContentInto(e))
	r.enc.Put(e)
	if !ok {
		return // no session key with this client yet
	}
	rep.MAC = mac
	r.send(int(rep.Client), rep)
	r.trace(obs.EvReplySent, 0, int64(rep.Client), rep.Timestamp)
}

// resendStoredReply answers a retransmitted request from the client record.
func (r *Replica) resendStoredReply(req *message.Request, rec *clientRecord) {
	if rec.lastReply == nil {
		return
	}
	r.sendReply(req, rec.lastReply)
}

// executeReadOnly runs the paper's read-only optimization: execute
// immediately against the current state, but release the reply only after
// everything executed before it has committed (preserving linearizability
// together with the client's 2f+1 matching-reply rule).
func (r *Replica) executeReadOnly(req *message.Request) {
	result := r.sm.Execute(req.Client, req.Op, true)
	r.stats.ExecutedReadOnly++
	resultD := r.suite.Digest(result)
	full := !r.cfg.Opts.DigestReplies ||
		req.Replier == message.AllReplicas ||
		int(req.Replier) == r.cfg.Self
	rep := &message.Reply{
		View:      r.view,
		Timestamp: req.Timestamp,
		Client:    req.Client,
		Replica:   int32(r.cfg.Self),
		Full:      full,
		ResultD:   resultD,
	}
	if full {
		rep.Result = result
	}
	if r.lastExec > r.lastCommittedExec {
		r.pendingRO = append(r.pendingRO, heldReply{frontier: r.lastExec, client: req.Client, reply: rep})
		return
	}
	r.deliverReply(rep)
}

// deliverReply MACs and sends an already-built reply.
func (r *Replica) deliverReply(rep *message.Reply) {
	e := r.enc.Get()
	mac, ok := r.suite.MAC(int(rep.Client), rep.AuthContentInto(e))
	r.enc.Put(e)
	if !ok {
		return
	}
	rep.MAC = mac
	r.send(int(rep.Client), rep)
	r.trace(obs.EvReplySent, 0, int64(rep.Client), rep.Timestamp)
}

// flushHeldReadOnly releases read-only replies whose observed prefix has
// committed.
func (r *Replica) flushHeldReadOnly() {
	if len(r.pendingRO) == 0 {
		return
	}
	var keep []heldReply
	for _, h := range r.pendingRO {
		if h.frontier <= r.lastCommittedExec {
			r.deliverReply(h.reply)
		} else {
			keep = append(keep, h)
		}
	}
	r.pendingRO = keep
}

// frozenClient is one executed client's entry in the checkpointed client
// table: the timestamp it last executed and that request's result, held by
// reference (StateMachine.Execute results are never modified).
type frozenClient struct {
	id      int32
	ts      int64
	result  []byte
	resultD crypto.Digest
}

// clientTable captures the execution-visible client state (which client
// timestamps executed, with which results) in client id order. Only
// clients with a stored reply participate: transient request buffering
// differs across replicas, executed history does not.
func (r *Replica) clientTable() []frozenClient {
	table := make([]frozenClient, 0, len(r.clients))
	for id, rec := range r.clients {
		if rec.lastReply != nil {
			table = append(table, frozenClient{
				id: id, ts: rec.lastTimestamp,
				result: rec.lastReply.Result, resultD: rec.lastReply.ResultD,
			})
		}
	}
	sort.Slice(table, func(i, j int) bool { return table[i].id < table[j].id })
	return table
}

// checkpointDigest combines the service digest with the client table.
func (r *Replica) checkpointDigest() crypto.Digest {
	return r.checkpointDigestOf(r.clientTable())
}

// checkpointDigestOf is checkpointDigest over a captured client table.
func (r *Replica) checkpointDigestOf(table []frozenClient) crypto.Digest {
	e := message.NewEncoder(len(table) * 28)
	for _, c := range table {
		e.I32(c.id)
		e.I64(c.ts)
		e.Digest(c.resultD)
	}
	ctd := r.suite.Digest(e.Bytes())
	smd := r.sm.StateDigest()
	return r.suite.Digest(ctd[:], smd[:])
}

// frozenCheckpoint is the replica-visible state retained at a checkpoint:
// the client table and the service's frozen view. It is serialised only
// when a peer fetches the checkpoint or a view change rolls back to it;
// the bytes are then cached and the frozen parts released.
type frozenCheckpoint struct {
	clients []frozenClient
	sm      Frozen
	bytes   []byte
}

// freezeCheckpoint captures the current replica-visible state.
func (r *Replica) freezeCheckpoint() *frozenCheckpoint {
	return &frozenCheckpoint{clients: r.clientTable(), sm: r.sm.Freeze()}
}

// encoded returns the checkpoint's serialisation, the input format of
// restoreSnapshot.
func (c *frozenCheckpoint) encoded() []byte {
	if c.bytes != nil {
		return c.bytes
	}
	sm := c.sm.Snapshot()
	size := 16 + len(sm)
	for _, fc := range c.clients {
		size += 24 + len(fc.result)
	}
	e := message.NewEncoder(size)
	e.Count(len(c.clients))
	for _, fc := range c.clients {
		e.I32(fc.id)
		e.I64(fc.ts)
		e.Blob(fc.result)
	}
	e.Blob(sm)
	c.bytes = e.Bytes()
	c.clients, c.sm = nil, nil
	return c.bytes
}

// restoreSnapshot replaces the replica-visible state from a
// frozenCheckpoint serialisation.
func (r *Replica) restoreSnapshot(snap []byte) error {
	d := message.NewDecoder(snap)
	n := d.Count()
	if d.Err() != nil {
		return fmt.Errorf("core: corrupt snapshot header: %w", d.Err())
	}
	clients := make(map[int32]*clientRecord, n)
	for i := 0; i < n; i++ {
		id := d.I32()
		ts := d.I64()
		result := d.Blob()
		if d.Err() != nil {
			return fmt.Errorf("core: corrupt snapshot client table: %w", d.Err())
		}
		result = append([]byte(nil), result...)
		clients[id] = &clientRecord{
			lastTimestamp: ts,
			lastReply: &message.Reply{
				Timestamp: ts,
				Client:    id,
				Replica:   int32(r.cfg.Self),
				Full:      true,
				Result:    result,
				ResultD:   crypto.Hash(result),
			},
		}
	}
	smSnap := d.Blob()
	if err := d.Finish(); err != nil {
		return fmt.Errorf("core: corrupt snapshot: %w", err)
	}
	if err := r.sm.Restore(smSnap); err != nil {
		return fmt.Errorf("core: restoring service state: %w", err)
	}
	r.clients = clients
	return nil
}

// takeCheckpoint digests the state at batch seq, freezes it when
// configured, and announces the checkpoint to the group.
func (r *Replica) takeCheckpoint(seq int64) {
	r.trace(obs.EvCheckpoint, seq, 0, 0)
	table := r.clientTable()
	d := r.checkpointDigestOf(table)
	if r.cfg.CheckpointSnapshots {
		r.snapshots[seq] = &frozenCheckpoint{clients: table, sm: r.sm.Freeze()}
	}
	r.recordCheckpoint(seq, int32(r.cfg.Self), d)
	ck := &message.Checkpoint{Seq: seq, StateD: d, Replica: int32(r.cfg.Self)}
	e := r.enc.Get()
	r.authScratch = r.suite.AuthInto(r.authScratch, r.cfg.N, ck.AuthContentInto(e))
	ck.Auth = r.authScratch
	r.enc.Put(e)
	r.broadcast(ck)
	r.checkStable(seq, d)
}

// onCheckpoint processes a peer's checkpoint announcement.
func (r *Replica) onCheckpoint(c *message.Checkpoint) {
	sender := int(c.Replica)
	if sender < 0 || sender >= r.cfg.N || sender == r.cfg.Self || c.Seq <= r.lastStable {
		return
	}
	e := r.enc.Get()
	ok := r.suite.VerifyAuth(sender, c.Auth, c.AuthContentInto(e))
	r.enc.Put(e)
	if !ok {
		r.stats.DroppedMessages++
		return
	}
	r.recordCheckpoint(c.Seq, c.Replica, c.StateD)
	r.checkStable(c.Seq, c.StateD)
}

func (r *Replica) recordCheckpoint(seq int64, replica int32, d crypto.Digest) {
	set := r.checkpoints[seq]
	if set == nil {
		set = make(map[int32]crypto.Digest)
		r.checkpoints[seq] = set
	}
	set[replica] = d
}

// checkpointVotes counts replicas that announced (seq, d).
func (r *Replica) checkpointVotes(seq int64, d crypto.Digest) int {
	n := 0
	for _, got := range r.checkpoints[seq] {
		if got == d {
			n++
		}
	}
	return n
}

// attestedDigest returns a digest for seq vouched for by at least f+1
// replicas (so at least one correct one), if any.
func (r *Replica) attestedDigest(seq int64) (crypto.Digest, bool) {
	counts := make(map[crypto.Digest]int)
	for _, d := range r.checkpoints[seq] {
		counts[d]++
		if counts[d] >= r.cfg.F()+1 {
			return d, true
		}
	}
	return crypto.Digest{}, false
}

// checkStable promotes seq to the stable checkpoint once 2f+1 replicas
// (including possibly this one) announced matching digests, then garbage
// collects the log. A replica that cannot reach seq by local execution
// starts a state transfer instead — as does a replica whose own digest
// disagrees with the quorum's: its state is corrupt or diverged (the
// situation proactive recovery exists to repair), and only a verified
// refetch makes it correct again.
func (r *Replica) checkStable(seq int64, d crypto.Digest) {
	if seq <= r.lastStable || r.checkpointVotes(seq, d) < r.cfg.Quorum() {
		return
	}
	if own, voted := r.checkpoints[seq][int32(r.cfg.Self)]; voted && own != d {
		r.stats.Divergences++
		r.lastExec = r.lastStable
		r.lastCommittedExec = r.lastStable
		r.beginStateTransfer(seq)
		return
	}
	if seq > r.knownStable {
		r.knownStable = seq
	}
	if r.lastCommittedExec < seq {
		// The group moved past us. If the gap is small the ordinary
		// pipeline (plus status retransmission) will catch us up; a gap of
		// a full checkpoint interval means we are missing garbage-collected
		// messages and must fetch state. (Smaller gaps that fail to close
		// are detected by the status tick, which falls back to a state
		// transfer too.)
		if seq >= r.lastCommittedExec+r.cfg.CheckpointInterval {
			r.beginStateTransfer(seq)
		}
		return
	}
	r.makeStable(seq, d)
}

// makeStable advances the low water mark to seq and garbage collects
// everything below it.
func (r *Replica) makeStable(seq int64, d crypto.Digest) {
	r.trace(obs.EvCheckpointStable, seq, 0, 0)
	r.lastStable = seq
	r.stableDigest = d
	r.stats.StableCheckpoints++
	for n := range r.log {
		if n <= seq {
			delete(r.log, n)
		}
	}
	for n := range r.checkpoints {
		if n < seq {
			delete(r.checkpoints, n)
		}
	}
	for n := range r.snapshots {
		if n < seq {
			delete(r.snapshots, n)
			delete(r.stChunks, n)
		}
	}
	for n := range r.pset {
		if n <= seq {
			delete(r.pset, n)
		}
	}
	for n := range r.qset {
		if n <= seq {
			delete(r.qset, n)
		}
	}
	for dg, n := range r.inFlight {
		if n <= seq {
			delete(r.inFlight, dg)
			delete(r.reqBuffer, dg)
			delete(r.missingBody, dg)
		}
	}
	// The window may have opened for the primary.
	r.trySendBatches()
}
