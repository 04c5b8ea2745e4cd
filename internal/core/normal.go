package core

import (
	"bftfast/internal/crypto"
	"bftfast/internal/message"
	"bftfast/internal/obs"
)

// onRequest authenticates and routes a client request. raw is the encoded
// message as received (retained for inlining into pre-prepares).
func (r *Replica) onRequest(req *message.Request, raw []byte) {
	if int(req.Client) < 0 {
		r.stats.DroppedMessages++
		return
	}
	e := r.enc.Get()
	d := req.ContentDigestWith(r.suite, e)
	r.enc.Put(e)
	if !r.suite.VerifyAuth(int(req.Client), req.Auth, d[:]) {
		r.stats.DroppedMessages++
		return
	}
	r.admitRequest(req, raw, d)
}

// admitRequest routes an authenticated client request: at-most-once
// bookkeeping, the read-only fast path, request buffering, and primary
// queueing / backup relay. onRequest has already verified the request's
// authenticator over digest d.
func (r *Replica) admitRequest(req *message.Request, raw []byte, d crypto.Digest) {
	r.trace(obs.EvRequestIn, 0, int64(req.Client), req.Timestamp)
	rec := r.clientRec(req.Client)

	// At-most-once: old requests are dropped, the most recent one answered
	// from the stored reply.
	if !req.ReadOnly || !r.cfg.Opts.ReadOnly {
		if req.Timestamp < rec.lastTimestamp {
			return
		}
		if req.Timestamp == rec.lastTimestamp {
			r.resendStoredReply(req, rec)
			return
		}
	}

	if req.ReadOnly && r.cfg.Opts.ReadOnly {
		r.executeReadOnly(req)
		return
	}

	if _, ok := r.inFlight[d]; ok {
		// Already being ordered. The pre-prepare may have overtaken the
		// body (separate request transmission delivers them in any
		// order): fill the slots waiting for it.
		if len(r.missingBody[d]) > 0 {
			r.reqBuffer[d] = &bufferedRequest{req: req, raw: raw, digest: d, relayed: true}
			r.fillWaitingSlots(d, req)
		}
		return
	}
	if buf, ok := r.reqBuffer[d]; ok {
		// Duplicate transmission; keep the widest replier designation so a
		// retransmission demanding full replies is honored at execution.
		if req.Replier == message.AllReplicas {
			buf.req.Replier = message.AllReplicas
		}
		return
	}

	buf := &bufferedRequest{req: req, raw: raw, digest: d}
	r.reqBuffer[d] = buf
	r.fillWaitingSlots(d, req)

	if r.inViewChange {
		return
	}
	leader := r.cfg.LeaderOf(r.view, instanceForDigest(d, r.cfg.groups()))
	if leader == r.cfg.Self {
		r.queue = append(r.queue, d)
		r.trySendBatches()
	} else if !buf.relayed && !(r.cfg.Opts.SeparateRequests && len(raw) > r.cfg.InlineThreshold) {
		// A small request reaching a non-leader means the client missed
		// the request's instance leader (stale view, or a retransmission):
		// relay it. Large separately-transmitted bodies were multicast to
		// the whole group, so the leader already has them — relaying those
		// would burn the leader's inbound bandwidth (it is the 4/0
		// bottleneck).
		buf.relayed = true
		r.env.Send(leader, raw)
	}
	r.syncVCTimer(false)
}

// clientRec returns (creating if needed) the client's execution record.
func (r *Replica) clientRec(client int32) *clientRecord {
	rec := r.clients[client]
	if rec == nil {
		rec = &clientRecord{lastTimestamp: -1}
		r.clients[client] = rec
	}
	return rec
}

// fillWaitingSlots resolves every slot waiting for the body of request d.
func (r *Replica) fillWaitingSlots(d crypto.Digest, req *message.Request) {
	seqs := r.missingBody[d]
	delete(r.missingBody, d)
	for _, seq := range seqs {
		r.fillMissing(r.log[seq], d, req)
	}
}

// fillMissing resolves one missing request body in a slot.
func (r *Replica) fillMissing(s *slot, d crypto.Digest, req *message.Request) {
	if s == nil || s.missing == 0 {
		return
	}
	for i, rd := range s.reqDigests {
		if rd == d && s.requests[i] == nil {
			s.requests[i] = req
			s.missing--
		}
	}
	if s.resolved() && !r.inViewChange && s.view == r.view {
		r.onSlotResolved(s)
	}
}

// onPrePrepare processes a sequence-number assignment from the primary.
// It also accepts batch-content retransmissions that fill a new-view slot
// whose digest is known but whose bodies are not (see fetchBatch): those
// are validated by digest match rather than by the sender's authenticator.
func (r *Replica) onPrePrepare(pp *message.PrePrepare) {
	if s := r.log[pp.Seq]; s != nil && s.unknownBatch {
		r.resolveUnknownBatch(s, pp)
		return
	}
	if r.inViewChange || pp.View != r.view || r.leadsSeq(pp.Seq) || !r.inWindow(pp.Seq) {
		return
	}
	s := r.getSlot(pp.Seq)
	if s.havePP {
		// First assignment wins; but a retransmission may carry inline
		// bodies for requests we are still missing.
		if s.missing > 0 {
			r.fillBodiesFromPP(s, pp)
		}
		return
	}

	// Resolve the batch: decode inline bodies (verifying client
	// authenticators) and look up separately transmitted ones.
	reqDigests := make([]crypto.Digest, len(pp.Refs))
	requests := make([]*message.Request, len(pp.Refs))
	missing := 0
	e := r.enc.Get()
	for i, ref := range pp.Refs {
		if ref.Inline != nil {
			m, err := message.Unmarshal(ref.Inline)
			if err != nil {
				r.enc.Put(e)
				r.stats.DroppedMessages++
				return
			}
			req, ok := m.(*message.Request)
			if !ok {
				r.enc.Put(e)
				r.stats.DroppedMessages++
				return
			}
			d := req.ContentDigestWith(r.suite, e)
			if !r.suite.VerifyAuth(int(req.Client), req.Auth, d[:]) {
				r.enc.Put(e)
				r.stats.DroppedMessages++
				return
			}
			reqDigests[i] = d
			requests[i] = req
			continue
		}
		reqDigests[i] = ref.Digest
		if buf, ok := r.reqBuffer[ref.Digest]; ok {
			requests[i] = buf.req
		} else {
			missing++
		}
	}
	batch := message.BatchDigestWith(r.suite, e, reqDigests)
	content := message.OrderContentWithCommitsInto(e, pp.View, pp.Seq, batch, pp.Commits)
	primary := r.leaderOfSeq(pp.View, pp.Seq)
	ok := r.suite.VerifyAuth(primary, pp.Auth, content)
	r.enc.Put(e)
	if !ok {
		r.stats.DroppedMessages++
		return
	}

	r.trace(obs.EvPrePrepareRecv, pp.Seq, pp.View, 0)
	if r.phases != nil {
		r.phases.PrePrepare(pp.Seq, r.env.Now())
	}
	if pp.Seq > r.maxKnownPP {
		r.maxKnownPP = pp.Seq
	}
	s.havePP = true
	s.view = pp.View
	s.batchDigest = batch
	s.reqDigests = reqDigests
	s.requests = requests
	s.missing = missing
	s.ppAuth = pp.Auth
	s.ppCommits = pp.Commits
	for i, d := range reqDigests {
		r.inFlight[d] = pp.Seq
		if requests[i] == nil {
			r.missingBody[d] = append(r.missingBody[d], pp.Seq)
		}
	}
	r.applyPiggybackCommits(pp.Commits, int32(primary), pp.View)
	if s.resolved() {
		r.onSlotResolved(s)
	}
	// A missing body here does NOT mean the client's multicast was lost —
	// under load it is usually just late: bodies serialize behind other
	// bodies at this port while the small pre-prepare slips past them.
	// Fetching immediately makes the primary answer with the batch fully
	// inlined (tens of KB), duplicating traffic exactly when the links
	// are busiest; with hundreds of clients the duplicate bodies delay
	// the next pre-prepares, which lose more races, which trigger more
	// fetches. Instead a short grace timer lets queued bodies drain, and
	// fetchLateBodies recovers only the ones that still have not shown
	// up — those were genuinely dropped.
	if s.missing > 0 && !r.bodyFetchArmed {
		r.bodyFetchArmed = true
		r.env.SetTimer(timerBodyFetch, r.cfg.StatusInterval/16)
	}
	// Another instance advancing may open a gap in our own slice.
	r.fillInstanceGaps(r.ownInstance())
	r.syncVCTimer(false)
}

// onSlotResolved fires once a slot has its pre-prepare and all bodies:
// the backup multicasts its prepare and the ordering pipeline advances.
func (r *Replica) onSlotResolved(s *slot) {
	if !s.sentPrepare && !r.leadsSeq(s.seq) {
		s.sentPrepare = true
		prep := &message.Prepare{
			View:    s.view,
			Seq:     s.seq,
			Digest:  s.batchDigest,
			Replica: int32(r.cfg.Self),
			Commits: r.takePiggybackCommits(),
		}
		e := r.enc.Get()
		content := message.OrderContentWithCommitsInto(e, prep.View, prep.Seq, prep.Digest, prep.Commits)
		r.authScratch = r.suite.AuthInto(r.authScratch, r.cfg.N, content)
		prep.Auth = r.authScratch
		r.enc.Put(e)
		r.broadcast(prep)
		s.addPrepare(s.batchDigest, int32(r.cfg.Self))
	}
	r.advance(s)
}

// onPrepare processes a backup's prepare vote.
func (r *Replica) onPrepare(p *message.Prepare) {
	if !r.admitPrepare(p) {
		return
	}
	e := r.enc.Get()
	content := message.OrderContentWithCommitsInto(e, p.View, p.Seq, p.Digest, p.Commits)
	ok := r.suite.VerifyAuth(int(p.Replica), p.Auth, content)
	r.enc.Put(e)
	if !ok {
		r.stats.DroppedMessages++
		return
	}
	r.applyPrepare(p)
}

// admitPrepare applies the cheap admissibility checks that precede
// verification: current view, in-window sequence, and a plausible sender
// (a backup other than this replica — the slot's instance leader never
// sends prepares for its own slice).
func (r *Replica) admitPrepare(p *message.Prepare) bool {
	if r.inViewChange || p.View != r.view || !r.inWindow(p.Seq) {
		return false
	}
	sender := int(p.Replica)
	if sender < 0 || sender >= r.cfg.N || sender == r.cfg.Self || sender == r.leaderOfSeq(p.View, p.Seq) {
		r.stats.DroppedMessages++
		return false
	}
	return true
}

// applyPrepare records an admitted, authenticated prepare vote.
func (r *Replica) applyPrepare(p *message.Prepare) {
	s := r.getSlot(p.Seq)
	if s.addPrepare(p.Digest, p.Replica) {
		r.applyPiggybackCommits(p.Commits, p.Replica, p.View)
		r.advance(s)
	}
}

// onCommit processes a commit vote.
func (r *Replica) onCommit(c *message.Commit) {
	if !r.admitCommit(c) {
		return
	}
	e := r.enc.Get()
	ok := r.suite.VerifyAuth(int(c.Replica), c.Auth, message.OrderContentInto(e, c.View, c.Seq, c.Digest))
	r.enc.Put(e)
	if !ok {
		r.stats.DroppedMessages++
		return
	}
	r.applyCommit(c)
}

// admitCommit is admitPrepare for commits (every replica but this one may
// send them).
func (r *Replica) admitCommit(c *message.Commit) bool {
	if r.inViewChange || c.View != r.view || !r.inWindow(c.Seq) {
		return false
	}
	sender := int(c.Replica)
	if sender < 0 || sender >= r.cfg.N || sender == r.cfg.Self {
		r.stats.DroppedMessages++
		return false
	}
	return true
}

// applyCommit records an admitted, authenticated commit vote.
func (r *Replica) applyCommit(c *message.Commit) {
	s := r.getSlot(c.Seq)
	if s.addCommit(c.Digest, c.Replica) {
		r.advance(s)
	}
}

// applyPiggybackCommits treats commit references carried by a pre-prepare
// or prepare as commit votes from its sender. The carrier's authenticator
// covers the references, so they are as trustworthy as standalone commits.
func (r *Replica) applyPiggybackCommits(refs []message.CommitRef, sender int32, view int64) {
	for _, ref := range refs {
		if !r.inWindow(ref.Seq) {
			continue
		}
		s := r.getSlot(ref.Seq)
		if s.addCommit(ref.Digest, sender) {
			r.advance(s)
		}
	}
}

// advance drives one slot through prepared -> commit-sent -> committed and
// triggers execution.
func (r *Replica) advance(s *slot) {
	if !s.resolved() {
		return
	}
	f := r.cfg.F()
	if s.checkPrepared(f) && !s.sentCommit {
		r.trace(obs.EvPrepared, s.seq, s.view, 0)
		if r.phases != nil {
			r.phases.Prepared(s.seq, r.env.Now())
		}
		s.sentCommit = true
		s.addCommit(s.batchDigest, int32(r.cfg.Self))
		if r.cfg.Opts.PiggybackCommits {
			r.pendingCommits = append(r.pendingCommits, message.CommitRef{Seq: s.seq, Digest: s.batchDigest})
			r.env.SetTimer(timerCommitFlush, r.cfg.CommitFlushDelay)
		} else {
			r.sendCommit(s)
		}
	}
	if s.checkCommitted(f) || s.prepared {
		r.tryExecute()
	}
}

// sendCommit multicasts a standalone commit for s.
func (r *Replica) sendCommit(s *slot) {
	c := &message.Commit{View: s.view, Seq: s.seq, Digest: s.batchDigest, Replica: int32(r.cfg.Self)}
	e := r.enc.Get()
	r.authScratch = r.suite.AuthInto(r.authScratch, r.cfg.N, message.OrderContentInto(e, c.View, c.Seq, c.Digest))
	c.Auth = r.authScratch
	r.enc.Put(e)
	r.broadcast(c)
}

// takePiggybackCommits drains the piggyback buffer for attachment to an
// outgoing pre-prepare or prepare.
func (r *Replica) takePiggybackCommits() []message.CommitRef {
	if !r.cfg.Opts.PiggybackCommits || len(r.pendingCommits) == 0 {
		return nil
	}
	out := r.pendingCommits
	r.pendingCommits = nil
	r.env.CancelTimer(timerCommitFlush)
	return out
}

// flushPiggybackCommits sends buffered commits standalone when no carrier
// message showed up in time (the paper implemented the piggyback for the
// loaded normal case; this fallback keeps the idle case live).
func (r *Replica) flushPiggybackCommits() {
	refs := r.pendingCommits
	r.pendingCommits = nil
	for _, ref := range refs {
		if s := r.log[ref.Seq]; s != nil && s.resolved() && s.batchDigest == ref.Digest {
			r.sendCommit(s)
		}
	}
}

// trySendBatches lets an instance leader assign its slice's sequence
// numbers to queued requests, one batch per ordering round, within the
// sliding window: with e the last executed batch and W the window, the
// leader holds new batches once its next seq would exceed e + W (the
// paper's batching rule, applied per instance).
func (r *Replica) trySendBatches() {
	inst := r.ownInstance()
	if inst < 0 || r.inViewChange {
		return
	}
	window := r.cfg.Window
	if !r.cfg.Opts.Batching {
		// Without batching every request runs its own ordering round
		// immediately; parallelism is bounded only by the log window.
		window = r.cfg.LogWindow / 2
	}
	stride := int64(r.cfg.groups())
	for len(r.queue) > 0 {
		next := r.instPP[inst] + stride
		if next > r.lastExec+window || next > r.lastStable+r.cfg.LogWindow {
			break
		}
		batch := r.nextBatch()
		if len(batch) == 0 {
			break
		}
		r.sendPrePrepare(batch)
	}
	r.fillInstanceGaps(inst)
}

// nextBatch pops requests off the queue up to the batch bounds, skipping
// entries that were executed or assigned in the meantime.
func (r *Replica) nextBatch() []*bufferedRequest {
	var (
		out   []*bufferedRequest
		bytes int
	)
	maxReqs := r.cfg.MaxBatchRequests
	if !r.cfg.Opts.Batching {
		maxReqs = 1
	}
	for len(r.queue) > 0 && len(out) < maxReqs {
		d := r.queue[0]
		buf, ok := r.reqBuffer[d]
		if !ok {
			r.queue = r.queue[1:]
			continue // executed or garbage collected
		}
		if _, assigned := r.inFlight[d]; assigned {
			r.queue = r.queue[1:]
			continue
		}
		// The byte bound caps the pre-prepare's size: separately
		// transmitted requests contribute only their digest, which is why
		// SRT fits more large requests per batch (Figure 7).
		size := len(buf.raw)
		if r.cfg.Opts.SeparateRequests && size > r.cfg.InlineThreshold {
			size = crypto.DigestSize
		}
		if len(out) > 0 && bytes+size > r.cfg.MaxBatchBytes {
			break
		}
		r.queue = r.queue[1:]
		out = append(out, buf)
		bytes += size
	}
	return out
}

// sendPrePrepare assigns the next sequence number of this replica's
// instance to a batch and multicasts the pre-prepare. Small requests are
// inlined; large ones ride as digests when separate request transmission
// is on. A nil batch orders an empty gap-filling batch (see
// fillInstanceGaps); it flows through the ordinary three-phase protocol
// and executes as a no-op.
func (r *Replica) sendPrePrepare(batch []*bufferedRequest) {
	inst := r.ownInstance()
	r.instPP[inst] += int64(r.cfg.groups())
	seq := r.instPP[inst]
	if seq > r.maxKnownPP {
		r.maxKnownPP = seq
	}
	refs := make([]message.RequestRef, len(batch))
	reqDigests := make([]crypto.Digest, len(batch))
	requests := make([]*message.Request, len(batch))
	for i, buf := range batch {
		reqDigests[i] = buf.digest
		requests[i] = buf.req
		if r.cfg.Opts.SeparateRequests && len(buf.raw) > r.cfg.InlineThreshold {
			refs[i] = message.RequestRef{Digest: buf.digest}
		} else {
			refs[i] = message.RequestRef{Inline: buf.raw}
		}
		r.inFlight[buf.digest] = seq
	}
	e := r.enc.Get()
	batchD := message.BatchDigestWith(r.suite, e, reqDigests)
	pp := &message.PrePrepare{View: r.view, Seq: seq, Refs: refs, Commits: r.takePiggybackCommits()}
	content := message.OrderContentWithCommitsInto(e, pp.View, pp.Seq, batchD, pp.Commits)
	// The pre-prepare's authenticator is retained in the slot (s.ppAuth),
	// so it must be freshly allocated, not scratch.
	pp.Auth = r.suite.Auth(r.cfg.N, content)
	r.enc.Put(e)
	r.broadcast(pp)
	r.trace(obs.EvPrePrepareSent, seq, r.view, int64(len(batch)))
	if r.phases != nil {
		r.phases.PrePrepare(seq, r.env.Now())
	}

	s := r.getSlot(seq)
	s.havePP = true
	s.view = r.view
	s.batchDigest = batchD
	s.reqDigests = reqDigests
	s.requests = requests
	s.missing = 0
	s.ppAuth = pp.Auth
	s.ppCommits = pp.Commits
	r.advance(s)
}

// fillBodiesFromPP harvests inline request bodies from a retransmitted
// pre-prepare for a slot still missing some.
func (r *Replica) fillBodiesFromPP(s *slot, pp *message.PrePrepare) {
	for _, ref := range pp.Refs {
		if ref.Inline == nil || s.missing == 0 {
			continue
		}
		m, err := message.Unmarshal(ref.Inline)
		if err != nil {
			continue
		}
		req, ok := m.(*message.Request)
		if !ok {
			continue
		}
		d := req.ContentDigest(r.suite)
		if !r.suite.VerifyAuth(int(req.Client), req.Auth, d[:]) {
			continue
		}
		if _, buffered := r.reqBuffer[d]; !buffered {
			r.reqBuffer[d] = &bufferedRequest{req: req, raw: ref.Inline, digest: d, relayed: true}
		}
		r.fillWaitingSlots(d, req)
	}
}

// resolveUnknownBatch fills a new-view slot whose chosen digest we could
// not match to any batch we had seen. The retransmitted content is trusted
// only if its request digests fold to the chosen batch digest and every
// inline request authenticates from its client.
func (r *Replica) resolveUnknownBatch(s *slot, pp *message.PrePrepare) {
	reqDigests := make([]crypto.Digest, len(pp.Refs))
	requests := make([]*message.Request, len(pp.Refs))
	for i, ref := range pp.Refs {
		if ref.Inline == nil {
			return // a retransmission must inline everything
		}
		m, err := message.Unmarshal(ref.Inline)
		if err != nil {
			return
		}
		req, ok := m.(*message.Request)
		if !ok {
			return
		}
		d := req.ContentDigest(r.suite)
		if !r.suite.VerifyAuth(int(req.Client), req.Auth, d[:]) {
			return
		}
		reqDigests[i] = d
		requests[i] = req
	}
	if message.BatchDigest(r.suite, reqDigests) != s.batchDigest {
		r.stats.DroppedMessages++
		return
	}
	s.unknownBatch = false
	s.reqDigests = reqDigests
	s.requests = requests
	s.missing = 0
	for _, d := range reqDigests {
		r.inFlight[d] = s.seq
	}
	if !r.inViewChange {
		r.onSlotResolved(s)
	}
}
