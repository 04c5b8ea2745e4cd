package core

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"bftfast/internal/crypto"
	"bftfast/internal/message"
	"bftfast/internal/obs"
	"bftfast/internal/proc"
)

// Counters exposes replica progress for benchmarks and tests.
type Counters struct {
	ExecutedRequests  int64
	ExecutedReadOnly  int64
	ExecutedBatches   int64
	StableCheckpoints int64
	ViewChanges       int64
	StateTransfers    int64
	Divergences       int64 // own checkpoint digest contradicted by a quorum
	DroppedMessages   int64 // failed authentication or malformed
}

// clientRecord implements at-most-once execution and reply retransmission
// for one client.
type clientRecord struct {
	lastTimestamp int64
	lastReply     *message.Reply // stored with the full result; Full/MAC set per resend
	lastReplySeq  int64          // batch that produced it (for tentative upgrades)
}

// heldReply is a read-only reply waiting for the tentative prefix it
// observed to commit.
type heldReply struct {
	frontier int64 // lastExec at execution time
	client   int32
	reply    *message.Reply
}

// bufferedRequest is an authenticated request body awaiting ordering.
type bufferedRequest struct {
	req     *message.Request
	raw     []byte
	digest  crypto.Digest
	relayed bool
}

// Replica is one member of the BFT replica group. It is a single-threaded
// engine (see internal/proc): the environment serializes all calls.
type Replica struct {
	cfg   Config
	env   proc.Env
	suite *crypto.Suite
	sm    StateMachine
	rng   io.Reader

	view          int64
	inViewChange  bool
	vcTimeout     time.Duration
	vcTimerArmed  bool
	statusStarted bool

	// instPP[i] is the last sequence number assigned by ordering
	// instance i (meaningful on its leader; reset group-wide at view
	// changes). With Instances <= 1 it is a one-element slice holding the
	// classic primary counter lastPP. maxKnownPP tracks the highest
	// pre-prepare seq seen anywhere, which drives cross-instance gap
	// filling (see instance.go).
	instPP            []int64
	maxKnownPP        int64
	lastExec          int64 // last executed batch (tentative included)
	lastCommittedExec int64
	lastStable        int64
	stableDigest      crypto.Digest

	log         map[int64]*slot
	missingBody map[crypto.Digest][]int64 // request digest -> slots waiting for it

	clients   map[int32]*clientRecord
	reqBuffer map[crypto.Digest]*bufferedRequest
	inFlight  map[crypto.Digest]int64 // request digest -> assigned seq
	queue     []crypto.Digest         // primary's pending request queue

	checkpoints map[int64]map[int32]crypto.Digest
	snapshots   map[int64]*frozenCheckpoint

	pendingRO      []heldReply
	pendingCommits []message.CommitRef // piggyback buffer

	// View change state (see viewchange.go).
	pset        map[int64]message.PQEntry
	qset        map[int64]message.PQEntry
	vcs         map[int64]map[int32]*vcRecord
	pendingAcks map[int64]map[int32]map[int32]crypto.Digest // view -> origin -> acker -> vc digest
	pendingNV   *message.NewView
	lastNewView *message.NewView      // for retransmission as new primary
	lastNVVCs   []*message.ViewChange // the VCs referenced by lastNewView

	// State transfer (see transfer.go).
	st       *stateTransfer
	stChunks map[int64]*chunkedSnapshot

	epoch          int64
	knownStable    int64 // highest quorum-attested checkpoint seen anywhere
	statusTicks    int64
	lastStatusMark [3]int64 // (view, lastExec, lastCommittedExec) at the previous status tick
	bodyFetchArmed bool     // a timerBodyFetch grace period is running

	// Hot-path scratch state (engine-local, reused per message; see the
	// "Host performance architecture" section of DESIGN.md). peers caches
	// otherReplicas(); callers must not mutate it. prepScratch/commitScratch
	// receive decode-into for the transient ordering messages; authScratch
	// cycles through outgoing authenticators of messages the replica does
	// not retain.
	enc           message.EncoderList
	peers         []int
	prepScratch   message.Prepare
	commitScratch message.Commit
	authScratch   crypto.Authenticator

	rec    *obs.Recorder     // nil disables tracing
	phases *obs.PhaseTracker // nil disables live phase histograms
	stats  Counters

	// statusHeard[i] is the last Env.Now a status message arrived from
	// replica i — the peer-liveness signal surfaced by /statusz. Purely
	// observational: nothing in the protocol reads it.
	statusHeard []time.Duration
}

// trace records one protocol event stamped with the engine's current time.
// With tracing disabled (nil recorder) the hook is a single branch; enabled,
// it writes one slot of a preallocated ring — zero allocations either way.
//
//bftvet:allocfree
func (r *Replica) trace(kind obs.Kind, seq, aux, aux2 int64) {
	if r.rec != nil {
		r.rec.Record(r.env.Now(), kind, seq, aux, aux2)
	}
}

// vcRecord tracks one replica's view-change message for some view and the
// acks corroborating it.
type vcRecord struct {
	vc     *message.ViewChange
	raw    []byte
	digest crypto.Digest
	acks   map[int32]bool
}

// NewReplica builds a replica engine. keys must be pre-provisioned with
// pairwise session and master keys (crypto.ProvisionAll) or be populated by
// new-key exchange before traffic flows. rng provides randomness for key
// rotation and may be nil when rotation is disabled.
func NewReplica(cfg Config, sm StateMachine, keys *crypto.KeyTable, meter crypto.Meter, rng io.Reader) (*Replica, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sm == nil {
		return nil, fmt.Errorf("core: replica %d: nil state machine", cfg.Self)
	}
	if keys.Self() != cfg.Self {
		return nil, fmt.Errorf("core: key table owner %d != replica id %d", keys.Self(), cfg.Self)
	}
	if cfg.KeyRotationInterval > 0 && rng == nil {
		return nil, fmt.Errorf("core: replica %d: key rotation enabled without a randomness source", cfg.Self)
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(int64(cfg.Self) + 1)) //nolint:gosec // unused unless rotation is on
	}
	peers := make([]int, 0, cfg.N-1)
	for i := 0; i < cfg.N; i++ {
		if i != cfg.Self {
			peers = append(peers, i)
		}
	}
	// Instance i's first owned seq is i+1, so its counter starts one
	// stride below that; at g = 1 this is the classic lastPP = 0.
	instPP := make([]int64, cfg.groups())
	for i := range instPP {
		instPP[i] = int64(i+1) - int64(len(instPP))
	}
	return &Replica{
		cfg:   cfg,
		suite: crypto.NewSuite(keys, meter),
		sm:    sm,
		rng:   rng,
		// Bootstrap provisioning installs keys at epoch 1; rotations must
		// supersede it.
		epoch:       1,
		instPP:      instPP,
		vcTimeout:   cfg.ViewChangeTimeout,
		log:         make(map[int64]*slot),
		missingBody: make(map[crypto.Digest][]int64),
		clients:     make(map[int32]*clientRecord),
		reqBuffer:   make(map[crypto.Digest]*bufferedRequest),
		inFlight:    make(map[crypto.Digest]int64),
		checkpoints: make(map[int64]map[int32]crypto.Digest),
		snapshots:   make(map[int64]*frozenCheckpoint),
		pset:        make(map[int64]message.PQEntry),
		qset:        make(map[int64]message.PQEntry),
		vcs:         make(map[int64]map[int32]*vcRecord),
		pendingAcks: make(map[int64]map[int32]map[int32]crypto.Digest),
		stChunks:    make(map[int64]*chunkedSnapshot),
		peers:       peers,
		rec:         cfg.Trace,
		phases:      cfg.Phases,
		statusHeard: make([]time.Duration, cfg.N),
	}, nil
}

// Stats returns a copy of the replica's progress counters. Like every
// engine method it must run in the node's event context: the counters are
// plain fields mutated by the event loop (the determinism contract forbids
// locking inside engines), so wall-time callers read them through an
// injected action — transport.Node.Do — as bft.Replica.Stats does.
func (r *Replica) Stats() Counters { return r.stats }

// RegisterMetrics exposes the replica's counters and progress marks as
// read-through gauges under prefix (e.g. "replica0."). Snapshots must be
// taken from the node's event context, like Stats.
func (r *Replica) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.GaugeFunc(prefix+"executed_requests", func() int64 { return r.stats.ExecutedRequests })
	reg.GaugeFunc(prefix+"executed_read_only", func() int64 { return r.stats.ExecutedReadOnly })
	reg.GaugeFunc(prefix+"executed_batches", func() int64 { return r.stats.ExecutedBatches })
	reg.GaugeFunc(prefix+"stable_checkpoints", func() int64 { return r.stats.StableCheckpoints })
	reg.GaugeFunc(prefix+"view_changes", func() int64 { return r.stats.ViewChanges })
	reg.GaugeFunc(prefix+"state_transfers", func() int64 { return r.stats.StateTransfers })
	reg.GaugeFunc(prefix+"divergences", func() int64 { return r.stats.Divergences })
	reg.GaugeFunc(prefix+"dropped_messages", func() int64 { return r.stats.DroppedMessages })
	reg.GaugeFunc(prefix+"view", func() int64 { return r.view })
	reg.GaugeFunc(prefix+"last_executed", func() int64 { return r.lastExec })
	reg.GaugeFunc(prefix+"last_stable", func() int64 { return r.lastStable })
}

// View returns the replica's current view.
func (r *Replica) View() int64 { return r.view }

// LastExecuted returns the last executed batch sequence number.
func (r *Replica) LastExecuted() int64 { return r.lastExec }

// LastStable returns the replica's stable checkpoint sequence number.
func (r *Replica) LastStable() int64 { return r.lastStable }

// Instances returns the number of ordering instances g (never below 1).
func (r *Replica) Instances() int { return r.cfg.groups() }

// LeadsInstance reports whether this replica leads ordering instance inst
// in its current view (see Config.LeaderOf).
func (r *Replica) LeadsInstance(inst int) bool {
	return inst >= 0 && inst < r.cfg.groups() && r.cfg.LeaderOf(r.view, inst) == r.cfg.Self
}

// PeerHeard appends, per replica id, the last Env.Now a status message
// arrived from that peer (zero: never; the self entry is always zero).
// Like Stats it must run in the node's event context.
func (r *Replica) PeerHeard(dst []time.Duration) []time.Duration {
	return append(dst, r.statusHeard...)
}

// StateMachine returns the replicated service instance (for inspection in
// tests and examples).
func (r *Replica) StateMachine() StateMachine { return r.sm }

// isPrimary reports whether this replica is the primary of its view.
func (r *Replica) isPrimary() bool { return r.cfg.PrimaryOf(r.view) == r.cfg.Self }

// otherReplicas lists every replica id except this one. The returned slice
// is cached; callers must not mutate it.
func (r *Replica) otherReplicas() []int { return r.peers }

// Init implements proc.Handler.
func (r *Replica) Init(env proc.Env) {
	r.env = env
	if aware, ok := r.sm.(EnvAware); ok {
		aware.SetEnv(env)
	}
	if r.cfg.CheckpointSnapshots {
		r.snapshots[0] = r.freezeCheckpoint()
	}
	r.stableDigest = r.checkpointDigest()
	if r.cfg.StatusInterval > 0 {
		env.SetTimer(timerStatus, r.cfg.StatusInterval)
	}
	if r.cfg.KeyRotationInterval > 0 {
		env.SetTimer(timerKeyRotation, r.cfg.KeyRotationInterval)
	}
	if r.cfg.RecoveryInterval > 0 {
		// Stagger the first firing by the replica id so the group never
		// recovers more than one replica at a time.
		stagger := r.cfg.RecoveryInterval / time.Duration(r.cfg.N)
		env.SetTimer(timerRecovery, r.cfg.RecoveryInterval+stagger*time.Duration(r.cfg.Self))
	}
}

// Receive implements proc.Handler.
func (r *Replica) Receive(data []byte) {
	// Fast paths for the two transient ordering messages: decode into
	// engine-owned scratch values, reusing their slice capacity. Safe only
	// because onPrepare/onCommit retain nothing from the message (the
	// pre-prepare, whose Auth and Commits ARE retained in the slot, must
	// take the allocating path).
	if len(data) > 0 {
		switch message.Type(data[0]) {
		case message.TypePrepare:
			if err := message.UnmarshalPrepareInto(data, &r.prepScratch); err != nil {
				r.stats.DroppedMessages++
				return
			}
			r.onPrepare(&r.prepScratch)
			return
		case message.TypeCommit:
			if err := message.UnmarshalCommitInto(data, &r.commitScratch); err != nil {
				r.stats.DroppedMessages++
				return
			}
			r.onCommit(&r.commitScratch)
			return
		}
	}
	m, err := message.Unmarshal(data)
	if err != nil {
		r.stats.DroppedMessages++
		return
	}
	switch msg := m.(type) {
	case *message.Request:
		r.onRequest(msg, data)
	case *message.PrePrepare:
		r.onPrePrepare(msg)
	case *message.Prepare:
		r.onPrepare(msg)
	case *message.Commit:
		r.onCommit(msg)
	case *message.Checkpoint:
		r.onCheckpoint(msg)
	case *message.ViewChange:
		r.onViewChange(msg, data)
	case *message.ViewChangeAck:
		r.onViewChangeAck(msg)
	case *message.NewView:
		r.onNewView(msg)
	case *message.NewKey:
		r.onNewKey(msg)
	case *message.Status:
		r.onStatus(msg)
	case *message.Fetch:
		r.onFetch(msg)
	case *message.Meta:
		r.onMeta(msg)
	case *message.Fragment:
		r.onFragment(msg)
	case *message.Recovery:
		r.onRecovery(msg)
	default:
		r.stats.DroppedMessages++
	}
}

// OnTimer implements proc.Handler.
func (r *Replica) OnTimer(key int) {
	switch key {
	case timerViewChange:
		r.vcTimerArmed = false
		r.startViewChange(r.view + 1)
	case timerStatus:
		r.statusTick()
	case timerKeyRotation:
		r.rotateKeys()
		r.env.SetTimer(timerKeyRotation, r.cfg.KeyRotationInterval)
	case timerCommitFlush:
		r.flushPiggybackCommits()
	case timerBodyFetch:
		r.bodyFetchArmed = false
		r.fetchLateBodies()
	case timerRecovery:
		r.startRecovery()
		if r.cfg.RecoveryInterval > 0 {
			r.env.SetTimer(timerRecovery, r.cfg.RecoveryInterval)
		}
	}
}

// send marshals and unicasts m. The wire buffer is a fresh exact-size
// clone (the environment owns sent buffers); only the encoder is reused.
func (r *Replica) send(dst int, m message.Message) {
	r.env.Send(dst, message.MarshalWith(&r.enc, m))
}

// broadcast marshals and multicasts m to all other replicas.
func (r *Replica) broadcast(m message.Message) {
	r.env.Multicast(r.peers, message.MarshalWith(&r.enc, m))
}

// getSlot returns the log slot for seq, creating it if needed.
func (r *Replica) getSlot(seq int64) *slot {
	s := r.log[seq]
	if s == nil {
		s = newSlot(seq)
		r.log[seq] = s
	}
	return s
}

// inWindow reports whether seq is inside the water marks.
func (r *Replica) inWindow(seq int64) bool {
	return seq > r.lastStable && seq <= r.lastStable+r.cfg.LogWindow
}

// requestWaiting reports whether any authenticated read-write request is
// known but not yet executed — buffered bodies, or batches accepted into
// the log that have not committed. This is the condition that keeps the
// view-change timer armed.
func (r *Replica) requestWaiting() bool {
	if len(r.reqBuffer) > 0 {
		return true
	}
	for n, s := range r.log {
		if n > r.lastCommittedExec && s.havePP && !s.committed {
			return true
		}
	}
	return false
}

// syncVCTimer arms or cancels the liveness timer according to whether the
// replica is waiting for requests to execute. restart forces a re-arm after
// execution progress so slow-but-live primaries are not suspected.
func (r *Replica) syncVCTimer(restart bool) {
	if r.inViewChange {
		return // the view-change path manages its own timer
	}
	waiting := r.requestWaiting()
	switch {
	case waiting && (!r.vcTimerArmed || restart):
		r.env.SetTimer(timerViewChange, r.vcTimeout)
		r.vcTimerArmed = true
	case !waiting && r.vcTimerArmed:
		r.env.CancelTimer(timerViewChange)
		r.vcTimerArmed = false
	}
}

// DebugString summarizes internal progress state (used by development
// tooling; not part of the stable API).
func (r *Replica) DebugString() string {
	missing := 0
	unresolved := 0
	for _, s := range r.log {
		if s.missing > 0 {
			missing++
		}
		if s.havePP && !s.resolved() {
			unresolved++
		}
	}
	return fmt.Sprintf("{pp=%v exec=%d comm=%d stable=%d queue=%d buf=%d inflight=%d slotsMissing=%d unres=%d}",
		r.instPP, r.lastExec, r.lastCommittedExec, r.lastStable, len(r.queue), len(r.reqBuffer), len(r.inFlight), missing, unresolved)
}
