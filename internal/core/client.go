package core

import (
	"fmt"
	"time"

	"bftfast/internal/crypto"
	"bftfast/internal/message"
	"bftfast/internal/obs"
	"bftfast/internal/proc"
)

// Client timer keys.
const timerClientRetransmit = 1

// ClientConfig parameterizes a Client engine.
type ClientConfig struct {
	// N is the replica group size; replicas occupy node ids [0, N).
	N int
	// Self is this client's node id (outside [0, N)).
	Self int
	// Opts mirrors the replica group's optimization settings; the client
	// needs DigestReplies (to designate repliers), ReadOnly (to multicast
	// reads), and SeparateRequests/InlineThreshold (to multicast large
	// request bodies).
	Opts Options
	// InlineThreshold must match the replicas' configuration.
	InlineThreshold int
	// Instances must match the replicas' Config.Instances (parallel-leader
	// ordering): the client sends each request to the leader of the
	// instance its content digest hashes to. 0 or 1 is the single-leader
	// protocol.
	Instances int
	// RetransmitTimeout is the initial request retransmission timeout; it
	// doubles on each retry up to 8x.
	RetransmitTimeout time.Duration
	// TimestampBase seeds the client's monotonically increasing request
	// timestamps. Short-lived client processes reusing one identity must
	// seed it from a clock (the replicas deduplicate by timestamp);
	// long-lived engines and deterministic simulations leave it zero.
	TimestampBase int64
	// Trace receives protocol trace events stamped with Env.Now time; nil
	// disables tracing. The recorder must be private to this client.
	Trace *obs.Recorder
}

// ClientStats exposes client-side protocol counters.
type ClientStats struct {
	Completed    int64
	Retransmits  int64
	Rejected     int64 // replies that failed authentication or matching
	ReplierSkips int64 // ops whose replier rotation skipped a suspected replica
}

// replyVote is one replica's (latest) opinion about the pending request.
type replyVote struct {
	resultD   crypto.Digest
	tentative bool
	full      bool // the replica delivered a body matching resultD
	view      int64
}

// pendingOp is the client's single outstanding request.
type pendingOp struct {
	op        []byte
	readOnly  bool // as declared by the caller
	asRW      bool // read-only op retried through the read-write path
	timestamp int64
	replier   int32
	votes     map[int32]replyVote
	fullBody  map[crypto.Digest][]byte // verified full results by digest
	timeout   time.Duration
	retries   int
	sentAt    time.Duration
	done      func(result []byte)

	// bodyMissing records that a reply certificate formed while the
	// designated replier's full result had not arrived.
	bodyMissing bool
}

// Client is the BFT client engine: it authenticates requests to the
// replica group, collects reply certificates (f+1 matching committed
// replies, 2f+1 matching tentative or read-only replies), validates
// digest replies against the designated replica's full result, and
// retransmits — demanding full replies from everyone — when progress
// stalls. Like the paper's library it runs one operation at a time;
// callers queue further operations until the callback fires.
type Client struct {
	cfg   ClientConfig
	suite *crypto.Suite
	env   proc.Env

	view  int64
	ts    int64
	cur   *pendingOp
	queue []*pendingOp

	// jitterState drives retransmission-timeout jitter (deterministic per
	// client) so a population of clients that lost requests in the same
	// burst does not retransmit in a synchronized wave forever.
	jitterState uint64

	// srtt is a smoothed estimate of operation latency. The retransmission
	// timeout adapts to it (never below the configured floor): with a
	// fixed timeout, any load level whose queueing delay exceeds the
	// timeout makes every client duplicate every request, which sustains
	// the overload — congestion collapse.
	srtt time.Duration

	// suspect marks replicas that left a certified result without its
	// full body until the retransmission timer fired; begin skips them
	// when designating the replier. suspects counts the marks.
	suspect  []bool
	suspects int

	// Hot-path scratch state (the engine is single-threaded): a reusable
	// encoder list, the cached all-replicas destination slice, a reusable
	// request authenticator, and a decode-into reply.
	enc          message.EncoderList
	all          []int
	authScratch  crypto.Authenticator
	replyScratch message.Reply

	rec   *obs.Recorder // nil disables tracing
	stats ClientStats
}

// trace records one protocol event stamped with the engine's current time;
// a nil recorder costs one branch (see Replica.trace).
//
//bftvet:allocfree
func (c *Client) trace(kind obs.Kind, ts int64) {
	if c.rec != nil {
		c.rec.Record(c.env.Now(), kind, 0, int64(c.cfg.Self), ts)
	}
}

// jitter returns a deterministic pseudo-random duration in [-d/4, d/4).
func (c *Client) jitter(d time.Duration) time.Duration {
	c.jitterState = c.jitterState*6364136223846793005 + 1442695040888963407
	span := int64(d) / 2
	if span <= 0 {
		return 0
	}
	return time.Duration(int64(c.jitterState>>16)%span - span/2)
}

var _ proc.Handler = (*Client)(nil)

// NewClient builds a client engine. The key table must contain pairwise
// keys with every replica.
func NewClient(cfg ClientConfig, keys *crypto.KeyTable, meter crypto.Meter) (*Client, error) {
	if cfg.N < 4 {
		return nil, fmt.Errorf("core: client of %d replicas; need at least 4", cfg.N)
	}
	if cfg.Self >= 0 && cfg.Self < cfg.N {
		return nil, fmt.Errorf("core: client id %d collides with replica ids [0, %d)", cfg.Self, cfg.N)
	}
	if keys.Self() != cfg.Self {
		return nil, fmt.Errorf("core: key table owner %d != client id %d", keys.Self(), cfg.Self)
	}
	if cfg.RetransmitTimeout <= 0 {
		cfg.RetransmitTimeout = 150 * time.Millisecond
	}
	all := make([]int, cfg.N)
	for i := range all {
		all[i] = i
	}
	return &Client{
		cfg:         cfg,
		suite:       crypto.NewSuite(keys, meter),
		ts:          cfg.TimestampBase,
		jitterState: uint64(cfg.Self)*0x9e3779b97f4a7c15 + 1,
		all:         all,
		suspect:     make([]bool, cfg.N),
		rec:         cfg.Trace,
	}, nil
}

// Stats returns a copy of the client's counters.
func (c *Client) Stats() ClientStats { return c.stats }

// RegisterMetrics exposes the client's counters as read-through gauges
// under prefix (e.g. "client100."). Snapshots must be taken from the
// node's event context, like Stats.
func (c *Client) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.GaugeFunc(prefix+"completed", func() int64 { return c.stats.Completed })
	reg.GaugeFunc(prefix+"retransmits", func() int64 { return c.stats.Retransmits })
	reg.GaugeFunc(prefix+"rejected", func() int64 { return c.stats.Rejected })
	reg.GaugeFunc(prefix+"replier_skips", func() int64 { return c.stats.ReplierSkips })
}

// Init implements proc.Handler.
func (c *Client) Init(env proc.Env) { c.env = env }

// Submit queues an operation for execution; done fires with the result
// once a reply certificate is assembled. Submit must be called from the
// engine's event context (Init, a timer, a reply callback, or before the
// environment starts).
func (c *Client) Submit(op []byte, readOnly bool, done func(result []byte)) {
	p := &pendingOp{op: op, readOnly: readOnly, done: done}
	if c.cur != nil {
		c.queue = append(c.queue, p)
		return
	}
	c.cur = p
	c.begin(p)
}

// Busy reports whether an operation is outstanding.
func (c *Client) Busy() bool { return c.cur != nil }

func (c *Client) begin(p *pendingOp) {
	c.ts++
	p.timestamp = c.ts
	p.votes = make(map[int32]replyVote)
	p.fullBody = make(map[crypto.Digest][]byte)
	p.timeout = c.cfg.RetransmitTimeout
	if adaptive := 4 * c.srtt; adaptive > p.timeout {
		p.timeout = adaptive
	}
	p.sentAt = c.env.Now()
	p.replier = message.AllReplicas
	if c.cfg.Opts.DigestReplies {
		p.replier = c.designateReplier()
	}
	// Traced before the MAC/marshal work so the span's request phase
	// includes the client-side send cost (Env.Now advances with charges).
	c.trace(obs.EvClientSend, p.timestamp)
	c.transmit(p, false)
	c.env.SetTimer(timerClientRetransmit, p.timeout+c.jitter(p.timeout))
}

// designateReplier rotates the full-result replier with the timestamp for
// load balancing, moving past suspected replicas; with every replica
// suspected it keeps the plain rotation.
func (c *Client) designateReplier() int32 {
	n := int64(c.cfg.N)
	first := c.ts % n
	for i := int64(0); i < n; i++ {
		r := (first + i) % n
		if !c.suspect[r] {
			if i > 0 {
				c.stats.ReplierSkips++
			}
			return int32(r)
		}
	}
	return int32(first)
}

// transmit sends (or resends) the pending request. Retransmissions demand
// full replies from every replica and go to the whole group.
func (c *Client) transmit(p *pendingOp, retransmit bool) {
	req := &message.Request{
		Client:    int32(c.cfg.Self),
		Timestamp: p.timestamp,
		ReadOnly:  p.readOnly && !p.asRW && c.cfg.Opts.ReadOnly,
		Replier:   p.replier,
		Op:        p.op,
	}
	if retransmit {
		req.Replier = message.AllReplicas
	}
	e := c.enc.Get()
	d := req.ContentDigestWith(c.suite, e)
	c.authScratch = c.suite.AuthInto(c.authScratch, c.cfg.N, d[:])
	req.Auth = c.authScratch
	raw := message.MarshalWith(&c.enc, req)
	c.enc.Put(e)

	switch {
	case retransmit, req.ReadOnly:
		// Read-only requests go everywhere by design; retransmissions go
		// everywhere to route around a faulty primary or replier.
		c.env.Multicast(c.all, raw)
	case c.cfg.Opts.SeparateRequests && len(raw) > c.cfg.InlineThreshold:
		// Separate request transmission: all replicas receive and
		// authenticate the body in parallel; the pre-prepare will carry
		// only its digest.
		c.env.Multicast(c.all, raw)
	default:
		c.env.Send(c.leaderFor(d), raw)
	}
}

// primary is the client's current primary guess from the views reported in
// accepted replies.
func (c *Client) primary() int { return int(c.view % int64(c.cfg.N)) }

// leaderFor returns the replica a request should be sent to: under
// parallel-leader ordering, the leader of the instance the request's
// content digest hashes to; otherwise the primary.
func (c *Client) leaderFor(d crypto.Digest) int {
	g := c.cfg.Instances
	if g <= 1 {
		return c.primary()
	}
	return int((c.view + int64(instanceForDigest(d, g))) % int64(c.cfg.N))
}

// Receive implements proc.Handler. Replies — the only message a client
// accepts — decode into a reused scratch value; the retained Result bytes
// alias data, which the engine owns.
func (c *Client) Receive(data []byte) {
	if err := message.UnmarshalReplyInto(data, &c.replyScratch); err != nil {
		c.stats.Rejected++
		return
	}
	c.onReply(&c.replyScratch)
}

func (c *Client) onReply(rep *message.Reply) {
	p := c.cur
	if p == nil || rep.Timestamp != p.timestamp || int(rep.Client) != c.cfg.Self {
		return
	}
	sender := int(rep.Replica)
	if sender < 0 || sender >= c.cfg.N {
		c.stats.Rejected++
		return
	}
	e := c.enc.Get()
	authOK := c.suite.VerifyMAC(sender, rep.MAC, rep.AuthContentInto(e))
	c.enc.Put(e)
	if !authOK {
		c.stats.Rejected++
		return
	}
	if rep.Full {
		// Validate the full body against its digest once; a lying replier
		// cannot make a forged body match the group's digest votes.
		if c.suite.Digest(rep.Result) != rep.ResultD {
			c.stats.Rejected++
			return
		}
		p.fullBody[rep.ResultD] = rep.Result
	}
	prev, seen := p.votes[rep.Replica]
	same := seen && prev.resultD == rep.ResultD
	// A body from a replica whose digest already counted is still news:
	// after a retransmission it may be the one the certificate waits for.
	if same && !prev.tentative && (prev.full || !rep.Full) {
		return // nothing new
	}
	p.votes[rep.Replica] = replyVote{resultD: rep.ResultD, tentative: rep.Tentative,
		full: rep.Full || (same && prev.full), view: rep.View}
	c.checkCertificate(p)
}

// checkCertificate assembles the reply certificate: f+1 matching committed
// replies for ordinary operations, or 2f+1 matching replies (tentative
// counts) — always 2f+1 for the read-only fast path, which never commits.
func (c *Client) checkCertificate(p *pendingOp) {
	f := (c.cfg.N - 1) / 3
	type tally struct {
		committed int
		total     int
		maxView   int64
	}
	counts := make(map[crypto.Digest]*tally)
	for _, v := range p.votes {
		t := counts[v.resultD]
		if t == nil {
			t = &tally{}
			counts[v.resultD] = t
		}
		t.total++
		if !v.tentative {
			t.committed++
		}
		if v.view > t.maxView {
			t.maxView = v.view
		}
	}
	readFast := p.readOnly && !p.asRW && c.cfg.Opts.ReadOnly
	for d, t := range counts {
		ok := t.total >= 2*f+1 || (!readFast && t.committed >= f+1)
		if !ok {
			continue
		}
		body, have := p.fullBody[d]
		if !have {
			p.bodyMissing = true // certificate ready but full result still in flight
			continue
		}
		c.env.CancelTimer(timerClientRetransmit)
		if c.suspects > 0 {
			// A suspect that delivered the certified body is cleared; a
			// self-consistent body for any other digest does not count.
			for id, v := range p.votes {
				if v.full && v.resultD == d && c.suspect[id] {
					c.suspect[id] = false
					c.suspects--
				}
			}
		}
		if t.maxView > c.view {
			c.view = t.maxView
		}
		if sample := c.env.Now() - p.sentAt; sample > 0 {
			if c.srtt == 0 {
				c.srtt = sample
			} else {
				c.srtt = (7*c.srtt + sample) / 8
			}
		}
		c.trace(obs.EvClientDone, p.timestamp)
		c.stats.Completed++
		c.cur = nil
		done := p.done
		if len(c.queue) > 0 {
			next := c.queue[0]
			c.queue = c.queue[1:]
			c.cur = next
			// Certificate thresholds exceed half the per-replica votes, so
			// at most one digest can qualify: this path runs on at most one
			// iteration (and returns), making the walk order unobservable.
			//bftvet:allow:mapsend at most one digest holds a certificate; the loop sends once then returns
			c.begin(next)
		}
		if done != nil {
			done(body)
		}
		return
	}
}

// OnTimer implements proc.Handler: retransmission with exponential backoff;
// a timed-out read-only request is reissued through the read-write path
// (the paper's fallback for reads racing concurrent writes).
func (c *Client) OnTimer(key int) {
	if key != timerClientRetransmit || c.cur == nil {
		return
	}
	p := c.cur
	c.stats.Retransmits++
	p.retries++
	if p.bodyMissing && p.replier != message.AllReplicas && !c.suspect[p.replier] {
		// The other replicas answered; only the designated replier's full
		// result is missing. Name another replica until it delivers one.
		c.suspect[p.replier] = true
		c.suspects++
	}
	if p.readOnly && !p.asRW && c.cfg.Opts.ReadOnly {
		// Fall back to the ordered path with a fresh timestamp.
		p.asRW = true
		c.ts++
		p.timestamp = c.ts
		p.votes = make(map[int32]replyVote)
		p.fullBody = make(map[crypto.Digest][]byte)
		p.bodyMissing = false
	}
	c.transmit(p, true)
	c.trace(obs.EvClientResend, p.timestamp)
	if p.timeout < 8*c.cfg.RetransmitTimeout {
		p.timeout *= 2
	}
	c.env.SetTimer(timerClientRetransmit, p.timeout+c.jitter(p.timeout))
}
