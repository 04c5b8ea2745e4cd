package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"bftfast/internal/crypto"
	"bftfast/internal/message"
	"bftfast/internal/obs"
	"bftfast/internal/proc"
)

// clientHarness drives a Client engine directly, playing the replica group.
type clientHarness struct {
	t      *testing.T
	c      *cluster
	client *Client
	tables []*crypto.KeyTable
	n      int
	sent   []delivery // messages the client sent, captured via observe
}

func newClientHarness(t *testing.T, opts Options) *clientHarness {
	t.Helper()
	const n = 4
	const clientID = 100
	tables := make([]*crypto.KeyTable, 0, n+1)
	for i := 0; i < n; i++ {
		tables = append(tables, crypto.NewKeyTable(i))
	}
	tables = append(tables, crypto.NewKeyTable(clientID))
	if err := crypto.ProvisionAll(newTestRand(), tables); err != nil {
		t.Fatal(err)
	}
	cfg := ClientConfig{N: n, Self: clientID, Opts: opts, InlineThreshold: 255,
		RetransmitTimeout: 100 * time.Millisecond}
	cl, err := NewClient(cfg, tables[n], nil)
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t)
	h := &clientHarness{t: t, c: c, client: cl, tables: tables, n: n}
	c.observe = func(src, dst int, data []byte) {
		if src == clientID {
			h.sent = append(h.sent, delivery{src: src, dst: dst, data: data})
		}
	}
	// Register sink handlers for the replicas so deliveries are observed.
	for i := 0; i < n; i++ {
		c.add(i, sinkHandler{})
	}
	c.add(clientID, cl)
	c.start()
	return h
}

// sinkHandler swallows everything; the harness plays the replicas itself.
type sinkHandler struct{}

func (sinkHandler) Init(proc.Env)  {}
func (sinkHandler) Receive([]byte) {}
func (sinkHandler) OnTimer(int)    {}

// reply builds an authenticated reply from a replica.
func (h *clientHarness) reply(replica int, ts int64, result []byte, tentative, full bool) {
	rep := &message.Reply{
		View:      0,
		Timestamp: ts,
		Client:    100,
		Replica:   int32(replica),
		Tentative: tentative,
		Full:      full,
		ResultD:   crypto.Hash(result),
	}
	if full {
		rep.Result = result
	}
	suite := crypto.NewSuite(h.tables[replica], nil)
	mac, ok := suite.MAC(100, rep.AuthContent())
	if !ok {
		h.t.Fatal("no key toward client")
	}
	rep.MAC = mac
	h.client.Receive(message.Marshal(rep))
}

func TestClientAcceptsFPlusOneCommittedReplies(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	var got []byte
	h.client.Submit([]byte("op"), false, func(res []byte) { got = append([]byte(nil), res...) })
	h.c.pump()

	h.reply(0, 1, []byte("R"), false, true)
	if got != nil {
		t.Fatal("accepted after one reply")
	}
	h.reply(1, 1, []byte("R"), false, false)
	if string(got) != "R" {
		t.Fatalf("result = %q after f+1 committed matching replies", got)
	}
}

func TestClientNeedsQuorumForTentative(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	var got []byte
	h.client.Submit([]byte("op"), false, func(res []byte) { got = res })
	h.c.pump()

	h.reply(0, 1, []byte("R"), true, true)
	h.reply(1, 1, []byte("R"), true, false)
	if got != nil {
		t.Fatal("accepted 2 tentative replies; needs 2f+1 = 3")
	}
	h.reply(2, 1, []byte("R"), true, false)
	if string(got) != "R" {
		t.Fatalf("result = %q after 2f+1 tentative replies", got)
	}
}

func TestClientRejectsMismatchedResults(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	var got []byte
	h.client.Submit([]byte("op"), false, func(res []byte) { got = res })
	h.c.pump()

	// Two replicas lie with one value, one honest replica disagrees:
	// no certificate forms from the liars alone plus nothing.
	h.reply(0, 1, []byte("LIE"), false, true)
	h.reply(1, 1, []byte("TRUTH"), false, true)
	if got != nil {
		t.Fatal("accepted without f+1 matching replies")
	}
	// A second honest reply resolves it.
	h.reply(2, 1, []byte("TRUTH"), false, false)
	if string(got) != "TRUTH" {
		t.Fatalf("result = %q, want TRUTH", got)
	}
}

func TestClientIgnoresForgedReplies(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	var got []byte
	h.client.Submit([]byte("op"), false, func(res []byte) { got = res })
	h.c.pump()

	// A reply with a bad MAC (signed with replica 3's key but claiming to
	// be replica 0) must not count.
	rep := &message.Reply{Timestamp: 1, Client: 100, Replica: 0, Full: true,
		Result: []byte("evil"), ResultD: crypto.Hash([]byte("evil"))}
	suite := crypto.NewSuite(h.tables[3], nil)
	mac, _ := suite.MAC(100, rep.AuthContent())
	rep.MAC = mac
	h.client.Receive(message.Marshal(rep))
	h.client.Receive(message.Marshal(rep))
	h.client.Receive(message.Marshal(rep))
	if got != nil {
		t.Fatal("forged replies formed a certificate")
	}
	if h.client.Stats().Rejected == 0 {
		t.Fatal("forged replies not counted as rejected")
	}
}

func TestClientDigestReplyNeedsFullBody(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	var got []byte
	h.client.Submit([]byte("op"), false, func(res []byte) { got = res })
	h.c.pump()

	// A full certificate of digest-only replies must wait for the body.
	h.reply(0, 1, []byte("R"), false, false)
	h.reply(1, 1, []byte("R"), false, false)
	h.reply(2, 1, []byte("R"), false, false)
	if got != nil {
		t.Fatal("accepted digest-only certificate without the full result")
	}
	h.reply(3, 1, []byte("R"), false, true)
	if string(got) != "R" {
		t.Fatalf("result = %q once the body arrived", got)
	}
}

func TestClientLyingReplierBodyRejected(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	var got []byte
	h.client.Submit([]byte("op"), false, func(res []byte) { got = res })
	h.c.pump()

	// The designated replier sends a body whose digest does not match what
	// the group attests: the full reply must be rejected outright (its
	// internal digest field is also wrong, failing the self-check).
	rep := &message.Reply{Timestamp: 1, Client: 100, Replica: 0, Full: true,
		Result: []byte("evil"), ResultD: crypto.Hash([]byte("good"))}
	suite := crypto.NewSuite(h.tables[0], nil)
	mac, _ := suite.MAC(100, rep.AuthContent())
	rep.MAC = mac
	h.client.Receive(message.Marshal(rep))
	h.reply(1, 1, []byte("good"), false, false)
	h.reply(2, 1, []byte("good"), false, false)
	if got != nil {
		t.Fatal("certificate formed from a forged body")
	}
	h.reply(3, 1, []byte("good"), false, true)
	if string(got) != "good" {
		t.Fatalf("result = %q, want good", got)
	}
}

func TestClientReadOnlyFallsBackToReadWrite(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	done := false
	h.client.Submit([]byte("read"), true, func(res []byte) { done = true })
	h.c.pump()

	// First transmission is a read-only multicast to all 4 replicas.
	if len(h.sent) != 4 {
		t.Fatalf("read-only sent %d messages, want 4 (multicast)", len(h.sent))
	}
	m, err := message.Unmarshal(h.sent[0].data)
	if err != nil {
		t.Fatal(err)
	}
	if !m.(*message.Request).ReadOnly {
		t.Fatal("first transmission not flagged read-only")
	}

	// No replies: the retransmission must reissue through the ordered path.
	h.sent = nil
	h.c.advance(500 * time.Millisecond)
	if len(h.sent) == 0 {
		t.Fatal("no retransmission happened")
	}
	m, err = message.Unmarshal(h.sent[0].data)
	if err != nil {
		t.Fatal(err)
	}
	req := m.(*message.Request)
	if req.ReadOnly {
		t.Fatal("fallback retransmission still read-only")
	}
	if req.Timestamp != 2 {
		t.Fatalf("fallback timestamp = %d, want a fresh one", req.Timestamp)
	}
	_ = done
}

func TestClientRetransmitDemandsFullReplies(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	h.client.Submit(bytes.Repeat([]byte("x"), 10), false, func([]byte) {})
	h.c.pump()
	h.sent = nil
	h.c.advance(time.Second)
	if len(h.sent) == 0 {
		t.Fatal("no retransmission")
	}
	m, err := message.Unmarshal(h.sent[0].data)
	if err != nil {
		t.Fatal(err)
	}
	if m.(*message.Request).Replier != message.AllReplicas {
		t.Fatal("retransmission did not demand full replies from everyone")
	}
	if h.client.Stats().Retransmits == 0 {
		t.Fatal("retransmit counter not incremented")
	}
}

func TestClientAdaptiveTimeoutGrowsWithLatency(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	// Complete three ops with ~200ms latency each; srtt should push the
	// timeout above the 100ms configured floor.
	for ts := int64(1); ts <= 3; ts++ {
		done := false
		h.client.Submit([]byte("op"), false, func([]byte) { done = true })
		h.c.pump()
		h.c.advance(80 * time.Millisecond) // below the timeout floor
		h.reply(0, ts, []byte("R"), false, true)
		h.reply(1, ts, []byte("R"), false, false)
		h.c.pump()
		if !done {
			t.Fatalf("op %d did not complete", ts)
		}
	}
	if h.client.srtt < 50*time.Millisecond {
		t.Fatalf("srtt = %v, want ~80ms after three samples", h.client.srtt)
	}
	// The next op's timeout must be at least 4x srtt.
	h.client.Submit([]byte("op"), false, func([]byte) {})
	h.c.pump()
	if got, want := h.client.cur.timeout, 4*h.client.srtt; got < want {
		t.Fatalf("adaptive timeout = %v, want >= %v", got, want)
	}
}

func TestClientJitterDeterministicAndBounded(t *testing.T) {
	mk := func() *Client {
		cfg := ClientConfig{N: 4, Self: 100, RetransmitTimeout: 100 * time.Millisecond}
		cl, err := NewClient(cfg, crypto.NewKeyTable(100), nil)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	a, b := mk(), mk()
	for i := 0; i < 1000; i++ {
		ja, jb := a.jitter(time.Second), b.jitter(time.Second)
		if ja != jb {
			t.Fatal("jitter not deterministic across identical clients")
		}
		if ja < -250*time.Millisecond || ja >= 250*time.Millisecond {
			t.Fatalf("jitter %v out of [-d/4, d/4)", ja)
		}
	}
	if a.jitter(0) != 0 {
		t.Fatal("zero-duration jitter not zero")
	}
}

func TestClientQueueRunsInOrder(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	var order []int64
	for i := 0; i < 3; i++ {
		h.client.Submit([]byte("op"), false, func([]byte) {
			order = append(order, h.client.ts)
		})
	}
	h.c.pump()
	for ts := int64(1); ts <= 3; ts++ {
		h.reply(0, ts, []byte("R"), false, true)
		h.reply(1, ts, []byte("R"), false, false)
		h.c.pump()
	}
	if len(order) != 3 {
		t.Fatalf("%d ops completed, want 3", len(order))
	}
}

// lastReplier decodes the most recent request the client sent and returns
// the replica it designated for the full result.
func (h *clientHarness) lastReplier() int32 {
	h.t.Helper()
	if len(h.sent) == 0 {
		h.t.Fatal("client sent nothing")
	}
	m, err := message.Unmarshal(h.sent[len(h.sent)-1].data)
	if err != nil {
		h.t.Fatal(err)
	}
	return m.(*message.Request).Replier
}

// runOp submits one read-write op, checks the replier it names, and
// completes it with a full reply from that replier plus one committed
// digest reply.
func (h *clientHarness) runOp(ts int64, wantReplier int32) {
	h.t.Helper()
	done := false
	h.sent = nil
	h.client.Submit([]byte("op"), false, func([]byte) { done = true })
	h.c.pump()
	if got := h.lastReplier(); got != wantReplier {
		h.t.Fatalf("op ts=%d names replier %d, want %d", ts, got, wantReplier)
	}
	other := (int(wantReplier) + 1) % h.n
	h.reply(int(wantReplier), ts, []byte("R"), false, true)
	h.reply(other, ts, []byte("R"), false, false)
	if !done {
		h.t.Fatalf("op ts=%d did not complete", ts)
	}
}

// withholdBody runs the client's first op (ts 1, replier 1) to a tentative
// certificate of digest replies from replicas 0, 2 and 3, lets its
// retransmission timer fire, then completes it from replica 0's full
// reply.
func (h *clientHarness) withholdBody() {
	h.t.Helper()
	done := false
	h.client.Submit([]byte("op"), false, func([]byte) { done = true })
	h.c.pump()
	for _, r := range []int{0, 2, 3} {
		h.reply(r, 1, []byte("R"), true, false)
	}
	if done {
		h.t.Fatal("digest-only certificate accepted")
	}
	h.c.advance(200 * time.Millisecond)
	h.reply(0, 1, []byte("R"), false, true)
	if !done {
		h.t.Fatal("op did not complete from the retransmitted full reply")
	}
}

func TestClientReplierRotatesWithTimestamp(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	for ts := int64(1); ts <= 8; ts++ {
		h.runOp(ts, int32(ts%int64(h.n)))
	}
	if s := h.client.Stats().ReplierSkips; s != 0 {
		t.Fatalf("ReplierSkips = %d with no suspect", s)
	}
}

func TestClientSkipsReplierThatWithheldBody(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	h.withholdBody() // replier 1 is now suspected
	h.runOp(2, 2)
	h.runOp(3, 3)
	h.runOp(4, 0)
	h.runOp(5, 2) // rotation names 1; the client moves past it
	reg := obs.NewRegistry()
	h.client.RegisterMetrics(reg, "client.")
	if m, ok := reg.Get("client.replier_skips"); !ok || m.Value != 1 {
		t.Fatalf("client.replier_skips = %+v (registered %v), want 1", m, ok)
	}
}

func TestClientTimerBeforeCertificateSuspectsNoOne(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	done := false
	h.client.Submit([]byte("op"), false, func([]byte) { done = true })
	h.c.pump()
	// One digest reply is no certificate: the timer expiry is overload or
	// a lost request, not a withheld body.
	h.reply(0, 1, []byte("R"), true, false)
	h.c.advance(200 * time.Millisecond)
	// Completed without replier 1's body, which would clear a suspicion.
	h.reply(2, 1, []byte("R"), false, true)
	h.reply(3, 1, []byte("R"), false, true)
	if !done {
		t.Fatal("op did not complete")
	}
	for ts := int64(2); ts <= 5; ts++ {
		h.runOp(ts, int32(ts%int64(h.n)))
	}
}

func TestClientSuspicionClearsOnlyOnCertifiedBody(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	h.withholdBody()

	// The suspect sends a self-consistent full reply for a result no
	// certificate supports; the op completes on the honest replies.
	done := false
	h.client.Submit([]byte("op"), false, func([]byte) { done = true })
	h.c.pump()
	rep := &message.Reply{Timestamp: 2, Client: 100, Replica: 1, Full: true,
		Result: []byte("evil"), ResultD: crypto.Hash([]byte("evil"))}
	suite := crypto.NewSuite(h.tables[1], nil)
	mac, _ := suite.MAC(100, rep.AuthContent())
	rep.MAC = mac
	h.client.Receive(message.Marshal(rep))
	h.reply(2, 2, []byte("R"), false, true)
	h.reply(3, 2, []byte("R"), false, false)
	if !done {
		t.Fatal("op did not complete")
	}
	if !h.client.suspect[1] {
		t.Fatal("a body outside the certificate cleared the suspicion")
	}

	// The suspect's full reply matching the certified digest clears it.
	done = false
	h.client.Submit([]byte("op"), false, func([]byte) { done = true })
	h.c.pump()
	h.reply(1, 3, []byte("R"), false, true)
	h.reply(3, 3, []byte("R"), false, true)
	if !done {
		t.Fatal("op did not complete")
	}
	if h.client.suspect[1] {
		t.Fatal("a certified full result did not clear the suspicion")
	}
	h.runOp(4, 0)
	h.runOp(5, 1)
}

func TestClientReadOnlyFallbackResetsBodyMissing(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	h.client.Submit([]byte("read"), true, func([]byte) {})
	h.c.pump()
	for _, r := range []int{0, 2, 3} {
		h.reply(r, 1, []byte("R"), true, false)
	}
	if !h.client.cur.bodyMissing {
		t.Fatal("read-only certificate without the replier's body not recorded")
	}
	h.c.advance(200 * time.Millisecond)
	p := h.client.cur
	if p == nil || !p.asRW {
		t.Fatal("read-only op did not fall back to the ordered path")
	}
	if !h.client.suspect[1] {
		t.Fatal("replier 1 not suspected after withholding the read-only body")
	}
	if p.bodyMissing {
		t.Fatal("fallback kept the read-only attempt's bodyMissing flag")
	}
}

// TestCrashedBackupCostsEachClientOneRetransmission crashes backup 3 under
// load from several clients with digest replies on. Each client loses one
// retransmission timeout on the first op that names replica 3 and then
// stops naming it; a blind ts mod N rotation would retransmit on every
// fourth op instead.
func TestCrashedBackupCostsEachClientOneRetransmission(t *testing.T) {
	ids := []int{100, 101, 102, 103}
	g := buildGroup(t, 4, ids, nil)
	if !g.replicas[0].cfg.Opts.DigestReplies {
		t.Fatal("default config has digest replies off")
	}
	g.c.start()
	done := 0
	wave := func(perClient int, what string) {
		want := done + perClient*len(ids)
		for _, id := range ids {
			for i := 0; i < perClient; i++ {
				g.invokeAsync(id, opAppend(fmt.Sprint(id), "x"), false, &done)
			}
		}
		g.c.run(func() bool { return done == want }, 60*time.Second, what)
	}
	retransmits := func() (sum int64) {
		for _, id := range ids {
			sum += g.clients[id].Stats().Retransmits
		}
		return sum
	}

	wave(8, "healthy wave")
	before := retransmits()
	g.crash(3)
	const perClient = 40
	wave(perClient, "wave after the crash")

	// Slack covers an op in flight at the crash whose replier was 3 before
	// its client's first suspicion; it stays far below the blind
	// rotation's perClient/4 per client.
	const slack = 2
	got := retransmits() - before
	if limit := int64(len(ids) + slack); got > limit {
		t.Fatalf("%d retransmissions after the crash, want at most %d (one per client + %d)", got, limit, slack)
	}
	for _, id := range ids {
		if s := g.clients[id].Stats().ReplierSkips; s == 0 {
			t.Fatalf("client %d never skipped the crashed replier", id)
		}
	}
	t.Logf("%d retransmissions for %d ops after the crash", got, perClient*len(ids))
}

func TestClientLateBodyFromCommittedVoterCompletes(t *testing.T) {
	opts := AllOptimizations()
	opts.TentativeExecution = false
	h := newClientHarness(t, opts)
	done := false
	h.client.Submit([]byte("op"), false, func([]byte) { done = true })
	h.c.pump()
	// f+1 committed digest replies certify the result; replier 1 is silent.
	h.reply(0, 1, []byte("R"), false, false)
	h.reply(2, 1, []byte("R"), false, false)
	h.c.advance(200 * time.Millisecond)
	// The retransmission demands full replies: replica 0 answers again
	// with the same committed vote, now carrying the body.
	h.reply(0, 1, []byte("R"), false, true)
	if !done {
		t.Fatal("body from a replica that already voted did not complete the certificate")
	}
	if !h.client.suspect[1] {
		t.Fatal("silent replier not suspected")
	}
}
