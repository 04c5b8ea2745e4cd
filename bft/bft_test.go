package bft_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bftfast/bft"
	"bftfast/internal/crypto"
)

// counterSM is a minimal deterministic state machine: "inc" increments,
// "get" reads.
type counterSM struct {
	mu sync.Mutex // the engine is single-threaded, but tests peek
	n  int64
}

func (c *counterSM) Execute(client int32, op []byte, readOnly bool) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if string(op) == "inc" && !readOnly {
		c.n++
	}
	return []byte(fmt.Sprintf("%d", c.n))
}

func (c *counterSM) StateDigest() crypto.Digest {
	c.mu.Lock()
	defer c.mu.Unlock()
	return crypto.Hash([]byte(fmt.Sprintf("%d", c.n)))
}

func (c *counterSM) Freeze() bft.Frozen { return bft.FrozenBytes(c.Snapshot()) }

func (c *counterSM) Snapshot() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return []byte(fmt.Sprintf("%d", c.n))
}

func (c *counterSM) Restore(snap []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := fmt.Sscanf(string(snap), "%d", &c.n)
	return err
}

func startCluster(t *testing.T, net bft.Network, n int, clientIDs []int) (*bft.Client, []*bft.Replica, func()) {
	t.Helper()
	ids := make([]int, 0, n+len(clientIDs))
	for i := 0; i < n; i++ {
		ids = append(ids, i)
	}
	ids = append(ids, clientIDs...)
	rings := bft.NewKeyrings(ids)
	if err := bft.Provision(rand.New(rand.NewSource(1)), rings); err != nil { //nolint:gosec
		t.Fatal(err)
	}
	var replicas []*bft.Replica
	for i := 0; i < n; i++ {
		r, err := bft.StartReplica(bft.DefaultConfig(n, i), &counterSM{}, rings[i], net)
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, r)
	}
	client, err := bft.StartClient(bft.NewClientConfig(n, clientIDs[0]), rings[n], net)
	if err != nil {
		t.Fatal(err)
	}
	cleanup := func() {
		client.Close()
		for _, r := range replicas {
			r.Close()
		}
	}
	return client, replicas, cleanup
}

func TestPublicAPIRoundTrip(t *testing.T) {
	client, _, cleanup := startCluster(t, bft.NewChannelNetwork(), 4, []int{100})
	defer cleanup()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 1; i <= 5; i++ {
		res, err := client.Invoke(ctx, []byte("inc"), false)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if string(res) != fmt.Sprintf("%d", i) {
			t.Fatalf("counter = %s after %d incs", res, i)
		}
	}
	res, err := client.Invoke(ctx, []byte("get"), true)
	if err != nil {
		t.Fatalf("read-only invoke: %v", err)
	}
	if string(res) != "5" {
		t.Fatalf("read-only get = %s, want 5", res)
	}
	if st := client.Stats(); st.Completed != 6 {
		t.Fatalf("client completed %d ops, want 6", st.Completed)
	}
}

func TestPublicAPIConcurrentInvokes(t *testing.T) {
	client, replicas, cleanup := startCluster(t, bft.NewChannelNetwork(), 4, []int{100})
	defer cleanup()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Invoke(ctx, []byte("inc"), false); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := client.Invoke(ctx, []byte("get"), true)
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "20" {
		t.Fatalf("counter = %s, want 20", res)
	}
	if v := replicas[0].View(); v != 0 {
		t.Fatalf("view = %d, want 0 (healthy run)", v)
	}
}

func TestPublicAPISurvivesPrimaryCrash(t *testing.T) {
	client, replicas, cleanup := startCluster(t, bft.NewChannelNetwork(), 4, []int{100})
	defer cleanup()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := client.Invoke(ctx, []byte("inc"), false); err != nil {
		t.Fatal(err)
	}
	replicas[0].Close() // kill the view-0 primary
	res, err := client.Invoke(ctx, []byte("inc"), false)
	if err != nil {
		t.Fatalf("invoke after primary crash: %v", err)
	}
	if string(res) != "2" {
		t.Fatalf("counter = %s after crash, want 2", res)
	}
	if v := replicas[1].View(); v < 1 {
		t.Fatalf("replica 1 still in view %d after primary crash", v)
	}
}

func TestPublicAPIInvokeContextCancel(t *testing.T) {
	net := bft.NewChannelNetwork()
	rings := bft.NewKeyrings([]int{0, 1, 2, 3, 100})
	if err := bft.Provision(rand.New(rand.NewSource(1)), rings); err != nil { //nolint:gosec
		t.Fatal(err)
	}
	// No replicas started: the invoke can never complete.
	client, err := bft.StartClient(bft.NewClientConfig(4, 100), rings[4], net)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := client.Invoke(ctx, []byte("inc"), false); err == nil {
		t.Fatal("invoke succeeded with no replicas")
	}
}

func TestPublicAPIValidation(t *testing.T) {
	net := bft.NewChannelNetwork()
	rings := bft.NewKeyrings([]int{0, 2})
	if _, err := bft.StartReplica(bft.DefaultConfig(3, 0), &counterSM{}, rings[0], net); err == nil {
		t.Fatal("3-replica group accepted (cannot tolerate any fault)")
	}
	if _, err := bft.StartClient(bft.NewClientConfig(4, 2), rings[1], net); err == nil {
		t.Fatal("client id colliding with replica ids accepted")
	}
}

func TestPublicAPIScheduleRecovery(t *testing.T) {
	client, replicas, cleanup := startCluster(t, bft.NewChannelNetwork(), 4, []int{100})
	defer cleanup()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := client.Invoke(ctx, []byte("inc"), false); err != nil {
		t.Fatal(err)
	}
	replicas[2].ScheduleRecovery(20 * time.Millisecond)
	time.Sleep(100 * time.Millisecond)
	for i := 0; i < 5; i++ {
		if _, err := client.Invoke(ctx, []byte("inc"), false); err != nil {
			t.Fatalf("invoke %d after recovery: %v", i, err)
		}
	}
	res, err := client.Invoke(ctx, []byte("get"), true)
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "6" {
		t.Fatalf("counter = %s, want 6", res)
	}
}

// TestPublicAPIOverUDP runs the counter service on real UDP sockets, the
// transport a deployment uses: read-write and read-only operations agree,
// and a healthy run stays in view 0.
func TestPublicAPIOverUDP(t *testing.T) {
	addrs := map[int]string{
		0:   "127.0.0.1:48341",
		1:   "127.0.0.1:48342",
		2:   "127.0.0.1:48343",
		3:   "127.0.0.1:48344",
		100: "127.0.0.1:48345",
	}
	net, err := bft.NewUDPNetwork(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	client, replicas, cleanup := startCluster(t, net, 4, []int{100})
	defer cleanup()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 1; i <= 3; i++ {
		res, err := client.Invoke(ctx, []byte("inc"), false)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if string(res) != fmt.Sprintf("%d", i) {
			t.Fatalf("counter = %s after %d incs", res, i)
		}
	}
	res, err := client.Invoke(ctx, []byte("get"), true)
	if err != nil {
		t.Fatalf("read-only invoke: %v", err)
	}
	if string(res) != "3" {
		t.Fatalf("read-only get = %s, want 3", res)
	}
	if v := replicas[0].View(); v != 0 {
		t.Fatalf("view = %d, want 0 (healthy run)", v)
	}
}
