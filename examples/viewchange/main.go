// viewchange: watch the group depose a crashed primary. Operations keep
// completing — with the same counter values — while the replicas run the
// view-change protocol underneath (liveness under a primary fault).
//
//	go run ./examples/viewchange
package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"log"
	"strconv"
	"sync"
	"time"

	"bftfast/bft"
	"bftfast/internal/crypto"
)

type counterSM struct {
	mu sync.Mutex
	n  int64
}

func (c *counterSM) Execute(client int32, op []byte, readOnly bool) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if string(op) == "inc" && !readOnly {
		c.n++
	}
	return []byte(strconv.FormatInt(c.n, 10))
}

func (c *counterSM) StateDigest() crypto.Digest { return crypto.Hash(c.Snapshot()) }

func (c *counterSM) Freeze() bft.Frozen { return bft.FrozenBytes(c.Snapshot()) }

func (c *counterSM) Snapshot() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return []byte(strconv.FormatInt(c.n, 10))
}

func (c *counterSM) Restore(snap []byte) error {
	n, err := strconv.ParseInt(string(snap), 10, 64)
	if err != nil {
		return fmt.Errorf("viewchange: bad snapshot: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = n
	return nil
}

func main() {
	network := bft.NewChannelNetwork()
	const clientID = 100
	rings := bft.NewKeyrings([]int{0, 1, 2, 3, clientID})
	if err := bft.Provision(rand.Reader, rings); err != nil {
		log.Fatalf("provisioning keys: %v", err)
	}

	replicas := make([]*bft.Replica, 4)
	for i := 0; i < 4; i++ {
		r, err := bft.StartReplica(bft.DefaultConfig(4, i), &counterSM{}, rings[i], network)
		if err != nil {
			log.Fatalf("starting replica %d: %v", i, err)
		}
		replicas[i] = r
		defer r.Close()
	}
	client, err := bft.StartClient(bft.NewClientConfig(4, clientID), rings[4], network)
	if err != nil {
		log.Fatalf("starting client: %v", err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	inc := func() string {
		start := time.Now()
		res, err := client.Invoke(ctx, []byte("inc"), false)
		if err != nil {
			log.Fatalf("invoke: %v", err)
		}
		fmt.Printf("  inc -> %s   (%6.2f ms, view %d)\n",
			res, float64(time.Since(start).Microseconds())/1000, replicas[1].View())
		return string(res)
	}

	fmt.Println("healthy group, primary is replica 0:")
	for i := 0; i < 3; i++ {
		inc()
	}

	fmt.Println("\ncrashing replica 0 (the primary)...")
	replicas[0].Close()

	fmt.Println("the next operation times out at the backups, triggers a view change,")
	fmt.Println("and completes under the new primary (replica 1):")
	for i := 0; i < 3; i++ {
		inc()
	}

	if v := replicas[1].View(); v < 1 {
		log.Fatalf("no view change happened (view %d)", v)
	}
	fmt.Printf("\ndone: the group is in view %d; no operation was lost or duplicated\n", replicas[1].View())
}
