// Quickstart: replicate a tiny counter service across four BFT replicas
// and invoke it — the smallest end-to-end use of the public bft API.
//
//	go run ./examples/quickstart
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

// counterSM is a deterministic state machine: "inc" increments the
// counter, anything else reads it. Implement bft.StateMachine for your own
// service the same way; the only hard requirement is determinism.
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

func (c *counterSM) StateDigest() crypto.Digest {
	return crypto.Hash(c.Snapshot())
}

func (c *counterSM) Freeze() bft.Frozen { return bft.FrozenBytes(c.Snapshot()) }

func (c *counterSM) Snapshot() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return []byte(strconv.FormatInt(c.n, 10))
}

func (c *counterSM) Restore(snap []byte) error {
	n, err := strconv.ParseInt(string(snap), 10, 64)
	if err != nil {
		return fmt.Errorf("quickstart: bad snapshot: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = n
	return nil
}

func main() {
	// 1. A network. ChannelNetwork runs everything in this process; see
	//    cmd/bft-demo for the same group over UDP.
	network := bft.NewChannelNetwork()

	// 2. Keys: a keyring per node (4 replicas + 1 client), provisioned
	//    with pairwise session and master keys.
	const clientID = 100
	rings := bft.NewKeyrings([]int{0, 1, 2, 3, clientID})
	if err := bft.Provision(rand.Reader, rings); err != nil {
		log.Fatalf("provisioning keys: %v", err)
	}

	// 3. Four replicas (tolerating one arbitrary fault), each with its own
	//    instance of the service.
	for i := 0; i < 4; i++ {
		replica, err := bft.StartReplica(bft.DefaultConfig(4, i), &counterSM{}, rings[i], network)
		if err != nil {
			log.Fatalf("starting replica %d: %v", i, err)
		}
		defer replica.Close()
	}

	// 4. A client, and operations.
	client, err := bft.StartClient(bft.NewClientConfig(4, clientID), rings[4], network)
	if err != nil {
		log.Fatalf("starting client: %v", err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		result, err := client.Invoke(ctx, []byte("inc"), false)
		if err != nil {
			log.Fatalf("invoke: %v", err)
		}
		fmt.Printf("inc -> %s\n", result)
	}
	// Reads can use the single-round-trip fast path.
	result, err := client.Invoke(ctx, []byte("get"), true)
	if err != nil {
		log.Fatalf("read-only invoke: %v", err)
	}
	fmt.Printf("read-only get -> %s\n", result)
}
