package bft_test

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

// exampleSM is a replicated counter (the canonical minimal StateMachine).
type exampleSM struct {
	mu sync.Mutex
	n  int64
}

func (c *exampleSM) Execute(client int32, op []byte, readOnly bool) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if string(op) == "inc" && !readOnly {
		c.n++
	}
	return []byte(strconv.FormatInt(c.n, 10))
}

func (c *exampleSM) StateDigest() crypto.Digest { return crypto.Hash(c.Snapshot()) }

func (c *exampleSM) Freeze() bft.Frozen { return bft.FrozenBytes(c.Snapshot()) }

func (c *exampleSM) Snapshot() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return []byte(strconv.FormatInt(c.n, 10))
}

func (c *exampleSM) Restore(snap []byte) error {
	n, err := strconv.ParseInt(string(snap), 10, 64)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = n
	return nil
}

// Example replicates a counter across four replicas — tolerating one
// arbitrary fault — and invokes it through the client API.
func Example() {
	network := bft.NewChannelNetwork()
	const clientID = 100
	rings := bft.NewKeyrings([]int{0, 1, 2, 3, clientID})
	if err := bft.Provision(rand.Reader, rings); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		replica, err := bft.StartReplica(bft.DefaultConfig(4, i), &exampleSM{}, rings[i], network)
		if err != nil {
			log.Fatal(err)
		}
		defer replica.Close()
	}
	client, err := bft.StartClient(bft.NewClientConfig(4, clientID), rings[4], network)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if _, err := client.Invoke(ctx, []byte("inc"), false); err != nil {
			log.Fatal(err)
		}
	}
	result, err := client.Invoke(ctx, []byte("get"), true) // read-only fast path
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(result))
	// Output: 3
}
