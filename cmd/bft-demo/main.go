// Command bft-demo runs a live BFT replica group over UDP loopback in real
// time: four replicas serving a replicated counter, a client issuing
// operations, and — with -kill-primary — a demonstration that the service
// rides through a primary failure with a view change.
//
//	bft-demo                 # healthy run
//	bft-demo -kill-primary   # crash replica 0 mid-run and keep going
//	bft-demo -ops 50         # number of operations to issue
package main

import (
	"context"
	"crypto/rand"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"sync"
	"time"

	"bftfast/bft"
	"bftfast/internal/crypto"
)

// counter is the demo's deterministic state machine.
type counter struct {
	mu sync.Mutex
	n  int64
}

func (c *counter) Execute(client int32, op []byte, readOnly bool) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if string(op) == "inc" && !readOnly {
		c.n++
	}
	return []byte(strconv.FormatInt(c.n, 10))
}

func (c *counter) StateDigest() crypto.Digest {
	c.mu.Lock()
	defer c.mu.Unlock()
	return crypto.Hash([]byte(strconv.FormatInt(c.n, 10)))
}

func (c *counter) Freeze() bft.Frozen { return bft.FrozenBytes(c.Snapshot()) }

func (c *counter) Snapshot() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return []byte(strconv.FormatInt(c.n, 10))
}

func (c *counter) Restore(snap []byte) error {
	n, err := strconv.ParseInt(string(snap), 10, 64)
	if err != nil {
		return fmt.Errorf("demo: bad snapshot: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = n
	return nil
}

func main() {
	killPrimary := flag.Bool("kill-primary", false, "crash replica 0 mid-run to force a view change")
	ops := flag.Int("ops", 20, "operations to issue")
	basePort := flag.Int("port", 47700, "first UDP port (replicas and client bind consecutively)")
	flag.Parse()
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	const n = 4
	const clientID = 100
	addrs := make(map[int]string, n+1)
	for i := 0; i < n; i++ {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", *basePort+i)
	}
	addrs[clientID] = fmt.Sprintf("127.0.0.1:%d", *basePort+n)

	net, err := bft.NewUDPNetwork(addrs)
	if err != nil {
		log.Fatalf("building UDP network: %v", err)
	}
	defer net.Close()

	rings := bft.NewKeyrings([]int{0, 1, 2, 3, clientID})
	if err := bft.Provision(rand.Reader, rings); err != nil {
		log.Fatalf("provisioning keys: %v", err)
	}

	replicas := make([]*bft.Replica, n)
	for i := 0; i < n; i++ {
		r, err := bft.StartReplica(bft.DefaultConfig(n, i), &counter{}, rings[i], net)
		if err != nil {
			log.Fatalf("starting replica %d: %v", i, err)
		}
		replicas[i] = r
		defer r.Close()
		log.Printf("replica %d listening on %s", i, addrs[i])
	}

	client, err := bft.StartClient(bft.NewClientConfig(n, clientID), rings[n], net)
	if err != nil {
		log.Fatalf("starting client: %v", err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	for i := 1; i <= *ops; i++ {
		if *killPrimary && i == *ops/2 {
			log.Printf(">>> crashing replica 0 (the view-0 primary)")
			replicas[0].Close()
		}
		start := time.Now()
		res, err := client.Invoke(ctx, []byte("inc"), false)
		if err != nil {
			log.Fatalf("invoke %d: %v", i, err)
		}
		log.Printf("inc -> %s (%.2f ms)", res, float64(time.Since(start).Microseconds())/1000)
	}

	res, err := client.Invoke(ctx, []byte("get"), true)
	if err != nil {
		log.Fatalf("read-only get: %v", err)
	}
	log.Printf("read-only get -> %s", res)
	for i := 1; i < n; i++ {
		log.Printf("replica %d: view=%d stats=%+v", i, replicas[i].View(), replicas[i].Stats())
	}
	if string(res) != strconv.Itoa(*ops) {
		log.Printf("WARNING: counter %s != ops issued %d", res, *ops)
		os.Exit(1)
	}
	log.Printf("OK: %d operations, counter agrees", *ops)
}
