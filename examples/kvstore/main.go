// kvstore: a replicated key-value store that keeps serving — with correct
// results — while one replica actively lies. A Byzantine replica's forged
// replies are outvoted by the client's reply certificate; its forged
// protocol messages fail authentication. This is the guarantee the paper's
// library exists to provide.
//
//	go run ./examples/kvstore
package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"bftfast/bft"
	"bftfast/internal/crypto"
)

// kvSM is a deterministic key-value state machine. Operations:
//
//	set\x00key\x00value -> "ok"
//	get\x00key          -> value
//	del\x00key          -> "ok"
type kvSM struct {
	mu   sync.Mutex
	data map[string]string
}

func newKV() *kvSM { return &kvSM{data: make(map[string]string)} }

// SetOp, GetOp and DelOp build operations for the store.
func SetOp(key, value string) []byte { return []byte("set\x00" + key + "\x00" + value) }

// GetOp builds a read operation (eligible for the read-only fast path).
func GetOp(key string) []byte { return []byte("get\x00" + key) }

// DelOp builds a delete operation.
func DelOp(key string) []byte { return []byte("del\x00" + key) }

func (k *kvSM) Execute(client int32, op []byte, readOnly bool) []byte {
	k.mu.Lock()
	defer k.mu.Unlock()
	parts := bytes.SplitN(op, []byte{0}, 3)
	switch {
	case len(parts) == 3 && string(parts[0]) == "set" && !readOnly:
		k.data[string(parts[1])] = string(parts[2])
		return []byte("ok")
	case len(parts) == 2 && string(parts[0]) == "get":
		return []byte(k.data[string(parts[1])])
	case len(parts) == 2 && string(parts[0]) == "del" && !readOnly:
		delete(k.data, string(parts[1]))
		return []byte("ok")
	default:
		return []byte("err")
	}
}

func (k *kvSM) StateDigest() crypto.Digest { return crypto.Hash(k.Snapshot()) }

func (k *kvSM) Freeze() bft.Frozen { return bft.FrozenBytes(k.Snapshot()) }

func (k *kvSM) Snapshot() []byte {
	k.mu.Lock()
	defer k.mu.Unlock()
	keys := make([]string, 0, len(k.data))
	for key := range k.data {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	for _, key := range keys {
		writeString(&buf, key)
		writeString(&buf, k.data[key])
	}
	return buf.Bytes()
}

func writeString(buf *bytes.Buffer, s string) {
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(s)))
	buf.Write(l[:])
	buf.WriteString(s)
}

func (k *kvSM) Restore(snap []byte) error {
	data := make(map[string]string)
	for len(snap) > 0 {
		key, rest, err := readString(snap)
		if err != nil {
			return err
		}
		val, rest2, err := readString(rest)
		if err != nil {
			return err
		}
		data[key] = val
		snap = rest2
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.data = data
	return nil
}

func readString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, fmt.Errorf("kvstore: truncated snapshot")
	}
	n := int(binary.LittleEndian.Uint32(b))
	if len(b) < 4+n {
		return "", nil, fmt.Errorf("kvstore: truncated snapshot value")
	}
	return string(b[4 : 4+n]), b[4+n:], nil
}

// lyingKV wraps the state machine at ONE replica and corrupts every
// result — a Byzantine replica that executes operations dishonestly.
type lyingKV struct{ inner *kvSM }

func (l lyingKV) Execute(client int32, op []byte, readOnly bool) []byte {
	l.inner.Execute(client, op, readOnly) // stay internally consistent
	return []byte("LIES")                 // ...but answer garbage
}
func (l lyingKV) StateDigest() crypto.Digest { return crypto.Hash([]byte("LIES")) }
func (l lyingKV) Freeze() bft.Frozen         { return l.inner.Freeze() }
func (l lyingKV) Snapshot() []byte           { return l.inner.Snapshot() }
func (l lyingKV) Restore(snap []byte) error  { return l.inner.Restore(snap) }

func main() {
	network := bft.NewChannelNetwork()
	const clientID = 100
	rings := bft.NewKeyrings([]int{0, 1, 2, 3, clientID})
	if err := bft.Provision(rand.Reader, rings); err != nil {
		log.Fatalf("provisioning keys: %v", err)
	}

	for i := 0; i < 4; i++ {
		var sm bft.StateMachine = newKV()
		if i == 2 {
			sm = lyingKV{inner: newKV()} // replica 2 is Byzantine
			fmt.Println("replica 2 will lie about every result")
		}
		replica, err := bft.StartReplica(bft.DefaultConfig(4, i), sm, rings[i], network)
		if err != nil {
			log.Fatalf("starting replica %d: %v", i, err)
		}
		defer replica.Close()
	}

	client, err := bft.StartClient(bft.NewClientConfig(4, clientID), rings[4], network)
	if err != nil {
		log.Fatalf("starting client: %v", err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	invoke := func(op []byte, readOnly bool) string {
		res, err := client.Invoke(ctx, op, readOnly)
		if err != nil {
			log.Fatalf("invoke: %v", err)
		}
		return string(res)
	}

	fmt.Printf("set alice=30 -> %s\n", invoke(SetOp("alice", "30"), false))
	fmt.Printf("set bob=25   -> %s\n", invoke(SetOp("bob", "25"), false))
	fmt.Printf("get alice    -> %s\n", invoke(GetOp("alice"), true))
	fmt.Printf("del bob      -> %s\n", invoke(DelOp("bob"), false))
	fmt.Printf("get bob      -> %q (deleted)\n", invoke(GetOp("bob"), true))

	if got := invoke(GetOp("alice"), true); got != "30" {
		log.Fatalf("Byzantine replica corrupted a result: got %q", got)
	}
	fmt.Println("all results correct despite the lying replica")
}
