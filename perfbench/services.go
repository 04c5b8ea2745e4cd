package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"bftfast/internal/core"
	"bftfast/internal/kvservice"
	"bftfast/internal/linearizability"
	"bftfast/internal/simpleservice"
)

// hostOp is one generated operation and what the benchmark needs to check
// its result.
type hostOp struct {
	op       []byte
	readOnly bool
	key      int    // kv register index; -1 for the null service
	write    bool   // kv set
	value    uint64 // value id written by a kv set
	resLen   int    // null service: requested result size
}

// service is one replicated service with its operation stream and output
// checks.
type service interface {
	// name prefixes the service's per-layer metrics.
	name() string
	// newReplicaState returns one replica's initial state machine.
	newReplicaState() core.StateMachine
	// stream returns client's operation generator for the workload seed.
	stream(seed int64, client int) func() hostOp
	// probe returns a read that set-up uses to see the group serving.
	probe() hostOp
	// check validates one result, returning the value id a kv get observed.
	check(op hostOp, res []byte) (uint64, error)
	// verify checks the whole history of a run once the group has stopped.
	verify(recs []opRecord) error
}

// nullService is simpleservice with read-write operations of fixed
// argument and result sizes (the paper's a/r micro-benchmark).
type nullService struct{ argBytes, resBytes int }

func (nullService) name() string { return "simpleservice" }

func (nullService) newReplicaState() core.StateMachine { return simpleservice.Service{} }

func (s nullService) stream(int64, int) func() hostOp {
	return func() hostOp {
		return hostOp{op: simpleservice.Op(s.argBytes, s.resBytes), key: -1, resLen: s.resBytes}
	}
}

func (s nullService) probe() hostOp { return s.stream(0, 0)() }

// verify has nothing to add: every null result was checked on arrival.
func (nullService) verify([]opRecord) error { return nil }

func (nullService) check(op hostOp, res []byte) (uint64, error) {
	if len(res) != op.resLen {
		return 0, fmt.Errorf("null service returned %d bytes, want %d", len(res), op.resLen)
	}
	for i, b := range res {
		if b != 0 {
			return 0, fmt.Errorf("null service result byte %d is %#x, want 0", i, b)
		}
	}
	return 0, nil
}

// kvStore is kvservice preloaded with one value of valueBytes per key,
// driven by an even mix of read-only gets and sets of uniformly drawn keys.
type kvStore struct{ keys, valueBytes int }

// Value ids: the preloaded value of key k is preloadID|k; a set by client
// c writes (c+1)<<40 | its sequence number. Every id is unique.
const preloadID = 1 << 62

func newKVStore(keys, valueBytes int) *kvStore { return &kvStore{keys: keys, valueBytes: valueBytes} }

func kvKey(k int) string { return "k" + strconv.Itoa(k) }

// value encodes id as valueBytes bytes: the id's eight bytes, repeated.
func (s *kvStore) value(id uint64) string {
	b := make([]byte, s.valueBytes)
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], id)
	}
	return string(b)
}

func (*kvStore) name() string { return "kvservice" }

func (s *kvStore) newReplicaState() core.StateMachine {
	svc := kvservice.New()
	for k := 0; k < s.keys; k++ {
		svc.Execute(0, kvservice.SetOp(kvKey(k), s.value(preloadID|uint64(k))), false)
	}
	return svc
}

func (s *kvStore) stream(seed int64, client int) func() hostOp {
	rng := rand.New(rand.NewSource(seed*1000 + int64(client)))
	seq := uint64(0)
	return func() hostOp {
		k := rng.Intn(s.keys)
		if rng.Intn(2) == 0 {
			return hostOp{op: kvservice.GetOp(kvKey(k)), readOnly: true, key: k}
		}
		seq++
		id := uint64(client+1)<<40 | seq
		return hostOp{op: kvservice.SetOp(kvKey(k), s.value(id)), key: k, write: true, value: id}
	}
}

func (s *kvStore) probe() hostOp {
	return hostOp{op: kvservice.GetOp(kvKey(0)), readOnly: true, key: 0}
}

func (s *kvStore) check(op hostOp, res []byte) (uint64, error) {
	if op.write {
		if string(res) != "OK" {
			return 0, fmt.Errorf("set %s returned %q, want OK", kvKey(op.key), res)
		}
		return op.value, nil
	}
	if len(res) != s.valueBytes {
		return 0, fmt.Errorf("get %s returned %d bytes, want %d", kvKey(op.key), len(res), s.valueBytes)
	}
	id := binary.LittleEndian.Uint64(res)
	for i := 8; i+8 <= len(res); i += 8 {
		if binary.LittleEndian.Uint64(res[i:]) != id {
			return 0, fmt.Errorf("get %s returned a torn value (word %d differs)", kvKey(op.key), i/8)
		}
	}
	return id, nil
}

// verify checks every key's history of a kv run against a register
// starting at the key's preloaded value. Failed sets may or may not have
// taken effect, so they stay pending to the end of the history; failed
// gets observed nothing and are left out.
func (*kvStore) verify(recs []opRecord) error {
	histories := make(map[int]linearizability.History)
	for _, r := range recs {
		if r.key < 0 || (r.failed && !r.write) {
			continue
		}
		op := linearizability.Op{
			Client: r.client,
			Kind:   linearizability.Read,
			Value:  strconv.FormatUint(r.value, 10),
			Invoke: r.invoke,
			Return: r.ret,
		}
		if r.write {
			op.Kind = linearizability.Write
		}
		if r.failed {
			op.Return = 1<<63 - 1
		}
		histories[r.key] = append(histories[r.key], op)
	}
	keys := make([]int, 0, len(histories))
	for k := range histories {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		if _, err := linearizability.Check(strconv.FormatUint(preloadID|uint64(k), 10), histories[k]); err != nil {
			return fmt.Errorf("key %s: %w", kvKey(k), err)
		}
	}
	return nil
}
