// Package kvservice is a small deterministic key-value store implementing
// the replication library's StateMachine interface — the service behind
// the standalone cmd/bft-replica and cmd/bft-kv tools, and a template for
// writing services of your own.
//
// Operations are encoded with the repository's hardened binary codec:
//
//	set <key> <value> -> "OK"
//	get <key>         -> value ("" when absent)
//	del <key>         -> "OK"
//	keys              -> sorted, newline-separated key list (read-only)
//
// Set/del results and gets are linearizable through the protocol; get and
// keys are flagged read-only so clients may use the single-round-trip
// path.
package kvservice

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"bftfast/internal/core"
	"bftfast/internal/crypto"
	"bftfast/internal/message"
)

// Op codes.
const (
	opSet uint8 = iota + 1
	opGet
	opDel
	opKeys
)

// SetOp encodes a write of key=value.
func SetOp(key, value string) []byte {
	e := message.NewEncoder(16 + len(key) + len(value))
	e.U8(opSet)
	e.Blob([]byte(key))
	e.Blob([]byte(value))
	return e.Bytes()
}

// GetOp encodes a read of key.
func GetOp(key string) []byte {
	e := message.NewEncoder(8 + len(key))
	e.U8(opGet)
	e.Blob([]byte(key))
	return e.Bytes()
}

// DelOp encodes a deletion of key.
func DelOp(key string) []byte {
	e := message.NewEncoder(8 + len(key))
	e.U8(opDel)
	e.Blob([]byte(key))
	return e.Bytes()
}

// KeysOp encodes a listing of all keys.
func KeysOp() []byte { return []byte{opKeys} }

// IsReadOnly reports whether an encoded operation is safe for the
// read-only fast path.
func IsReadOnly(op []byte) bool {
	return len(op) > 0 && (op[0] == opGet || op[0] == opKeys)
}

// partitions is the number of copy-on-write partitions the store is split
// into by key hash (about 16 keys each at 4096 keys). Freeze shares every
// partition with the frozen view; the first later write to a partition
// copies only that partition.
const partitions = 256

// partitionOf maps a key to its partition (32-bit FNV-1a).
func partitionOf(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % partitions)
}

// Service is the state machine. It maintains its digest incrementally
// (one hash fold per mutation), so checkpoints stay cheap at any size.
type Service struct {
	parts  [partitions]map[string]string
	shared [partitions]bool // parts[i] is also held by a frozen view
	digest crypto.Digest
}

var _ core.StateMachine = (*Service)(nil)

// New returns an empty store.
func New() *Service {
	s := &Service{}
	for i := range s.parts {
		s.parts[i] = make(map[string]string)
	}
	return s
}

// Len returns the number of keys (for tools and tests).
func (s *Service) Len() int {
	n := 0
	for _, p := range s.parts {
		n += len(p)
	}
	return n
}

// entryDigest is the store-digest contribution of one key/value pair.
func entryDigest(key, value string) crypto.Digest {
	return crypto.HashAll([]byte{byte(len(key) % 251)}, []byte(key), []byte{0}, []byte(value))
}

func (s *Service) fold(d crypto.Digest) {
	for i := range s.digest {
		s.digest[i] ^= d[i]
	}
}

// writable returns key's partition, first copying it if a frozen view
// shares it. Values are immutable strings, so the copy moves only map
// entries.
func (s *Service) writable(key string) map[string]string {
	i := partitionOf(key)
	if s.shared[i] {
		s.parts[i] = maps.Clone(s.parts[i])
		s.shared[i] = false
	}
	return s.parts[i]
}

// Execute implements core.StateMachine.
func (s *Service) Execute(client int32, op []byte, readOnly bool) []byte {
	d := message.NewDecoder(op)
	switch d.U8() {
	case opSet:
		key, value := string(d.Blob()), string(d.Blob())
		if d.Finish() != nil || readOnly {
			return []byte("ERR")
		}
		p := s.writable(key)
		if old, ok := p[key]; ok {
			s.fold(entryDigest(key, old))
		}
		p[key] = value
		s.fold(entryDigest(key, value))
		return []byte("OK")
	case opGet:
		key := string(d.Blob())
		if d.Finish() != nil {
			return []byte("ERR")
		}
		return []byte(s.parts[partitionOf(key)][key])
	case opDel:
		key := string(d.Blob())
		if d.Finish() != nil || readOnly {
			return []byte("ERR")
		}
		if old, ok := s.parts[partitionOf(key)][key]; ok {
			s.fold(entryDigest(key, old))
			delete(s.writable(key), key)
		}
		return []byte("OK")
	case opKeys:
		if d.Finish() != nil {
			return []byte("ERR")
		}
		return []byte(strings.Join((*frozenView)(&s.parts).sortedKeys(), "\n"))
	default:
		return []byte("ERR")
	}
}

// StateDigest implements core.StateMachine (O(1), maintained per
// mutation).
func (s *Service) StateDigest() crypto.Digest { return s.digest }

// Freeze implements core.StateMachine: the view shares every partition
// with the store, which copies a partition before its next write.
func (s *Service) Freeze() core.Frozen {
	for i := range s.shared {
		s.shared[i] = true
	}
	v := frozenView(s.parts)
	return &v
}

// Snapshot implements core.StateMachine: the live partitions serialised
// as a view, which needs no sharing because it does not outlive the call.
func (s *Service) Snapshot() []byte { return (*frozenView)(&s.parts).Snapshot() }

// frozenView is the store's partitions as of a Freeze.
type frozenView [partitions]map[string]string

func (v *frozenView) sortedKeys() []string {
	n := 0
	for _, p := range v {
		n += len(p)
	}
	keys := make([]string, 0, n)
	for _, p := range v {
		for k := range p {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Snapshot implements core.Frozen: a count, then each key and its value
// in strictly increasing key order (the order Restore requires).
func (v *frozenView) Snapshot() []byte {
	keys := v.sortedKeys()
	total := 0
	for _, k := range keys {
		total += len(k) + len(v[partitionOf(k)][k]) + 16
	}
	e := message.NewEncoder(16 + total)
	e.Count(len(keys))
	for _, k := range keys {
		e.Blob([]byte(k))
		e.Blob([]byte(v[partitionOf(k)][k]))
	}
	return e.Bytes()
}

// Restore implements core.StateMachine. Keys must be strictly increasing:
// a repeated entry would cancel out of the XOR-folded digest, letting a
// forged snapshot restore a value the attested digest does not cover.
func (s *Service) Restore(snap []byte) error {
	d := message.NewDecoder(snap)
	n := d.Count()
	if d.Err() != nil {
		return fmt.Errorf("kvservice: corrupt snapshot: %w", d.Err())
	}
	fresh := New()
	prev := ""
	for i := 0; i < n; i++ {
		k, v := string(d.Blob()), string(d.Blob())
		if d.Err() != nil {
			return fmt.Errorf("kvservice: corrupt snapshot entry: %w", d.Err())
		}
		if i > 0 && k <= prev {
			return fmt.Errorf("kvservice: corrupt snapshot: key %q out of order", k)
		}
		prev = k
		fresh.parts[partitionOf(k)][k] = v
		fresh.fold(entryDigest(k, v))
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("kvservice: corrupt snapshot: %w", err)
	}
	*s = *fresh
	return nil
}
