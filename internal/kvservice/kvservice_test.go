package kvservice

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"bftfast/internal/core"
	"bftfast/internal/message"
)

func TestBasicOperations(t *testing.T) {
	s := New()
	if got := s.Execute(1, SetOp("a", "1"), false); string(got) != "OK" {
		t.Fatalf("set = %q", got)
	}
	if got := s.Execute(1, GetOp("a"), true); string(got) != "1" {
		t.Fatalf("get = %q", got)
	}
	if got := s.Execute(1, GetOp("missing"), true); string(got) != "" {
		t.Fatalf("get missing = %q", got)
	}
	s.Execute(1, SetOp("b", "2"), false)
	if got := s.Execute(1, KeysOp(), true); string(got) != "a\nb" {
		t.Fatalf("keys = %q", got)
	}
	if got := s.Execute(1, DelOp("a"), false); string(got) != "OK" {
		t.Fatalf("del = %q", got)
	}
	if got := s.Execute(1, GetOp("a"), true); string(got) != "" {
		t.Fatalf("get after del = %q", got)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestReadOnlyPathCannotMutate(t *testing.T) {
	s := New()
	before := s.StateDigest()
	if got := s.Execute(1, SetOp("a", "1"), true); string(got) != "ERR" {
		t.Fatalf("read-only set = %q, want ERR", got)
	}
	if got := s.Execute(1, DelOp("a"), true); string(got) != "ERR" {
		t.Fatalf("read-only del = %q, want ERR", got)
	}
	if s.StateDigest() != before {
		t.Fatal("read-only path mutated state")
	}
}

func TestMalformedOpsAreDeterministicErrors(t *testing.T) {
	s := New()
	for _, op := range [][]byte{nil, {0}, {99}, {1, 2, 3}, append(SetOp("a", "b"), 0)} {
		if got := s.Execute(1, op, false); string(got) != "ERR" {
			t.Fatalf("malformed op %v = %q, want ERR", op, got)
		}
	}
}

func TestIsReadOnly(t *testing.T) {
	if !IsReadOnly(GetOp("k")) || !IsReadOnly(KeysOp()) {
		t.Fatal("reads not classified read-only")
	}
	if IsReadOnly(SetOp("k", "v")) || IsReadOnly(DelOp("k")) || IsReadOnly(nil) {
		t.Fatal("mutations classified read-only")
	}
}

func TestIncrementalDigestMatchesRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(9)) //nolint:gosec
	s := New()
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(50))
		switch rng.Intn(3) {
		case 0, 1:
			s.Execute(1, SetOp(k, fmt.Sprintf("v%d", i)), false)
		case 2:
			s.Execute(1, DelOp(k), false)
		}
	}
	fresh := New()
	if err := fresh.Restore(s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if fresh.StateDigest() != s.StateDigest() {
		t.Fatal("incremental digest drifted from a rebuilt store")
	}
	if fresh.Len() != s.Len() {
		t.Fatalf("restored %d keys, want %d", fresh.Len(), s.Len())
	}
}

func TestDigestOrderIndependence(t *testing.T) {
	// The same key set reached in different orders must share a digest
	// (the protocol compares digests across replicas that executed the
	// same batches — but intermediate orders differ only in history, and
	// final states must match).
	a, b := New(), New()
	a.Execute(1, SetOp("x", "1"), false)
	a.Execute(1, SetOp("y", "2"), false)
	b.Execute(1, SetOp("y", "2"), false)
	b.Execute(1, SetOp("x", "1"), false)
	if a.StateDigest() != b.StateDigest() {
		t.Fatal("identical states have different digests")
	}
	// And different states must not collide.
	b.Execute(1, SetOp("x", "other"), false)
	if a.StateDigest() == b.StateDigest() {
		t.Fatal("different states share a digest")
	}
}

func TestRestoreRejectsCorruption(t *testing.T) {
	s := New()
	s.Execute(1, SetOp("a", "1"), false)
	snap := s.Snapshot()
	for cut := 0; cut < len(snap); cut += 3 {
		if err := New().Restore(snap[:cut]); err == nil {
			t.Fatalf("truncated snapshot (%d bytes) accepted", cut)
		}
	}
	if err := New().Restore(append(snap, 7)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestRestoreRejectsForgedDuplicates pins the forged-snapshot case: the
// entries (k,v1),(k,v2),(k,v2) XOR-fold to the digest of a store holding
// k=v1, yet restoring them in order would leave k=v2. Restore must refuse
// any snapshot whose keys are not strictly increasing.
func TestRestoreRejectsForgedDuplicates(t *testing.T) {
	honest := New()
	honest.Execute(1, SetOp("k", "v1"), false)

	e := message.NewEncoder(64)
	e.Count(3)
	for _, v := range []string{"v1", "v2", "v2"} {
		e.Blob([]byte("k"))
		e.Blob([]byte(v))
	}
	forged := New()
	if err := forged.Restore(e.Bytes()); err == nil {
		t.Fatalf("forged snapshot accepted: k=%q under the digest of k=v1 (digests equal: %v)",
			forged.Execute(1, GetOp("k"), true), forged.StateDigest() == honest.StateDigest())
	}

	e = message.NewEncoder(64)
	e.Count(2)
	for _, k := range []string{"b", "a"} {
		e.Blob([]byte(k))
		e.Blob([]byte("x"))
	}
	if err := New().Restore(e.Bytes()); err == nil {
		t.Fatal("snapshot with keys out of order accepted")
	}
}

// TestSnapshotEncodingUnchanged pins the snapshot byte format (a count,
// then length-prefixed keys and values in sorted key order) to the bytes
// the unpartitioned store produced, so existing snapshots still restore.
func TestSnapshotEncodingUnchanged(t *testing.T) {
	s := New()
	s.Execute(1, SetOp("b", "22"), false)
	s.Execute(1, SetOp("a", "1"), false)
	s.Execute(1, SetOp("zz", ""), false)
	s.Execute(1, SetOp("c", "x"), false)
	s.Execute(1, DelOp("c"), false)
	const want = "03000000010000006101000000310100000062020000003232020000007a7a00000000"
	if got := hex.EncodeToString(s.Snapshot()); got != want {
		t.Fatalf("snapshot = %s, want %s", got, want)
	}
	if got := hex.EncodeToString(s.Freeze().Snapshot()); got != want {
		t.Fatalf("frozen snapshot = %s, want %s", got, want)
	}
	const wantDigest = "6d60570f9fc5676bbceaf212b0c9edf4"
	if d := s.StateDigest(); hex.EncodeToString(d[:]) != wantDigest {
		t.Fatalf("digest = %x, want %s", d, wantDigest)
	}
}

// TestFrozenViewIgnoresLaterChanges checks the copy-on-write contract:
// after Freeze, writes, deletes and a Restore on the store leave every
// earlier view's Snapshot unchanged.
func TestFrozenViewIgnoresLaterChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(3)) //nolint:gosec
	s := New()
	for i := 0; i < 2000; i++ {
		s.Execute(1, SetOp(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)), false)
	}
	other := New()
	other.Execute(1, SetOp("only", "this"), false)

	type frozen struct {
		view core.Frozen
		want []byte
	}
	var views []frozen
	for round := 0; round < 4; round++ {
		views = append(views, frozen{view: s.Freeze(), want: s.Snapshot()})
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("k%d", rng.Intn(2500))
			if rng.Intn(3) == 0 {
				s.Execute(1, DelOp(k), false)
			} else {
				s.Execute(1, SetOp(k, fmt.Sprintf("r%d.%d", round, i)), false)
			}
		}
		if round == 2 {
			if err := s.Restore(other.Snapshot()); err != nil {
				t.Fatal(err)
			}
			s.Execute(1, SetOp("after", "restore"), false)
		}
		for j, v := range views {
			if !bytes.Equal(v.view.Snapshot(), v.want) {
				t.Fatalf("round %d: view %d changed after later writes", round, j)
			}
		}
	}
	// The live store is unaffected by the views it shares partitions with.
	fresh := New()
	if err := fresh.Restore(s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if fresh.StateDigest() != s.StateDigest() || fresh.Len() != s.Len() {
		t.Fatal("live store diverged from its own snapshot")
	}
}
