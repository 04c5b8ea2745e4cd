package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"bftfast/internal/core"
	"bftfast/internal/crypto"
	"bftfast/internal/kvservice"
)

// nopEnv is an environment that discards sends and never fires timers.
type nopEnv struct{}

func (nopEnv) Now() time.Duration          { return 0 }
func (nopEnv) Charge(time.Duration)        {}
func (nopEnv) Send(int, []byte)            {}
func (nopEnv) Multicast([]int, []byte)     {}
func (nopEnv) SetTimer(int, time.Duration) {}
func (nopEnv) CancelTimer(int)             {}

func newKVReplica(t *testing.T, svc *kvservice.Service) *core.Replica {
	t.Helper()
	tables := []*crypto.KeyTable{crypto.NewKeyTable(0), crypto.NewKeyTable(1), crypto.NewKeyTable(2), crypto.NewKeyTable(3)}
	if err := crypto.ProvisionAll(rand.New(rand.NewSource(1)), tables); err != nil { //nolint:gosec
		t.Fatal(err)
	}
	r, err := core.NewReplica(core.DefaultConfig(4, 0), svc, tables[0], nil, rand.New(rand.NewSource(2))) //nolint:gosec
	if err != nil {
		t.Fatal(err)
	}
	r.Init(nopEnv{})
	return r
}

// TestFrozenCheckpointIgnoresLaterWrites checks that a checkpoint of a
// copy-on-write service still yields the state as of the checkpoint, both
// to a peer fetching it and to a rollback of tentative execution, after
// the replica has written to the store again.
func TestFrozenCheckpointIgnoresLaterWrites(t *testing.T) {
	svc := kvservice.New()
	r := newKVReplica(t, svc)
	for i := 0; i < 64; i++ {
		svc.Execute(1, kvservice.SetOp(fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i)), false)
	}
	d := r.CheckpointForTest(128)
	want := svc.Snapshot()

	write := func(round int) {
		for i := 0; i < 64; i += 3 {
			svc.Execute(1, kvservice.SetOp(fmt.Sprintf("k%02d", i), fmt.Sprintf("r%d", round)), false)
			svc.Execute(1, kvservice.DelOp(fmt.Sprintf("k%02d", i+1)), false)
			svc.Execute(1, kvservice.SetOp(fmt.Sprintf("new%d.%d", round, i), "x"), false)
		}
	}

	// Rollback serialises the frozen view for the first time.
	write(1)
	r.RollbackForTest()
	if !bytes.Equal(svc.Snapshot(), want) || r.CheckpointDigestForTest() != d {
		t.Fatal("rollback did not restore the state as of the checkpoint")
	}

	// A peer's fetch is served from the same checkpoint after more writes.
	write(2)
	fresh := kvservice.New()
	peer := newKVReplica(t, fresh)
	if err := peer.RestoreForTest(r.ServedSnapshotForTest(128)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Snapshot(), want) || peer.CheckpointDigestForTest() != d {
		t.Fatal("state transfer did not serve the state as of the checkpoint")
	}
}
