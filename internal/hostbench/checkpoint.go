package hostbench

import (
	"fmt"
	"strings"
	"testing"

	"bftfast/internal/core"
	"bftfast/internal/kvservice"
)

// Checkpoint benchmark shape: the perfbench host-kv-mixed store, and one
// checkpoint interval's worth of writes.
const (
	checkpointKeys   = 4096
	checkpointValue  = 4 << 10
	checkpointWrites = 128
)

// frozenSink holds the latest checkpoint's view, as the replica does until
// the next checkpoint.
var frozenSink core.Frozen

// BenchCheckpointKV measures what one replica checkpoint costs the kv
// service, plus the writes that follow it: StateDigest and Freeze (the
// service's part of a checkpoint), then 128 writes to distinct keys, each
// the first write to its key since the freeze. It allocates by design (every write stores a
// fresh 4 KB value), so it has no AllocsPerRun gate.
func BenchCheckpointKV(b *testing.B) {
	svc := kvservice.New()
	value := strings.Repeat("v", checkpointValue)
	for k := 0; k < checkpointKeys; k++ {
		svc.Execute(0, kvservice.SetOp(fmt.Sprintf("key%05d", k), value), false)
	}
	// Each round writes a different stride of keys, all at the same cost.
	const stride = checkpointKeys / checkpointWrites
	rounds := make([][][]byte, stride)
	for r := range rounds {
		for i := 0; i < checkpointWrites; i++ {
			rounds[r] = append(rounds[r], kvservice.SetOp(fmt.Sprintf("key%05d", i*stride+r), value))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := svc.StateDigest()
		sink = int(d[0])
		frozenSink = svc.Freeze()
		for _, op := range rounds[i%stride] {
			svc.Execute(0, op, false)
		}
	}
}
