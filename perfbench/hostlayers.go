package main

import (
	"sort"
	"time"

	"bftfast/internal/core"
	"bftfast/internal/obs"
)

// layerSnap is a traced group's layer counters at one instant.
type layerSnap struct {
	sentMsgs, sentBytes [numTypes]int64 // every node
	sendNs              int64
	handled, selfNs     [numTypes]int64 // replicas
	loopNs              []int64         // per replica
	timerNs             int64           // replicas
	macs, macBytes      int64           // every node
	digests, digestB    int64
	executes, executeNs int64   // replicas
	snapshots           int64   // replicas
	snapshotNs          []int64 // per replica
	stats               []core.Counters
	retransmits         int64
	inboxDrops          int64
	backpressure        int64
	waits               []time.Duration // inbox waits since the previous snapshot
	view                int64
	phases              []obs.Metric // the current primary's phase histograms
}

// snapLayers reads every layer meter of a traced group; nil when untraced.
func (g *hostGroup) snapLayers() *layerSnap {
	l := g.layers
	if l == nil {
		return nil
	}
	s := &layerSnap{loopNs: make([]int64, groupN), snapshotNs: make([]int64, groupN)}
	for idx, id := range l.ids {
		nm := l.net.nodes[id]
		for t := 0; t < numTypes; t++ {
			s.sentMsgs[t] += nm.sentMsgs[t].Load()
			s.sentBytes[t] += nm.sentBytes[t].Load()
		}
		s.sendNs += nm.sendNs.Load()
		cm := l.crypto[idx]
		s.macs += cm.macs.Load()
		s.macBytes += cm.macBytes.Load()
		s.digests += cm.digests.Load()
		s.digestB += cm.digestBytes.Load()
		s.inboxDrops += l.nodes[idx].Dropped()
		if idx >= groupN {
			s.retransmits += g.clients[idx-groupN].(*tracedClient).stats().Retransmits
			continue
		}
		for t := 0; t < numTypes; t++ {
			s.handled[t] += nm.handled[t].Load()
			s.selfNs[t] += nm.selfNs[t].Load()
		}
		s.loopNs[idx] = nm.loopNs.Load()
		s.timerNs += nm.timerNs.Load()
		svc := l.services[idx]
		s.executes += svc.executes.Load()
		s.executeNs += svc.executeNs.Load()
		s.snapshots += svc.snapshots.Load()
		s.snapshotNs[idx] = svc.snapshotNs.Load()
		s.waits = append(s.waits, nm.takeWaits()...)
	}
	s.backpressure = g.udp.Backpressure()
	s.stats = replicaStats(g)
	// The last replica is never stopped, so its view is the group's.
	last := g.replicas[groupN-1].(*tracedReplica)
	onLoop(last.node, func() { s.view = last.engine.View() })
	primary := int(s.view % groupN)
	onLoop(l.nodes[primary], func() { s.phases = l.phases[primary].Snapshot() })
	return s
}

// hostLayerMetrics derives the per-layer metrics of a traced window's
// measured regime; ops is the number of operations completed in it.
func hostLayerMetrics(w *window, ops int64, svc service) metricSet {
	a, b := w.layers[0], w.layers[1]
	secs := (w.end.at - w.from.at).Seconds()
	var out metricSet
	add := func(name string, v float64) { out = append(out, metric{name: name, value: v}) }

	var msgs, bytes, self int64
	classMsgs, classSelf, classHandled := map[string]int64{}, map[string]int64{}, map[string]int64{}
	for t := 0; t < numTypes; t++ {
		dm := b.sentMsgs[t] - a.sentMsgs[t]
		msgs += dm
		bytes += b.sentBytes[t] - a.sentBytes[t]
		self += b.selfNs[t] - a.selfNs[t]
		c := typeClass(t)
		classMsgs[c] += dm
		classSelf[c] += b.selfNs[t] - a.selfNs[t]
		classHandled[c] += b.handled[t] - a.handled[t]
	}
	add("transport.datagrams_per_op", perOp(float64(msgs), ops))
	for _, c := range typeClasses {
		add("transport.datagrams_per_op."+c, perOp(float64(classMsgs[c]), ops))
	}
	add("transport.bytes_per_op", perOp(float64(bytes), ops))
	add("transport.send_ns", perOp(float64(b.sendNs-a.sendNs), msgs))
	waits := make([]float64, len(b.waits))
	for i, d := range b.waits {
		waits[i] = float64(d) / 1e3
	}
	sort.Float64s(waits)
	add("transport.inbox_wait_us.p50", quantile(waits, 0.5))
	add("transport.inbox_wait_us.p90", quantile(waits, 0.9))
	add("transport.inbox_drops", float64(b.inboxDrops-a.inboxDrops))
	add("transport.udp_backpressure", float64(b.backpressure-a.backpressure))

	primary := int(b.view % groupN)
	var backupBusy float64
	for i := 0; i < groupN; i++ {
		busy := float64(b.loopNs[i]-a.loopNs[i]) / 1e9 / secs
		if i == primary {
			add("core.primary_busy_ratio", busy)
		} else {
			backupBusy += busy / (groupN - 1)
		}
	}
	add("core.backup_busy_ratio", backupBusy)
	add("core.handler_us_per_op", perOp(float64(self)/1e3, ops))
	for _, c := range typeClasses {
		add("core.handler_ns."+c, perOp(float64(classSelf[c]), classHandled[c]))
	}
	add("core.timer_us_per_op", perOp(float64(b.timerNs-a.timerNs)/1e3, ops))

	p := countersDelta(a.stats[primary], b.stats[primary])
	add("core.ops_per_batch", perOp(float64(p.ExecutedRequests), p.ExecutedBatches))
	// Read-only requests run on every replica; the last one is never stopped.
	add("core.read_only_share", perOp(float64(countersDelta(a.stats[groupN-1], b.stats[groupN-1]).ExecutedReadOnly), ops))
	var views, stable, dropped int64
	for i := 0; i < groupN; i++ {
		c := countersDelta(a.stats[i], b.stats[i])
		views = max(views, c.ViewChanges)
		stable = max(stable, c.StableCheckpoints)
		dropped += c.DroppedMessages
	}
	add("core.view_changes", float64(views))
	add("core.client_retransmits_per_op", perOp(float64(b.retransmits-a.retransmits), ops))
	add("core.stable_checkpoints", float64(stable))
	add("core.dropped_messages", float64(dropped))
	for _, p := range b.phases {
		if name, ok := phaseMetrics[p.Name]; ok {
			add(name, float64(p.P50)/1e3)
		}
	}

	add("crypto.macs_per_op", perOp(float64(b.macs-a.macs), ops))
	add("crypto.mac_bytes_per_op", perOp(float64(b.macBytes-a.macBytes), ops))
	add("crypto.digests_per_op", perOp(float64(b.digests-a.digests), ops))
	add("crypto.digest_bytes_per_op", perOp(float64(b.digestB-a.digestB), ops))

	// The null service's snapshot is empty; the report lists its execute
	// time only.
	add(svc.name()+".execute_ns", perOp(float64(b.executeNs-a.executeNs), b.executes-a.executes))
	add(svc.name()+".snapshot_ms", perOp(float64(sum(b.snapshotNs)-sum(a.snapshotNs))/1e6, b.snapshots-a.snapshots))
	add(svc.name()+".snapshot_share", perOp(float64(b.snapshotNs[primary]-a.snapshotNs[primary]), b.loopNs[primary]-a.loopNs[primary]))
	return out
}

// phaseMetrics names the report metric of each PhaseTracker histogram.
var phaseMetrics = map[string]string{
	"phase.prepare_ns": "core.phase_prepare_us.p50",
	"phase.commit_ns":  "core.phase_commit_us.p50",
	"phase.execute_ns": "core.phase_execute_us.p50",
}

// countersDelta returns the progress counters accrued from a to b.
func countersDelta(a, b core.Counters) core.Counters {
	return core.Counters{
		ExecutedRequests:  b.ExecutedRequests - a.ExecutedRequests,
		ExecutedReadOnly:  b.ExecutedReadOnly - a.ExecutedReadOnly,
		ExecutedBatches:   b.ExecutedBatches - a.ExecutedBatches,
		StableCheckpoints: b.StableCheckpoints - a.StableCheckpoints,
		ViewChanges:       b.ViewChanges - a.ViewChanges,
		DroppedMessages:   b.DroppedMessages - a.DroppedMessages,
	}
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// processMetrics derives the runtime's per-layer figures from the
// untraced window: allocation per operation and total GC pause.
func processMetrics(w *window, ops int64) metricSet {
	return metricSet{
		{name: "bft.alloc_bytes_per_op", value: perOp(float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc), ops)},
		{name: "bft.gc_pause_ms", value: float64(w.mem1.PauseTotalNs-w.mem0.PauseTotalNs) / 1e6},
	}
}
