// Integration tests for the communication fast path (DESIGN.md §10):
// frame coalescing must preserve exactly-once delivery under chaos,
// must not change program results versus per-message sends, and must
// never trade idle latency for batch occupancy (flush-before-park).
package repro

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/transport"
)

// TestBatchedChaosExactlyOnce drives four worker sites on one node —
// so their RPCs share the per-peer coalescer and ride mixed FBatch
// frames — over a dropping, duplicating, reordering link with the
// reliable layer on. Every chunk must be processed exactly once: a
// missing chunk means a batch died with its envelopes, a doubled one
// means dedup happened per frame instead of per envelope.
//
// A one-frame send window holds each flusher in Send until its last
// frame is acked, so the envelopes queued meanwhile must leave
// together: coalescing no longer depends on the flusher losing a race
// with the producers.
func TestBatchedChaosExactlyOnce(t *testing.T) {
	const siteCount = 4
	const perSite = 12
	total := siteCount * perSite

	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes:       2,
		Chaos:       &transport.ChaosConfig{Seed: *chaosSeed, Drop: 0.15, Dup: 0.1, Reorder: 0.2},
		Reliability: &transport.ReliableConfig{Window: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	serverOut := &lockedWriter{}
	if _, err := cl.Submit(0, "seti", chaosSetiServer, serverOut); err != nil {
		t.Fatal(err)
	}
	outs := make([]*lockedWriter, siteCount)
	for i := 0; i < siteCount; i++ {
		outs[i] = &lockedWriter{}
		chunks := chunkRange(i*perSite, (i+1)*perSite)
		if _, err := cl.Submit(1, fmt.Sprintf("worker%d", i), chaosWorkerSrc(chunks), outs[i]); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	if err := cl.Wait(ctx); err != nil {
		t.Fatalf("batched chaos run never terminated: %v (cluster: %v)", err, cl.Err())
	}

	counts := countChunks(t, outs...)
	for c := 0; c < total; c++ {
		if counts[c] != 1 {
			t.Errorf("chunk %d processed %d times, want exactly 1", c, counts[c])
		}
	}

	// The run must actually have exercised both mechanisms under test:
	// chaos (retransmissions happened) and coalescing (fewer data
	// frames than envelopes — each call is at least two envelopes).
	var dataSent, retransmits uint64
	for i := 0; i < cl.Nodes(); i++ {
		s := cl.Node(i).Reliable().Stats()
		dataSent += s.DataSent
		retransmits += s.Retransmits
	}
	t.Logf("%d data frames for %d envelopes, %d retransmits", dataSent, 2*total, retransmits)
	if retransmits == 0 {
		t.Error("no retransmissions recorded — chaos was not in the path")
	}
	if dataSent >= uint64(2*total) {
		t.Errorf("dataSent = %d frames for %d envelopes — nothing coalesced", dataSent, 2*total)
	}
}

// TestBatchingPreservesResults runs the same seeded chaotic workload
// with the coalescer on and off and requires identical observable
// results: the fast path is a transport optimization, not a semantic
// change.
func TestBatchingPreservesResults(t *testing.T) {
	const total = 30
	run := func(batch node.BatchConfig) map[int]int {
		cl, err := core.NewCluster(core.ClusterConfig{
			Nodes:       2,
			Chaos:       &transport.ChaosConfig{Seed: *chaosSeed, Drop: 0.1, Dup: 0.1, Reorder: 0.15},
			Reliability: &transport.ReliableConfig{},
			Batch:       batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Stop()
		serverOut := &lockedWriter{}
		if _, err := cl.Submit(0, "seti", chaosSetiServer, serverOut); err != nil {
			t.Fatal(err)
		}
		out := &lockedWriter{}
		if _, err := cl.Submit(1, "worker", chaosWorkerSrc(chunkRange(0, total)), out); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
		defer cancel()
		if err := cl.Wait(ctx); err != nil {
			t.Fatalf("run never terminated: %v (cluster: %v)", err, cl.Err())
		}
		return countChunks(t, out)
	}

	batched := run(node.BatchConfig{})
	unbatched := run(node.BatchConfig{Disable: true})
	for c := 0; c < total; c++ {
		if batched[c] != unbatched[c] {
			t.Errorf("chunk %d: batched count %d, unbatched count %d", c, batched[c], unbatched[c])
		}
		if batched[c] != 1 {
			t.Errorf("chunk %d processed %d times, want exactly 1", c, batched[c])
		}
	}
}

// TestBatchFlushOnIdle pins the flush-before-park guarantee: with the
// coalescer's delay timer effectively disabled (an hour), a sequential
// RPC chain still completes promptly because each site flushes its
// partial batch when it parks on an empty run queue. If parking did
// not flush, the first request would sit in the coalescer for the
// full hour and the test would time out.
func TestBatchFlushOnIdle(t *testing.T) {
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes:       2,
		Reliability: &transport.ReliableConfig{},
		Batch:       node.BatchConfig{MaxDelay: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	serverOut := &lockedWriter{}
	if _, err := cl.Submit(0, "seti", chaosSetiServer, serverOut); err != nil {
		t.Fatal(err)
	}
	out := &lockedWriter{}
	if _, err := cl.Submit(1, "worker", chaosWorkerSrc(chunkRange(0, 10)), out); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	start := time.Now()
	if err := cl.Wait(ctx); err != nil {
		t.Fatalf("sequential RPCs stalled with a long batch delay — flush-before-park is broken: %v", err)
	}
	counts := countChunks(t, out)
	for c := 0; c < 10; c++ {
		if counts[c] != 1 {
			t.Errorf("chunk %d processed %d times, want 1", c, counts[c])
		}
	}
	t.Logf("10 sequential RPCs in %v with MaxDelay=1h", time.Since(start))
}
