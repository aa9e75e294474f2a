// Work-stealing runtime integration tests (DESIGN.md §15): the
// scheduler may reorder work *between* sites freely, but each site's
// observable history — its journal — must be exactly what a one-worker
// pool produces, batches must flush when workers go idle rather
// than waiting out the coalescing deadline, and the admission plane
// must keep sampling sojourn correctly when many workers feed it.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/journal"
	"repro/internal/node"
	"repro/internal/site"
	"repro/internal/transport"
)

// TestSchedulerJournalsMatchAcrossWorkerCounts is the per-site replay
// determinism check: run the same many-site ping-pong workload on one
// scheduler worker (the serial reference: nothing to steal from) and
// on a 4-worker stealing pool, both with a fixed seed, write-ahead
// journals on and checkpointing off, and require every server site's
// journal records to be byte-identical across the two runs. Each server is fed
// by exactly one sequential client, so its delivery stream is
// deterministic; the scheduler moving sites between workers must not
// change what any single site records.
func TestSchedulerJournalsMatchAcrossWorkerCounts(t *testing.T) {
	const pairs = 6
	const calls = 25
	run := func(sched node.SchedConfig) map[string][]journal.Record {
		fac := journal.NewMemFactory()
		cl, err := core.NewCluster(core.ClusterConfig{
			Nodes:   2,
			Journal: fac,
			// No compaction: the full append stream is the artifact
			// under comparison.
			CheckpointEvery: 1 << 30,
			Sched:           sched,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pairs; i++ {
			srv := fmt.Sprintf("server%d", i)
			if _, err := cl.Submit(0, srv,
				`def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p]) in export new p Serve[p]`,
				&lockedWriter{}); err != nil {
				t.Fatal(err)
			}
			client := fmt.Sprintf(`
import p from %s in
def Call(n) = if n == 0 then inaction else let y = p![n] in Call[n - 1]
in Call[%d]`, srv, calls)
			if _, err := cl.Submit(1, fmt.Sprintf("client%d", i), client, &lockedWriter{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := waitCluster(t, cl, time.Minute); err != nil {
			t.Fatal(err)
		}
		cl.Stop()
		names, err := fac.List()
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]journal.Record{}
		for _, name := range names {
			if !strings.Contains(name, "server") {
				continue
			}
			st, err := fac.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			// The logical records: how a turn's deliveries group into
			// appends depends on how many it drains, not what it records.
			recs, err := site.NewJournal(st).Records()
			if err != nil {
				t.Fatal(err)
			}
			out[name] = recs
		}
		return out
	}

	serial := run(node.SchedConfig{Workers: 1, Seed: 1})
	stolen := run(node.SchedConfig{Workers: 4, Seed: 1})
	if len(serial) != pairs {
		t.Fatalf("1-worker run journaled %d server sites, want %d", len(serial), pairs)
	}
	for name, want := range serial {
		got, ok := stolen[name]
		if !ok {
			t.Fatalf("4-worker run has no journal for %s", name)
		}
		if len(want) == 0 {
			t.Fatalf("empty 1-worker journal for %s (nothing under comparison)", name)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d records on 4 workers, %d on 1", name, len(got), len(want))
		}
		for i := range want {
			if got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("%s: record %d diverges: 1 worker {%d %x}, 4 workers {%d %x}",
					name, i, want[i].Kind, want[i].Data, got[i].Kind, got[i].Data)
			}
		}
	}
}

// TestFlushOnIdleUnderManyWorkers closes the park/flush race: with a
// coalescing deadline far beyond the test horizon, a ping-pong
// workload only completes if every worker flushes its node's outbound
// rings before parking. Eight workers on GOMAXPROCS=8 maximize the
// chance of one worker parking while another has just queued output.
func TestFlushOnIdleUnderManyWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes:       2,
		Reliability: &transport.ReliableConfig{},
		// A batch that neither fills nor times out within the test:
		// only flush-before-park can move it.
		Batch: node.BatchConfig{MaxBytes: 1 << 20, MaxDelay: time.Minute},
		Sched: node.SchedConfig{Workers: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	for i := 0; i < 4; i++ {
		srv := fmt.Sprintf("server%d", i)
		if _, err := cl.Submit(0, srv,
			`def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p]) in export new p Serve[p]`,
			&lockedWriter{}); err != nil {
			t.Fatal(err)
		}
		client := fmt.Sprintf(`
import p from %s in
def Call(n) = if n == 0 then inaction else let y = p![n] in Call[n - 1]
in Call[20]`, srv)
		if _, err := cl.Submit(1, fmt.Sprintf("client%d", i), client, &lockedWriter{}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if err := waitCluster(t, cl, 30*time.Second); err != nil {
		t.Fatalf("workload stalled — a batch was parked without flushing: %v", err)
	}
	if el := time.Since(start); el > 20*time.Second {
		t.Fatalf("completion took %v; each round trip appears to wait out the flush deadline", el)
	}
}

// TestAdmissionOverdrivePlateausUnderWorkers reruns the E15 open-loop
// overdrive drill with four scheduler workers on GOMAXPROCS=4: the
// admission controller now aggregates sojourn samples from every
// worker through the lock-free CAS-min mirror, and the property under
// test is unchanged — goodput at 5x offered load plateaus instead of
// collapsing, with the discarded work accounted as sheds.
func TestAdmissionOverdrivePlateausUnderWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("overdrive drill takes a few seconds")
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	tbl, err := experiments.OpenLoopDrill(experiments.Options{Quick: true}, []int{1, 5})
	if err != nil {
		t.Fatal(err) // the drill itself fails on duplicates or unaccounted losses
	}
	g1 := tbl.Metrics["e15/goodput_per_sec/1x"]
	g5 := tbl.Metrics["e15/goodput_per_sec/5x"]
	shed5 := tbl.Metrics["e15/shed_total/5x"]
	if g1 <= 0 {
		t.Fatalf("no goodput at 1x (%v)", g1)
	}
	// Plateau, not collapse. The drill warns at 80%; the CI gate uses
	// 50% so scheduler noise on a starved runner doesn't flake it.
	if g5 < 0.5*g1 {
		t.Fatalf("goodput collapsed under 5x overdrive: %0.f/s vs %.0f/s at 1x", g5, g1)
	}
	if shed5 <= 0 {
		t.Fatalf("5x overdrive shed nothing — open loop offered 5x capacity, where did it go?")
	}
}

// waitCluster waits for global termination with a deadline.
func waitCluster(t *testing.T, cl *core.Cluster, timeout time.Duration) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return cl.Wait(ctx)
}
