// Gossip membership integration tests (DESIGN.md §13): the phi-accrual
// detector under seeded link flapping (false positives must stay
// bounded where a binary timeout would convict constantly), partition
// detection with post-heal convergence and incarnation refutation, a
// crash/recover churn sequence, and the graceful-drain drill — a live
// SETI workload evacuated off its node with every chunk processed
// exactly once.
package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/membership"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// membershipConverged reports whether every node in `idx` sees every
// node in `ids` as Alive (Leaving also counts: the peer is reachable).
func membershipConverged(cl *core.Cluster, idx []int, ids []uint32) bool {
	for _, i := range idx {
		m := cl.Membership(i)
		if m == nil {
			return false
		}
		for _, id := range ids {
			st, _ := m.State(id)
			if st != membership.StateAlive && st != membership.StateLeaving {
				return false
			}
		}
	}
	return true
}

// TestMembershipFlappingLinkBoundedFalsePositives runs an idle cluster
// over a badly flapping fabric (30% drop, duplication, reordering) and
// requires the adaptive detector to hold its fire: the phi estimator
// has seen the link's jitter, so silence that a fixed timeout would
// convict is, statistically, just the link. No peer may ever be
// declared Dead, suspicion events must stay rare, and every transient
// suspicion must be refuted back to Alive by the end.
func TestMembershipFlappingLinkBoundedFalsePositives(t *testing.T) {
	const n = 4
	var susMu sync.Mutex
	falseSuspicions := 0
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes:       n,
		Chaos:       &transport.ChaosConfig{Seed: *chaosSeed, Drop: 0.3, Dup: 0.1, Reorder: 0.2},
		Reliability: &transport.ReliableConfig{},
		Detect: &membership.Config{
			ProbeInterval: 10 * time.Millisecond,
			SuspectAfter:  60 * time.Millisecond,
			DeadAfter:     500 * time.Millisecond,
			Seed:          *chaosSeed,
		},
		OnSuspect: func(observer uint32, e membership.Event) {
			if e.State == membership.StateSuspect {
				susMu.Lock()
				falseSuspicions++
				susMu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	// Let the agents converge, then hold the flapping link for a long
	// observation window — every suspicion in it is a false positive,
	// because nobody is crashed.
	all := []uint32{1, 2, 3, 4}
	waitCond(t, 10*time.Second, func() bool {
		return membershipConverged(cl, []int{0, 1, 2, 3}, all)
	})
	time.Sleep(1500 * time.Millisecond)

	var deaths, suspicions uint64
	for i := 0; i < n; i++ {
		st := cl.Membership(i).Stats()
		deaths += st.Deaths
		suspicions += st.Suspicions
	}
	if deaths != 0 {
		t.Errorf("flapping link produced %d Dead verdicts, want 0", deaths)
	}
	susMu.Lock()
	fp := falseSuspicions
	susMu.Unlock()
	// The bound is generous (CI machines stall), but a binary detector
	// at this SuspectAfter fails it by an order of magnitude.
	if fp > 12 {
		t.Errorf("%d false suspicions across the window, want <= 12", fp)
	}
	t.Logf("flapping window: %d false suspicions, %d suspect transitions, %d deaths", fp, suspicions, deaths)

	// Whatever was transiently suspected must have been refuted back.
	waitCond(t, 10*time.Second, func() bool {
		return membershipConverged(cl, []int{0, 1, 2, 3}, all)
	})
}

// TestMembershipPartitionHealConvergence cuts one node off from the
// rest, requires every survivor to convict it (and it them), then
// heals the partition and requires every view to converge back to
// all-alive — the isolated node refutes its stale suspicion with an
// incarnation bump instead of rejoining as a ghost.
func TestMembershipPartitionHealConvergence(t *testing.T) {
	const n = 4
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes:       n,
		Chaos:       &transport.ChaosConfig{Seed: *chaosSeed},
		Reliability: &transport.ReliableConfig{},
		Detect: &membership.Config{
			ProbeInterval: 10 * time.Millisecond,
			SuspectAfter:  60 * time.Millisecond,
			DeadAfter:     150 * time.Millisecond,
			Seed:          *chaosSeed,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	all := []uint32{1, 2, 3, 4}
	waitCond(t, 10*time.Second, func() bool {
		return membershipConverged(cl, []int{0, 1, 2, 3}, all)
	})

	for id := uint32(2); id <= n; id++ {
		cl.Chaos().Partition(1, id)
	}
	// Every survivor convicts node 1; node 1 convicts every survivor.
	waitCond(t, 30*time.Second, func() bool {
		for _, i := range []int{1, 2, 3} {
			if st, _ := cl.Membership(i).State(1); st != membership.StateDead {
				return false
			}
		}
		for _, id := range []uint32{2, 3, 4} {
			if st, _ := cl.Membership(0).State(id); st != membership.StateDead {
				return false
			}
		}
		return true
	})

	// The incarnation at which the survivors convicted node 1: its
	// rejoin must supersede this verdict, not sneak around it.
	_, deadInc := cl.Membership(1).State(1)

	for id := uint32(2); id <= n; id++ {
		cl.Chaos().Heal(1, id)
	}
	waitCond(t, 30*time.Second, func() bool {
		return membershipConverged(cl, []int{0, 1, 2, 3}, all)
	})

	// Rejoining against a Dead@deadInc rumor requires the survivors to
	// end up holding node 1 Alive at an incarnation that outranks it.
	if _, incAfter := cl.Membership(1).State(1); incAfter < deadInc {
		t.Errorf("node 1 readmitted at incarnation %d, below the convicted incarnation %d", incAfter, deadInc)
	}
	var revivals uint64
	for i := 0; i < n; i++ {
		revivals += cl.Membership(i).Stats().Revivals
	}
	if revivals == 0 {
		t.Error("no membership agent recorded a revival after the heal")
	}
}

// TestMembershipChurnCrashRecover soaks the agreement machinery under
// churn: nodes crash and rejoin in sequence over a lossy fabric, and
// after every round the surviving views must re-converge. This is the
// scenario the CI chaos-soak matrix replays under distinct seeds.
func TestMembershipChurnCrashRecover(t *testing.T) {
	const n = 4
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes:       n,
		Chaos:       &transport.ChaosConfig{Seed: *chaosSeed, Drop: 0.1, Dup: 0.05, Reorder: 0.1},
		Reliability: &transport.ReliableConfig{},
		Detect: &membership.Config{
			ProbeInterval: 10 * time.Millisecond,
			SuspectAfter:  80 * time.Millisecond,
			DeadAfter:     200 * time.Millisecond,
			Seed:          *chaosSeed,
		},
		// Recover rebuilds a node from journals; churn nodes run no
		// sites, but the knob is required.
		Journal: journal.NewMemFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	all := []uint32{1, 2, 3, 4}
	waitCond(t, 10*time.Second, func() bool {
		return membershipConverged(cl, []int{0, 1, 2, 3}, all)
	})

	for round, victim := range []int{3, 1} {
		victimID := uint32(victim + 1)
		var survivors []int
		for i := 0; i < n; i++ {
			if i != victim {
				survivors = append(survivors, i)
			}
		}
		cl.Crash(victim)
		waitCond(t, 30*time.Second, func() bool {
			for _, i := range survivors {
				if st, _ := cl.Membership(i).State(victimID); st != membership.StateDead {
					return false
				}
			}
			return true
		})
		if err := cl.Recover(victim); err != nil {
			t.Fatalf("round %d: recover node %d: %v", round, victim, err)
		}
		waitCond(t, 30*time.Second, func() bool {
			return membershipConverged(cl, []int{0, 1, 2, 3}, all)
		})
		t.Logf("round %d: node %d convicted and re-admitted", round, victimID)
	}
}

// TestDrainEvacuatesSetiExactlyOnce is the graceful-drain drill: the
// node hosting the SETI server is drained — not crashed — while
// workers are mid-RPC over a chaotic fabric. The server site must move
// to a peer by journal handoff and replay, the name registration must
// follow it under a higher epoch, stragglers sent to the old home must
// be forwarded, and the computation must finish with every chunk
// processed exactly once: zero loss, zero duplicate execution.
func TestDrainEvacuatesSetiExactlyOnce(t *testing.T) {
	const workers = 2
	assign := [][]int{chunkRange(0, 12), chunkRange(12, 24)}
	total := 24

	jf, err := journal.NewFileFactory(journalDir(t))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes:       1 + workers,
		Chaos:       &transport.ChaosConfig{Seed: *chaosSeed, Drop: 0.05, Dup: 0.05, Reorder: 0.1},
		Reliability: &transport.ReliableConfig{},
		Telemetry:   &telemetry.Config{Trace: true},
		Detect: &membership.Config{
			ProbeInterval: 10 * time.Millisecond,
			SuspectAfter:  80 * time.Millisecond,
			Seed:          *chaosSeed,
		},
		Journal:         jf,
		CheckpointEvery: 4,
		Supervise:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	saveTelemetryOnFailure(t, cl)

	serverOut := &lockedWriter{}
	if _, err := cl.Submit(0, "seti", chaosSetiServer, serverOut); err != nil {
		t.Fatal(err)
	}
	outs := make([]*lockedWriter, workers)
	for i := 0; i < workers; i++ {
		outs[i] = &lockedWriter{}
		if _, err := cl.Submit(1+i, fmt.Sprintf("worker%d", i), chaosWorkerSrc(assign[i]), outs[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Drain mid-flight, so the journal handoff carries applied state
	// and the workers' in-flight RPCs become stragglers to forward.
	waitCond(t, 30*time.Second, func() bool {
		return len(countChunks(t, outs...)) >= 3
	})
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 60*time.Second)
	err = cl.Drain(drainCtx, 0)
	drainCancel()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !cl.Node(0).Draining() {
		t.Error("drained node does not report Draining")
	}
	if _, ok := cl.Node(0).SiteByName("seti"); ok {
		t.Error("seti still hosted on the drained node")
	}

	// The evacuated server now lives on a worker node, under a bumped
	// epoch (the replayed journal plus the handoff's epoch record).
	var adopter int
	found := false
	for i := 1; i <= workers; i++ {
		if s, ok := cl.Node(i).SiteByName("seti"); ok {
			found = true
			adopter = i
			if s.Epoch() < 2 {
				t.Errorf("adopted seti epoch = %d, want >= 2", s.Epoch())
			}
		}
	}
	if !found {
		t.Fatal("seti was not adopted by any surviving node")
	}
	t.Logf("seti evacuated to node %d", adopter+1)

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	if err := cl.Wait(ctx); err != nil {
		t.Fatalf("cluster never terminated after drain: %v (cluster: %v)", err, cl.Err())
	}

	// Exactly-once across the evacuation: every chunk, none twice.
	counts := countChunks(t, outs...)
	for c := 0; c < total; c++ {
		switch counts[c] {
		case 0:
			t.Errorf("chunk %d never processed (lost across the drain)", c)
		case 1:
		default:
			t.Errorf("chunk %d processed %d times (handoff replay duplicated it)", c, counts[c])
		}
	}

	// The name handover must serve sites submitted only after the
	// drain: a fresh importer resolves seti at its new home.
	probeOut := &lockedWriter{}
	if _, err := cl.Submit(1, "probe", chaosWorkerSrc([]int{total}), probeOut); err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(ctx); err != nil {
		t.Fatalf("post-drain probe never terminated: %v (cluster: %v)", err, cl.Err())
	}
	if got := countChunks(t, probeOut)[total]; got != 1 {
		t.Fatalf("post-drain probe chunk processed %d times, want 1 (out=%q)", got, probeOut.String())
	}
}
