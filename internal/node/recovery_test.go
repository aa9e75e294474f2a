package node_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/journal"
	"repro/internal/nameservice"
	"repro/internal/node"
	"repro/internal/site"
	"repro/internal/telemetry"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestSupervisedSiteRestartsAfterKill kills a journaled site and checks
// the node's supervisor brings it back: state replayed without
// duplicate effects, export resolvable at the old name, fresh traffic
// served by the new incarnation.
func TestSupervisedSiteRestartsAfterKill(t *testing.T) {
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	fabric := transport.NewFabric(transport.Ideal)
	defer fabric.Close()
	tr, err := fabric.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	n := node.New(node.Config{
		ID: 1, NS: ns, Transport: tr,
		Journals:  journal.NewMemFactory(),
		Supervise: true,
	})
	defer n.Stop()

	var out testutil.Buf
	submit(t, n, "svr", `def Loop(p) = p?(v) = (println("got", v) | Loop[p]) in export new p Loop[p]`, &out)
	submit(t, n, "c1", `import p from svr in (p![1] | p![2])`, &testutil.Buf{})
	waitFor(t, func() bool {
		return strings.Contains(out.String(), "got 1") && strings.Contains(out.String(), "got 2")
	})

	victim, ok := n.SiteByName("svr")
	if !ok {
		t.Fatal("svr not running")
	}
	victim.Kill(errors.New("injected fault"))
	<-victim.Done()

	// The supervisor restarts it under epoch 2.
	waitFor(t, func() bool {
		s, ok := n.SiteByName("svr")
		return ok && s != victim && s.Err() == nil && s.Epoch() == 2
	})

	// The re-registered export serves a fresh importer.
	submit(t, n, "c2", `import p from svr in p![3]`, &testutil.Buf{})
	waitFor(t, func() bool { return strings.Contains(out.String(), "got 3") })

	// Replay must not have duplicated the pre-crash effects.
	for _, want := range []string{"got 1", "got 2", "got 3"} {
		if c := strings.Count(out.String(), want); c != 1 {
			t.Errorf("%q printed %d times, want once (out=%q)", want, c, out.String())
		}
	}
	if n.Err() != nil {
		t.Fatal(n.Err())
	}
}

// TestSupervisorGivesUpOnCrashLoop kills every incarnation of a site as
// soon as it comes up: after maxRestarts the node surfaces the error
// instead of flapping forever.
func TestSupervisorGivesUpOnCrashLoop(t *testing.T) {
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	fabric := transport.NewFabric(transport.Ideal)
	defer fabric.Close()
	tr, err := fabric.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	n := node.New(node.Config{
		ID: 1, NS: ns, Transport: tr,
		Journals:  journal.NewMemFactory(),
		Supervise: true,
	})
	defer n.Stop()

	var out testutil.Buf
	submit(t, n, "svr", `def Loop(p) = p?(v) = (println("got", v) | Loop[p]) in export new p Loop[p]`, &out)
	s, _ := n.SiteByName("svr")
	waitFor(t, func() bool { return s.ExportTableSize() > 0 })
	submit(t, n, "c1", `import p from svr in p![7]`, &testutil.Buf{})
	waitFor(t, func() bool { return strings.Contains(out.String(), "got 7") })

	for i := 0; i < 10; i++ {
		cur, ok := n.SiteByName("svr")
		if !ok {
			break
		}
		cur.Kill(errors.New("injected fault"))
		<-cur.Done()
		if n.Err() != nil {
			break
		}
		waitFor(t, func() bool {
			next, ok := n.SiteByName("svr")
			return (ok && next != cur && next.Err() == nil) || n.Err() != nil
		})
	}
	if n.Err() == nil {
		t.Fatal("supervisor never gave up on a site killed on every incarnation")
	}
	if !strings.Contains(n.Err().Error(), "giving up") {
		t.Fatalf("node error = %v, want a giving-up report", n.Err())
	}
}

// TestSenderToTwoSitesRecoversExactlyOnce covers the hazard of op ids
// that count per destination: a journaled sender that interleaves
// sends to two sites is killed mid-stream and restored. Replay
// re-issues every pre-crash send; each must carry the (site, id) it
// had before the crash for its own destination, or a receiver would
// apply it twice (or, colliding with an id the other stream used,
// drop a fresh one).
func TestSenderToTwoSitesRecoversExactlyOnce(t *testing.T) {
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	fabric := transport.NewFabric(transport.Ideal)
	defer fabric.Close()
	tr, err := fabric.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(1, telemetry.Config{Trace: true})
	n := node.New(node.Config{
		ID: 1, NS: ns, Transport: tr,
		Journals:  journal.NewMemFactory(),
		Supervise: true,
		Telemetry: tel,
	})
	stop := sync.OnceFunc(n.Stop)
	defer stop()

	const sink = `def Loop(x) = x?(v) = (println("got", v) | Loop[x]) in export new %s Loop[%[1]s]`
	var outA, outB testutil.Buf
	submit(t, n, "a", fmt.Sprintf(sink, "p"), &outA)
	submit(t, n, "b", fmt.Sprintf(sink, "q"), &outB)
	submit(t, n, "snd", `
import p from a in
import q from b in
def Fan(go) = go?(k) = (p![k] | q![k] | Fan[go])
in export new go Fan[go]`, &testutil.Buf{})
	got := func(k int) func() bool {
		want := fmt.Sprintf("got %d\n", k)
		return func() bool { return strings.Contains(outA.String(), want) && strings.Contains(outB.String(), want) }
	}
	submit(t, n, "c1", `import go from snd in (go![1] | go![2] | go![3])`, &testutil.Buf{})
	for k := 1; k <= 3; k++ {
		waitFor(t, got(k))
	}

	victim, ok := n.SiteByName("snd")
	if !ok {
		t.Fatal("snd not running")
	}
	sender := victim.ID()
	victim.Kill(errors.New("injected fault"))
	<-victim.Done()
	waitFor(t, func() bool {
		s, ok := n.SiteByName("snd")
		return ok && s != victim && s.Err() == nil && s.Epoch() == 2
	})
	submit(t, n, "c2", `import go from snd in (go![4] | go![5])`, &testutil.Buf{})
	waitFor(t, got(4))
	waitFor(t, got(5))
	if n.Err() != nil {
		t.Fatal(n.Err())
	}
	a, _ := n.SiteByName("a")
	b, _ := n.SiteByName("b")
	stop() // the sites' counters are theirs alone until they have stopped

	for name, out := range map[string]*testutil.Buf{"a": &outA, "b": &outB} {
		for k := 1; k <= 5; k++ {
			if c := strings.Count(out.String(), fmt.Sprintf("got %d\n", k)); c != 1 {
				t.Errorf("site %s applied message %d %d times, want once (out=%q)", name, k, c, out.String())
			}
		}
	}
	// The whole replayed prefix was recognised, at both receivers.
	if a.DupDrops != 3 || b.DupDrops != 3 {
		t.Errorf("DupDrops = %d at a, %d at b, want 3 and 3 (the replayed sends)", a.DupDrops, b.DupDrops)
	}
	// Each receiver applied the sender's ops 1..5 of its own stream,
	// no gaps and no doubles: the re-issued ids matched per destination.
	applied := map[uint32][]uint64{}
	for _, e := range tel.Snapshot().Events {
		if e.Kind == telemetry.EvDeliver && e.Op.Site == sender {
			applied[e.Site] = append(applied[e.Site], e.Op.ID)
		}
	}
	for _, s := range []*site.Site{a, b} {
		ids := applied[s.ID()]
		slices.Sort(ids)
		if !slices.Equal(ids, []uint64{1, 2, 3, 4, 5}) {
			t.Errorf("site %s applied sender ops %v, want 1..5", s.Name(), ids)
		}
	}
}

// TestJournaledNodeParksFramesForDownPeer: a journaled node parks what
// it sends to a peer marked down, even when its reliability config
// leaves Park unset. Recovery re-injects parked frames once the peer
// is back; a dropped frame would be lost.
func TestJournaledNodeParksFramesForDownPeer(t *testing.T) {
	fabric := transport.NewFabric(transport.Ideal)
	defer fabric.Close()
	tr, err := fabric.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	n := node.New(node.Config{ID: 1, NS: nameservice.NewSharded(nameservice.ShardedConfig{}), Transport: tr,
		Journals: journal.NewMemFactory(), Reliability: &transport.ReliableConfig{}})
	defer n.Stop()
	n.Reliable().SetPeerDown(2)
	if err := n.SendControl(wire.FTerm, 2, []byte{0}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		st := n.Reliable().Stats()
		return st.Parked+st.FailFasts > 0
	})
	if st := n.Reliable().Stats(); st.Parked == 0 {
		t.Fatalf("frame for the down peer was not parked: %+v", st)
	}
}
