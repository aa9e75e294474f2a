package site_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/nameservice"
	"repro/internal/node"
	"repro/internal/site"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// loopSrc is a persistent receiver: each val message prints and the
// receiver reinstalls itself, so the site accumulates deliveries
// without terminating.
const loopSrc = `def Loop(p) = p?(v) = (println("got", v) | Loop[p]) in export new p Loop[p]`

// valMsg builds a journaled-style delivery of p![v] carrying an
// explicit operation identity.
func valMsg(op wire.OpRef, v int64) site.Delivery {
	return site.Delivery{
		Op:  op,
		Src: 1,
		Msg: &site.MsgDelivery{Heap: 1, Label: "val", Args: []site.WireVal{{Kind: wire.WInt, I: v}}},
	}
}

func TestEpochFencingAndDedup(t *testing.T) {
	var out testutil.Buf
	s := newSite(t, "svr", loopSrc, &out, &fakeRouter{})
	waitSite(t, func() bool { return s.ExportTableSize() > 0 })

	ops := []struct {
		op   wire.OpRef
		v    int64
		want string
	}{
		{wire.OpRef{Site: 9, Epoch: 2, ID: 1}, 7, "got 7\n"},                               // applied
		{wire.OpRef{Site: 9, Epoch: 2, ID: 1}, 7, "got 7\n"},                               // duplicate id: dropped
		{wire.OpRef{Site: 9, Epoch: 1, ID: 2}, 66, "got 7\n"},                              // dead incarnation: fenced, and id 2 stays open
		{wire.OpRef{Site: 9, Epoch: 2, ID: 3}, 8, "got 7\ngot 8\n"},                        // applied ahead of id 2: leaves a gap
		{wire.OpRef{Site: 9, Epoch: 2, ID: 2}, 5, "got 7\ngot 8\ngot 5\n"},                 // applied late: the gap closes
		{wire.OpRef{Site: 9, Epoch: 3, ID: 3}, 8, "got 7\ngot 8\ngot 5\n"},                 // re-shipped after recovery: still a dup
		{wire.OpRef{Site: 9, Epoch: 3, ID: 4}, 9, "got 7\ngot 8\ngot 5\ngot 9\n"},          // applied under the new epoch
		{wire.OpRef{Site: 9, Epoch: 2, ID: 5}, 67, "got 7\ngot 8\ngot 5\ngot 9\n"},         // never-seen id from the dead incarnation: fenced
		{wire.OpRef{Site: 9, Epoch: 3, ID: 2}, 5, "got 7\ngot 8\ngot 5\ngot 9\n"},          // the late id again: a dup inside the joined range
		{wire.OpRef{Site: 9, Epoch: 3, ID: 5}, 10, "got 7\ngot 8\ngot 5\ngot 9\ngot 10\n"}, // the fenced id was not recorded: applied
	}
	for i, step := range ops {
		if err := s.Deliver(valMsg(step.op, step.v)); err != nil {
			t.Fatal(err)
		}
		want := step.want
		waitSite(t, func() bool { return out.String() == want })
		if out.String() != want {
			t.Fatalf("after op %d: output %q, want %q", i, out.String(), want)
		}
	}
	s.Stop()
	<-s.Done()
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	if s.DupDrops != 3 {
		t.Errorf("DupDrops = %d, want 3", s.DupDrops)
	}
	if s.StaleDrops != 2 {
		t.Errorf("StaleDrops = %d, want 2", s.StaleDrops)
	}
}

// recoverSite rebuilds a killed site from its journal under the next
// epoch, the way a node supervisor does.
func recoverSite(t *testing.T, f journal.Factory, ns nameservice.Service, name string, out *testutil.Buf, ckptEvery int) *site.Site {
	t.Helper()
	s := restoredSite(t, f, ns, name, out, ckptEvery)
	go s.Run()
	return s
}

// restoredSite is recoverSite without the Run goroutine: the restore
// happens in the caller's first Turn.
func restoredSite(t *testing.T, f journal.Factory, ns nameservice.Service, name string, out *testutil.Buf, ckptEvery int) *site.Site {
	t.Helper()
	st, err := f.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	jl := site.NewJournal(st)
	rec, err := site.LoadJournal(jl)
	if err != nil {
		t.Fatal(err)
	}
	epoch := rec.Epoch() + 1
	if err := jl.Append(site.RecEpoch, site.EncodeEpoch(epoch)); err != nil {
		t.Fatal(err)
	}
	s := site.New(site.Config{
		Name: rec.SiteName(), ID: rec.SiteID(), NodeID: 1,
		NS: ns, Router: &fakeRouter{}, Out: out,
		ImportTimeout: 2 * time.Second,
		Epoch:         epoch, Journal: jl, CheckpointEvery: ckptEvery,
	})
	s.SetRestore(rec)
	return s
}

// journalRecovery is the shared scenario: run, absorb deliveries, die,
// restore, verify no duplicate effects and continued service. With
// ckptEvery high the restore replays the recorded program + delivery
// log; with ckptEvery 1 it starts from a heap snapshot.
func journalRecovery(t *testing.T, ckptEvery int) {
	f := journal.NewMemFactory()
	st, err := f.Open("svr")
	if err != nil {
		t.Fatal(err)
	}
	ns := nameservice.NewCentral()
	prog, err := node.CompileSubmission("svr", loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	var out testutil.Buf
	s := site.New(site.Config{
		Name: "svr", ID: 1, NodeID: 1,
		NS: ns, Router: &fakeRouter{}, Out: &out,
		ImportTimeout: 2 * time.Second,
		Journal:       site.NewJournal(st), CheckpointEvery: ckptEvery,
	})
	if err := s.Load(prog); err != nil {
		t.Fatal(err)
	}
	go s.Run()
	waitSite(t, func() bool { return s.ExportTableSize() > 0 })
	for i := int64(1); i <= 3; i++ {
		if err := s.Deliver(valMsg(wire.OpRef{Site: 9, Epoch: 1, ID: uint64(i)}, i)); err != nil {
			t.Fatal(err)
		}
	}
	waitSite(t, func() bool { return out.String() == "got 1\ngot 2\ngot 3\n" })
	s.Kill(errors.New("injected fault"))
	<-s.Done()

	var out2 testutil.Buf
	r := recoverSite(t, f, ns, "svr", &out2, ckptEvery)
	defer func() {
		r.Stop()
		<-r.Done()
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
	}()
	if got := r.Epoch(); got != 2 {
		t.Fatalf("recovered epoch = %d, want 2", got)
	}
	// A recovered sender re-ships its pre-crash ops (same ids, higher
	// epoch): all three must read as duplicates, not re-print.
	for i := int64(1); i <= 3; i++ {
		if err := r.Deliver(valMsg(wire.OpRef{Site: 9, Epoch: 2, ID: uint64(i)}, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Fresh traffic keeps flowing.
	if err := r.Deliver(valMsg(wire.OpRef{Site: 9, Epoch: 2, ID: 4}, 4)); err != nil {
		t.Fatal(err)
	}
	waitSite(t, func() bool { return strings.Contains(out2.String(), "got 4") })
	// Replayed output was suppressed and the dups were dropped: the
	// post-recovery buffer holds exactly the one new effect.
	if got := out2.String(); got != "got 4\n" {
		t.Fatalf("post-recovery output %q, want %q", got, "got 4\n")
	}
	// The export is resolvable at its old name.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	ref, _, err := ns.LookupName(ctx, "svr", "p")
	if err != nil {
		t.Fatalf("export lost after recovery: %v", err)
	}
	if ref.Site != 1 {
		t.Fatalf("export resolves to site %d, want 1", ref.Site)
	}
}

func TestSiteRecoversByReplayingDeliveryLog(t *testing.T) { journalRecovery(t, 1000) }

func TestSiteRecoversFromCheckpoint(t *testing.T) { journalRecovery(t, 1) }

// TestReplayDeterminism restores the same journal twice and compares
// the checkpoints the two incarnations produce: byte-identical state is
// what makes re-shipped operations carry identical identities.
func TestReplayDeterminism(t *testing.T) {
	f := journal.NewMemFactory()
	st, err := f.Open("svr")
	if err != nil {
		t.Fatal(err)
	}
	ns := nameservice.NewCentral()
	prog, err := node.CompileSubmission("svr", loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	var out testutil.Buf
	s := site.New(site.Config{
		Name: "svr", ID: 1, NodeID: 1,
		NS: ns, Router: &fakeRouter{}, Out: &out,
		ImportTimeout: 2 * time.Second,
		Journal:       site.NewJournal(st), CheckpointEvery: 1000,
	})
	if err := s.Load(prog); err != nil {
		t.Fatal(err)
	}
	go s.Run()
	waitSite(t, func() bool { return s.ExportTableSize() > 0 })
	for i := int64(1); i <= 5; i++ {
		if err := s.Deliver(valMsg(wire.OpRef{Site: 9, Epoch: 1, ID: uint64(i)}, i)); err != nil {
			t.Fatal(err)
		}
	}
	waitSite(t, func() bool { return strings.Count(out.String(), "got") == 5 })
	s.Kill(errors.New("injected fault"))
	<-s.Done()
	base, err := st.Records()
	if err != nil {
		t.Fatal(err)
	}

	snapshotAfterRestore := func(run int) []journal.Record {
		// Each incarnation restores from an identical copy of the log
		// and checkpoints immediately (CheckpointEvery 1 + idle).
		mf := journal.NewMemFactory()
		cst, err := mf.Open("svr")
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range base {
			if err := cst.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		cns := nameservice.NewCentral()
		var o testutil.Buf
		r := recoverSite(t, mf, cns, "svr", &o, 1)
		waitSite(t, func() bool {
			recs, err := cst.Records()
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if rec.Kind == site.RecCheckpoint {
					return true
				}
			}
			return false
		})
		r.Stop()
		<-r.Done()
		if r.Err() != nil {
			t.Fatalf("run %d: %v", run, r.Err())
		}
		recs, err := cst.Records()
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}

	a := snapshotAfterRestore(1)
	b := snapshotAfterRestore(2)
	if len(a) != len(b) {
		t.Fatalf("restored logs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || string(a[i].Data) != string(b[i].Data) {
			t.Fatalf("restored logs diverge at record %d (kind %d vs %d, %d vs %d bytes)",
				i, a[i].Kind, b[i].Kind, len(a[i].Data), len(b[i].Data))
		}
	}
	if len(a) == 0 {
		t.Fatal("no records after restore")
	}
}

// checkpointLen returns the size of the log's checkpoint record.
func checkpointLen(t *testing.T, st journal.Store) int {
	t.Helper()
	recs, err := st.Records()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Kind == site.RecCheckpoint {
			return len(rec.Data)
		}
	}
	t.Fatal("no checkpoint in the log")
	return 0
}

// TestCheckpointSizeIndependentOfHistory serves n and then 10n in-order
// calls from one peer: the applied ids are one range either way, so the
// server's checkpoint has the same length, give or take the width of
// the counters in it. (Kept as a set of ids it grew by a byte or more
// per delivery.)
func TestCheckpointSizeIndependentOfHistory(t *testing.T) {
	st, err := journal.NewMemFactory().Open("server")
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	s, heap := journaledRPCServer(t, st, n)
	for i := 0; i < n; i++ {
		serve(t, s, call(heap, i))
	}
	if s.Checkpoints != 1 {
		t.Fatalf("%d checkpoints after %d deliveries, want 1", s.Checkpoints, n)
	}
	short := checkpointLen(t, st)
	for i := n; i < 10*n; i++ {
		serve(t, s, call(heap, i))
	}
	if s.Checkpoints != 10 {
		t.Fatalf("%d checkpoints after %d deliveries, want 10", s.Checkpoints, 10*n)
	}
	long := checkpointLen(t, st)
	t.Logf("checkpoint record: %d bytes after %d deliveries, %d after %d", short, n, long, 10*n)
	// A dozen counters (ops, context switches, sent/received) may each
	// have gained a varint byte; 9n more ids would be 9n bytes or more.
	if long-short > 16 {
		t.Fatalf("checkpoint grew from %d to %d bytes over %d more in-order deliveries", short, long, 9*n)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCheckpoint times one checkpoint of the server after it has
// applied 10k and 100k in-order deliveries: the cost must not depend on
// how much history the site has seen.
func BenchmarkCheckpoint(b *testing.B) {
	for _, applied := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("applied=%d", applied), func(b *testing.B) {
			st, err := journal.NewMemFactory().Open("server")
			if err != nil {
				b.Fatal(err)
			}
			s, heap := journaledRPCServer(b, st, 2*applied)
			for i := 0; i < applied; i++ {
				serve(b, s, call(heap, i))
			}
			// The first checkpoint also compacts the delivery log away.
			if err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// checkpointData returns the data of the log's checkpoint record.
func checkpointData(t *testing.T, st journal.Store) []byte {
	t.Helper()
	recs, err := st.Records()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Kind == site.RecCheckpoint {
			return rec.Data
		}
	}
	t.Fatal("no checkpoint in the log")
	return nil
}

// TestLinkCacheSurvivesRecovery: a journaled client that received
// shipped objects is killed and restored, once from its checkpoint and
// once by replaying its delivery log. Either way the restored site's
// next checkpoint is byte-identical to the dead incarnation's — link
// cache included — and a post-restore arrival of the same code is a
// cache hit, not a second link.
func TestLinkCacheSurvivesRecovery(t *testing.T) {
	a := shippedApplet(t, 31)
	f := journal.NewMemFactory()
	st, err := f.Open("client")
	if err != nil {
		t.Fatal(err)
	}
	c, p := turnSite(t, "client", appletClientSrc, "p", site.Config{Journal: site.NewJournal(st), CheckpointEvery: 1000})
	ds := arrivals(a, p, 4)
	for _, d := range ds[:6] {
		serve(t, c, d)
	}
	if c.UnitsLinked != 2 || c.LinkCacheHits != 2 {
		t.Fatalf("before the crash: %d units linked, %d cache hits; want 2 and 2", c.UnitsLinked, c.LinkCacheHits)
	}
	deliveryLog, err := st.Records()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := checkpointData(t, st)
	checkpointed, err := st.Records()
	if err != nil {
		t.Fatal(err)
	}
	c.Kill(errors.New("injected fault"))
	c.Turn()

	for _, tc := range []struct {
		name string
		log  []journal.Record
	}{{"from the checkpoint", checkpointed}, {"by replay", deliveryLog}} {
		rf := journal.NewMemFactory()
		rst, err := rf.Open("client")
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range tc.log {
			if err := rst.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		r := restoredSite(t, rf, nameservice.NewCentral(), "client", &testutil.Buf{}, 1000)
		for r.Turn() == site.TurnMore {
		}
		if err := r.Err(); err != nil {
			t.Fatalf("restore %s: %v", tc.name, err)
		}
		if err := r.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := checkpointData(t, rst); !bytes.Equal(got, want) {
			t.Errorf("restore %s: next checkpoint differs from the dead incarnation's (%d vs %d bytes)", tc.name, len(got), len(want))
		}
		serve(t, r, ds[6])
		serve(t, r, ds[7])
		if r.UnitsLinked != 2 || r.LinkCacheHits != 3 {
			t.Errorf("restore %s: after one more arrival %d units linked, %d cache hits; want 2 and 3", tc.name, r.UnitsLinked, r.LinkCacheHits)
		}
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		r.Stop()
		r.Turn()
	}
}
