package nameservice

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/vm"
)

func shardedForTest(members ...uint32) *Sharded {
	return NewSharded(ShardedConfig{Members: members, Vnodes: 16})
}

func registerN(t *testing.T, svc Service, n int) {
	t.Helper()
	ctx := context.Background()
	// Registrant node ids (100+) are disjoint from ring member ids so
	// fencing a shard member in these tests exercises ring eviction
	// without also expiring the registrations (fencing a node that is
	// both is covered by TestShardedLeaseAndFencingSemantics).
	for i := 0; i < n; i++ {
		site := fmt.Sprintf("site-%d", i)
		if err := svc.RegisterSite(ctx, site, uint32(i), uint32(100+i%3), 1); err != nil {
			t.Fatalf("register %s: %v", site, err)
		}
		if err := svc.RegisterName(ctx, site, "x", uint32(i), "sig"); err != nil {
			t.Fatalf("register name %s.x: %v", site, err)
		}
	}
}

func lookupAll(t *testing.T, svc Service, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		site := fmt.Sprintf("site-%d", i)
		s, _, err := svc.LookupSite(ctx, site)
		if err != nil || s != uint32(i) {
			t.Fatalf("lookup %s: site=%d err=%v", site, s, err)
		}
		ref, sig, err := svc.LookupName(ctx, site, "x")
		if err != nil || ref.Heap != uint32(i) || sig != "sig" {
			t.Fatalf("lookup %s.x: ref=%v sig=%q err=%v", site, ref, sig, err)
		}
	}
}

func totalKeys(s *Sharded) (sites, names int) {
	for _, kc := range s.Stats().ShardKeys {
		sites += kc.Sites
		names += kc.Names
	}
	return
}

func TestShardedBasics(t *testing.T) {
	s := shardedForTest(1, 2, 3)
	const n = 200
	registerN(t, s, n)
	lookupAll(t, s, n)
	st := s.Stats()
	if st.MapVersion != 1 {
		t.Fatalf("map version = %d, want 1", st.MapVersion)
	}
	sites, names := totalKeys(s)
	if sites != n || names != n {
		t.Fatalf("key counts: sites=%d names=%d, want %d each", sites, names, n)
	}
	// Keys actually spread: every member owns something at n=200.
	for m, kc := range st.ShardKeys {
		if kc.Sites == 0 {
			t.Fatalf("member %d owns no sites: %v", m, st.ShardKeys)
		}
	}
}

func TestShardedTransitionsLoseNothing(t *testing.T) {
	// The acceptance invariant at unit scale: registrations survive
	// member leave (fence), rejoin (unfence), and resize, with no
	// entry lost or duplicated.
	s := shardedForTest(1, 2, 3)
	const n = 300
	registerN(t, s, n)

	s.FenceNode(2) // leave: member 2's ranges migrate to 1 and 3
	if got := s.MapVersion(); got != 2 {
		t.Fatalf("map version after leave = %d, want 2", got)
	}
	lookupAll(t, s, n)
	sites, names := totalKeys(s)
	if sites != n || names != n {
		t.Fatalf("after leave: sites=%d names=%d, want %d each (lost or duplicated)", sites, names, n)
	}

	s.UnfenceNode(2) // rejoin: member 2 reclaims its ranges
	if got := s.MapVersion(); got != 3 {
		t.Fatalf("map version after rejoin = %d, want 3", got)
	}
	lookupAll(t, s, n)
	sites, names = totalKeys(s)
	if sites != n || names != n {
		t.Fatalf("after rejoin: sites=%d names=%d, want %d each", sites, names, n)
	}

	if err := s.SetMembers([]uint32{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	lookupAll(t, s, n)
	sites, names = totalKeys(s)
	if sites != n || names != n {
		t.Fatalf("after resize: sites=%d names=%d, want %d each", sites, names, n)
	}
	if s.Stats().Migrated == 0 {
		t.Fatal("no entries migrated across three transitions")
	}
}

func TestShardedConcurrentChurnWithTransitions(t *testing.T) {
	// Registrations racing shard-map transitions: the write path holds
	// the ring read lock across its shard write, so a rebalance can
	// never strand a racing registration. Every registered site must
	// resolve afterwards and counts must balance exactly.
	s := shardedForTest(1, 2, 3, 4)
	const n = 400
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := w; i < n; i += 4 {
				site := fmt.Sprintf("site-%d", i)
				if err := s.RegisterSite(ctx, site, uint32(i), 1, 1); err != nil {
					t.Errorf("register %s: %v", site, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sets := [][]uint32{{1, 2}, {1, 2, 3, 4, 5}, {2, 3, 4}, {1, 2, 3, 4}}
		for _, ms := range sets {
			if err := s.SetMembers(ms); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		site := fmt.Sprintf("site-%d", i)
		got, _, err := s.LookupSite(ctx, site)
		if err != nil || got != uint32(i) {
			t.Fatalf("lost registration %s: site=%d err=%v", site, got, err)
		}
	}
	sites, _ := totalKeys(s)
	if sites != n {
		t.Fatalf("site count = %d, want %d (lost or duplicated across transitions)", sites, n)
	}
}

func TestShardedBlockedLookupReroutesAcrossTransition(t *testing.T) {
	// A lookup blocked on the key's owner must survive the key being
	// remapped mid-wait: the router cancels the stale wait and re-blocks
	// on the new owner, where the late registration lands.
	s := shardedForTest(1, 2)
	const key = "late-site"
	got := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _, err := s.LookupSite(ctx, key)
		got <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the lookup block
	// Two transitions move ownership around under the blocked wait.
	if err := s.SetMembers([]uint32{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetMembers([]uint32{3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterSite(context.Background(), key, 9, 1, 1); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("rerouted lookup failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked lookup hung across a shard-map transition")
	}
}

func TestShardedOneHopForwarding(t *testing.T) {
	// During a transition window an entry can still live on the key's
	// previous owner (e.g. a shard reached through a stale server-side
	// map). Plant one there directly and verify the router's one-hop
	// peek serves it instead of blocking.
	s := shardedForTest(1, 2)
	const key = "forwarded-site"
	if err := s.SetMembers([]uint32{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err) // creates prev (v1) / cur (v2)
	}
	s.mu.RLock()
	curOwner, _ := s.cur.Owner(key)
	prevOwner, _ := s.prev.Owner(key)
	s.mu.RUnlock()
	if curOwner == prevOwner {
		t.Skip("key did not move in this transition") // deterministic: never with these sets
	}
	s.shards[prevOwner].absorb(shardEntries{
		sites: map[string]siteEntry{key: {site: 3, node: 1, epoch: 1, lastBeat: time.Now()}},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	site, _, err := s.LookupSite(ctx, key)
	if err != nil || site != 3 {
		t.Fatalf("forwarded lookup: site=%d err=%v", site, err)
	}
	if s.Stats().Forwards != 1 {
		t.Fatalf("forwards = %d, want 1", s.Stats().Forwards)
	}
}

func TestShardedLeaseAndFencingSemantics(t *testing.T) {
	// The per-shard tables share one lease clock and one fence set:
	// TTL expiry, epoch supersede and node fencing must behave as on a
	// one-member ring.
	clk := &fakeShardClock{now: time.Unix(1000, 0)}
	s := NewSharded(ShardedConfig{Members: []uint32{1, 2, 3}, Vnodes: 16, LeaseTTL: time.Minute, Clock: clk})
	ctx := context.Background()
	if err := s.RegisterSite(ctx, "server", 7, 9, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterName(ctx, "server", "chat", 41, ""); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Minute)
	if _, _, err := s.LookupName(ctx, "server", "chat"); !errors.Is(err, ErrNameExpired) {
		t.Fatalf("lookup after expiry = %v, want ErrNameExpired", err)
	}
	if err := s.RegisterSite(ctx, "server", 7, 9, 2); err != nil {
		t.Fatal(err)
	}
	ref, _, err := s.LookupName(ctx, "server", "chat")
	if err != nil || ref != (vm.NetRef{Heap: 41, Site: 7, Node: 9}) {
		t.Fatalf("lookup after recovery: %v %v", ref, err)
	}
	if err := s.RegisterSite(ctx, "server", 7, 9, 1); err == nil {
		t.Fatal("stale-epoch re-registration accepted")
	}
	// Node 9 is not a ring member: fencing it must expire its entries
	// without a map transition.
	before := s.MapVersion()
	s.FenceNode(9)
	if s.MapVersion() != before {
		t.Fatalf("fencing a non-member bumped the map version")
	}
	if _, _, err := s.LookupSite(ctx, "server"); !errors.Is(err, ErrNameExpired) {
		t.Fatalf("lookup under fenced node = %v, want ErrNameExpired", err)
	}
	s.UnfenceNode(9)
	if _, _, err := s.LookupSite(ctx, "server"); err != nil {
		t.Fatalf("lookup after unfence: %v", err)
	}
}

func TestShardedNeverEvictsLastMember(t *testing.T) {
	s := shardedForTest(1, 2)
	const n = 50
	registerN(t, s, n)
	s.FenceNode(1)
	s.FenceNode(2) // would empty the ring: map must stay put
	if got := len(s.Stats().Members); got != 1 {
		t.Fatalf("live members = %d, want the last one retained", got)
	}
	// The retained ring still serves: the registrants (nodes 100+) are
	// alive, only the shard hosts were convicted, and their tables all
	// migrated to the survivor before its own conviction was ignored.
	lookupAll(t, s, n)
}

func TestShardedTCPShardMapAndVersions(t *testing.T) {
	// The protocol carries the map: every reply bears the version, and
	// opShardMap fetches a map that routes identically to the server's.
	s := shardedForTest(1, 2, 3)
	srv, err := NewServer(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	if err := cli.RegisterSite(ctx, "s", 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := cli.MapVersion(); got != 1 {
		t.Fatalf("client map version = %d, want 1 from the register reply", got)
	}
	m, err := cli.ShardMap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"s", "a", "b", "c"} {
		want, _ := s.cur.Owner(key)
		got, _ := m.Owner(key)
		if want != got {
			t.Fatalf("client map routes %q to %d, server to %d", key, got, want)
		}
	}
	// A transition bumps the version on the next reply and invalidates
	// the client's cached map.
	if err := s.SetMembers([]uint32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.LookupSite(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	if got := cli.MapVersion(); got != 2 {
		t.Fatalf("client map version after transition = %d, want 2", got)
	}
	m2, err := cli.ShardMap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version != 2 {
		t.Fatalf("refetched map version = %d, want 2", m2.Version)
	}
}

func TestBlockedLookupsHoldNoGoroutines(t *testing.T) {
	// A blocked lookup waits in its caller's goroutine: n blocked
	// callers cost n goroutines, not n callers plus n helpers.
	s := shardedForTest(1, 2, 3)
	const n = 1000
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, n)
	var started sync.WaitGroup
	started.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			started.Done()
			_, _, err := s.LookupName(ctx, fmt.Sprintf("site-%d", i), "x")
			errs <- err
		}(i)
	}
	// A helper would appear as soon as its caller misses; give the
	// callers a moment to reach the wait before counting.
	started.Wait()
	time.Sleep(50 * time.Millisecond)
	if grown := runtime.NumGoroutine() - base; grown > n+50 {
		t.Fatalf("%d blocked lookups grew the goroutine count by %d, want at most %d", n, grown, n+50)
	}
	if len(errs) != 0 {
		t.Fatalf("lookup returned before any export: %v", <-errs)
	}
	cancel()
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled lookup = %v, want a wrapped context.Canceled", err)
		}
	}
}

func TestSatisfiedLookupAllocBudget(t *testing.T) {
	// The import path's common case — the export is already there —
	// allocates nothing on any ring shape.
	ctx := context.Background()
	for _, members := range [][]uint32{nil, {1, 2, 3}} {
		s := NewSharded(ShardedConfig{Members: members})
		registerN(t, s, 10)
		testutil.CheckAllocs(t, fmt.Sprintf("satisfied LookupName on members %v", members), 0, 1000, func() {
			if _, _, err := s.LookupName(ctx, "site-7", "x"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

type fakeShardClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeShardClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeShardClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}
