package nameservice

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vm"
)

// countingSvc wraps a Service and counts lookups that reach it — the
// witness for what the cache absorbed. It forwards MapSource when the
// inner service provides one.
type countingSvc struct {
	Service
	lookups atomic.Uint64
}

func (c *countingSvc) LookupSite(ctx context.Context, name string) (uint32, uint32, error) {
	c.lookups.Add(1)
	return c.Service.LookupSite(ctx, name)
}

func (c *countingSvc) LookupName(ctx context.Context, siteName, id string) (vm.NetRef, string, error) {
	c.lookups.Add(1)
	return c.Service.LookupName(ctx, siteName, id)
}

func (c *countingSvc) LookupClass(ctx context.Context, siteName, class string) (vm.NetClass, string, error) {
	c.lookups.Add(1)
	return c.Service.LookupClass(ctx, siteName, class)
}

func (c *countingSvc) MapVersion() uint64 {
	if src, ok := c.Service.(MapSource); ok {
		return src.MapVersion()
	}
	return 0
}

func (c *countingSvc) ShardMap(ctx context.Context) (*ShardMap, error) {
	if src, ok := c.Service.(MapSource); ok {
		return src.ShardMap(ctx)
	}
	return nil, errors.New("no map")
}

func TestCacheServesHitsWithoutService(t *testing.T) {
	clk := &fakeShardClock{now: time.Unix(1000, 0)}
	inner := &countingSvc{Service: NewSharded(ShardedConfig{})}
	cache := NewCache(inner, CacheConfig{TTL: time.Minute, Clock: clk})
	ctx := context.Background()
	if err := cache.RegisterSite(ctx, "s", 1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := cache.RegisterName(ctx, "s", "x", 7, "sig"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ref, sig, err := cache.LookupName(ctx, "s", "x")
		if err != nil || ref.Heap != 7 || sig != "sig" {
			t.Fatalf("lookup %d: %v %q %v", i, ref, sig, err)
		}
	}
	if got := inner.lookups.Load(); got != 1 {
		t.Fatalf("service saw %d lookups, want 1 (cache must serve the rest)", got)
	}
	st := cache.Stats()
	if st.Hits != 9 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 9 hits / 1 miss", st)
	}
	if r := st.HitRatio(); r < 0.89 || r > 0.91 {
		t.Fatalf("hit ratio = %v, want 0.9", r)
	}
	// TTL expiry: past the TTL the entry refetches.
	clk.advance(2 * time.Minute)
	if _, _, err := cache.LookupName(ctx, "s", "x"); err != nil {
		t.Fatal(err)
	}
	if got := inner.lookups.Load(); got != 2 {
		t.Fatalf("service saw %d lookups after TTL expiry, want 2", got)
	}
}

func TestCacheInvalidationTable(t *testing.T) {
	// The three invalidation rules from DESIGN.md §16, as a table.
	type env struct {
		clk   *fakeShardClock
		inner *countingSvc
		cache *Cache
		shard *Sharded
	}
	build := func(t *testing.T) *env {
		t.Helper()
		clk := &fakeShardClock{now: time.Unix(1000, 0)}
		shard := NewSharded(ShardedConfig{Members: []uint32{1, 2, 3}, Vnodes: 16, LeaseTTL: time.Hour, Clock: clk})
		inner := &countingSvc{Service: shard}
		cache := NewCache(inner, CacheConfig{TTL: 10 * time.Minute, NegTTL: time.Minute, Clock: clk})
		return &env{clk: clk, inner: inner, cache: cache, shard: shard}
	}
	ctx := context.Background()

	t.Run("epoch supersede beats cached entry", func(t *testing.T) {
		e := build(t)
		if err := e.cache.RegisterSite(ctx, "s", 1, 9, 1); err != nil {
			t.Fatal(err)
		}
		if site, _, err := e.cache.LookupSite(ctx, "s"); err != nil || site != 1 {
			t.Fatalf("first lookup: %d %v", site, err)
		}
		// The recovered incarnation re-registers at epoch 2 with a new
		// site id. The cached epoch-1 entry must not survive the write.
		if err := e.cache.RegisterSite(ctx, "s", 5, 9, 2); err != nil {
			t.Fatal(err)
		}
		site, _, err := e.cache.LookupSite(ctx, "s")
		if err != nil || site != 5 {
			t.Fatalf("lookup after supersede = %d %v, want the epoch-2 site", site, err)
		}
	})

	t.Run("negative entry expires on re-register", func(t *testing.T) {
		e := build(t)
		if err := e.cache.RegisterSite(ctx, "s", 1, 9, 1); err != nil {
			t.Fatal(err)
		}
		if err := e.cache.RegisterName(ctx, "s", "x", 7, ""); err != nil {
			t.Fatal(err)
		}
		e.clk.advance(2 * time.Hour) // lease lapses server-side
		if _, _, err := e.cache.LookupName(ctx, "s", "x"); !errors.Is(err, ErrNameExpired) {
			t.Fatalf("expired lookup = %v", err)
		}
		// The verdict is negatively cached: repeats fail fast locally.
		before := e.inner.lookups.Load()
		if _, _, err := e.cache.LookupName(ctx, "s", "x"); !errors.Is(err, ErrNameExpired) {
			t.Fatalf("negative hit = %v", err)
		}
		if e.inner.lookups.Load() != before {
			t.Fatal("negative entry did not serve locally")
		}
		if e.cache.Stats().NegHits == 0 {
			t.Fatal("no negative hits recorded")
		}
		// Recovery re-registers at a higher epoch: the negative entry
		// must die with the write, not linger for NegTTL.
		if err := e.cache.RegisterSite(ctx, "s", 1, 9, 2); err != nil {
			t.Fatal(err)
		}
		ref, _, err := e.cache.LookupName(ctx, "s", "x")
		if err != nil || ref.Heap != 7 {
			t.Fatalf("lookup after recovery = %v %v, want the kept export", ref, err)
		}
	})

	t.Run("negative entry expires by NegTTL", func(t *testing.T) {
		e := build(t)
		if err := e.cache.RegisterSite(ctx, "s", 1, 9, 1); err != nil {
			t.Fatal(err)
		}
		e.clk.advance(2 * time.Hour)
		if _, _, err := e.cache.LookupSite(ctx, "s"); !errors.Is(err, ErrNameExpired) {
			t.Fatalf("expired lookup = %v", err)
		}
		// Past NegTTL the verdict refetches; the site is still expired
		// server-side, so the error persists but the service is asked.
		before := e.inner.lookups.Load()
		e.clk.advance(2 * time.Minute)
		if _, _, err := e.cache.LookupSite(ctx, "s"); !errors.Is(err, ErrNameExpired) {
			t.Fatalf("refetched lookup = %v", err)
		}
		if e.inner.lookups.Load() != before+1 {
			t.Fatal("NegTTL-expired entry served locally")
		}
	})

	t.Run("map version bump flushes only moved key ranges", func(t *testing.T) {
		e := build(t)
		const n = 60
		for i := 0; i < n; i++ {
			site := fmt.Sprintf("site-%d", i)
			if err := e.cache.RegisterSite(ctx, site, uint32(i), 1, 1); err != nil {
				t.Fatal(err)
			}
			if site2, _, err := e.cache.LookupSite(ctx, site); err != nil || site2 != uint32(i) {
				t.Fatalf("warm %s: %d %v", site, site2, err)
			}
		}
		old, _ := e.shard.ShardMap(ctx)
		if err := e.shard.SetMembers([]uint32{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		next, _ := e.shard.ShardMap(ctx)
		before := e.inner.lookups.Load()
		var moved, stayed int
		for i := 0; i < n; i++ {
			site := fmt.Sprintf("site-%d", i)
			calls := e.inner.lookups.Load()
			if s2, _, err := e.cache.LookupSite(ctx, site); err != nil || s2 != uint32(i) {
				t.Fatalf("post-transition %s: %d %v", site, s2, err)
			}
			refetched := e.inner.lookups.Load() > calls
			if Moved(old, next, site) {
				moved++
				if !refetched {
					t.Fatalf("moved key %s served from cache after the version bump", site)
				}
			} else {
				stayed++
				if refetched {
					t.Fatalf("unmoved key %s was flushed by the version bump", site)
				}
			}
		}
		if moved == 0 || stayed == 0 {
			t.Fatalf("degenerate transition: moved=%d stayed=%d", moved, stayed)
		}
		if e.cache.Stats().Flushed == 0 || e.inner.lookups.Load()-before != uint64(moved) {
			t.Fatalf("flushed=%d refetches=%d moved=%d", e.cache.Stats().Flushed, e.inner.lookups.Load()-before, moved)
		}
	})
}

func TestCacheConcurrentAccess(t *testing.T) {
	// Races between lookups, registrations, and map transitions: run
	// under -race in the lint lane.
	shard := NewSharded(ShardedConfig{Members: []uint32{1, 2}, Vnodes: 8})
	cache := NewCache(shard, CacheConfig{TTL: time.Second})
	ctx := context.Background()
	const n = 100
	for i := 0; i < n; i++ {
		if err := cache.RegisterSite(ctx, fmt.Sprintf("s%d", i), uint32(i), 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				site := fmt.Sprintf("s%d", (i*7+w)%n)
				if got, _, err := cache.LookupSite(ctx, site); err != nil {
					t.Errorf("lookup %s: %v", site, err)
					return
				} else if want := uint32((i*7 + w) % n); got != want {
					t.Errorf("lookup %s = %d, want %d", site, got, want)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, ms := range [][]uint32{{1, 2, 3}, {1, 2}, {2, 3}, {1, 2, 3, 4}} {
			_ = shard.SetMembers(ms)
		}
	}()
	wg.Wait()
}
