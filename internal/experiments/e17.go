package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nameservice"
)

// E17 — consistent-hash-sharded name service under million-name churn
// (DESIGN.md §16).
//
// The drill stands up the full NS stack the cluster runs — a sharded
// authority, and per-client Cache(Breaker(…)) decorator chains —
// and pushes it through three phases:
//
//  1. load: register S sites × K names each (1M names full scale, 50k
//     quick) through the client stacks, measuring registration rate;
//  2. skewed lookups: 95% of traffic against a 1% hot set, the regime
//     client lease caches exist for — the aggregate hit ratio must
//     clear 90%;
//  3. churn: concurrent registration churn (new names, epoch-
//     superseding site re-registrations) while ring membership changes
//     under it — a member joins, one is convicted (fenced) and later
//     rejoins, then an operator resize restores the original ring.
//
// The experiment hard-fails, rather than just reporting, on the three
// invariants the ns-stress CI lane gates: lost or duplicated
// registrations across shard-map transitions (per-shard key counts
// must sum exactly), a cache serving a stale entry after an
// epoch-superseding write through it, and circuit-breaker flaps on a
// healthy in-process service.
func E17(o Options) (*Table, error) {
	const (
		namesPer = 10
		workers  = 8
	)
	sites := o.scale(100_000, 5_000) // × namesPer names = 1M full, 50k quick
	lookups := 2 * sites * namesPer  // skewed-phase lookup count
	churnOps := o.scale(200_000, 20_000)
	seed := o.seed(17)

	baseMembers := []uint32{1, 2, 3, 4}
	shard := nameservice.NewSharded(nameservice.ShardedConfig{Members: baseMembers})
	ctx := context.Background()

	// One decorator chain per worker: a private lease cache over a
	// private per-shard breaker over the shared authority — the same
	// stack core.ClusterConfig{NSShards, NSCache, NSBreaker} gives a
	// node. Registrant node ids (100+w) are disjoint from ring member
	// ids, so fencing a ring member never expires the drill's entries.
	clients := make([]*nameservice.Cache, workers)
	for w := range clients {
		clients[w] = nameservice.NewCache(
			nameservice.NewBreaker(shard, nameservice.BreakerConfig{}),
			nameservice.CacheConfig{TTL: 10 * time.Minute},
		)
	}

	siteName := func(i int) string { return fmt.Sprintf("site-%d", i) }
	nameID := func(j int) string { return fmt.Sprintf("n%d", j) }
	heapOf := func(i, j int) uint32 { return uint32(i*namesPer+j) + 1 }

	// expected[i] is site-i's current site id; epochs[i] its epoch.
	// Only the owning worker (i % workers) writes either, so the churn
	// phase needs no locks around them.
	expected := make([]uint32, sites)
	epochs := make([]uint32, sites)

	t := &Table{
		ID:     "E17",
		Title:  "sharded name service: million-name load, skewed lookups, membership churn",
		Header: []string{"phase", "ops", "elapsed", "ops/s", "detail"},
		Notes: []string{
			fmt.Sprintf("%d sites x %d names across %d initial shards; %d client cache stacks", sites, namesPer, len(baseMembers), workers),
			"churn phase runs a join, a conviction (fence), a rejoin, and a resize under live writes",
			"hard-fails on lost/duplicated registrations, stale cache serves, or breaker flaps",
		},
	}
	row := func(phase string, ops int, d time.Duration, detail string) float64 {
		perSec := float64(ops) / d.Seconds()
		t.Rows = append(t.Rows, []string{phase, fmt.Sprintf("%d", ops), fmt.Sprintf("%.2fs", d.Seconds()), fmt.Sprintf("%.0f", perSec), detail})
		return perSec
	}

	// Phase 1 — load.
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli := clients[w]
			node := uint32(100 + w)
			for i := w; i < sites; i += workers {
				expected[i] = uint32(i)
				epochs[i] = 1
				if err := cli.RegisterSite(ctx, siteName(i), uint32(i), node, 1); err != nil {
					errCh <- fmt.Errorf("register %s: %w", siteName(i), err)
					return
				}
				for j := 0; j < namesPer; j++ {
					if err := cli.RegisterName(ctx, siteName(i), nameID(j), heapOf(i, j), "sig"); err != nil {
						errCh <- fmt.Errorf("register %s.%s: %w", siteName(i), nameID(j), err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, fmt.Errorf("E17 load: %w", err)
	default:
	}
	registers := sites * (1 + namesPer)
	registerRate := row("load", registers, time.Since(start), fmt.Sprintf("map v%d", shard.MapVersion()))

	// Phase 2 — skewed lookups. 95% of traffic goes to a 1% hot set;
	// the caches must absorb it.
	hotSites := sites / 100
	if hotSites < 1 {
		hotSites = 1
	}
	start = time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli := clients[w]
			rng := rand.New(rand.NewSource(int64(seed) + int64(w)))
			for n := 0; n < lookups/workers; n++ {
				i := rng.Intn(sites)
				if rng.Intn(100) < 95 {
					i = rng.Intn(hotSites)
				}
				j := rng.Intn(namesPer)
				ref, _, err := cli.LookupName(ctx, siteName(i), nameID(j))
				if err != nil {
					errCh <- fmt.Errorf("lookup %s.%s: %w", siteName(i), nameID(j), err)
					return
				}
				if ref.Heap != heapOf(i, j) {
					errCh <- fmt.Errorf("lookup %s.%s: heap %d, want %d", siteName(i), nameID(j), ref.Heap, heapOf(i, j))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, fmt.Errorf("E17 skewed lookups: %w", err)
	default:
	}
	lookupElapsed := time.Since(start)
	var hits, negHits, misses uint64
	for _, cli := range clients {
		st := cli.Stats()
		hits += st.Hits
		negHits += st.NegHits
		misses += st.Misses
	}
	hitRatio := float64(hits+negHits) / float64(hits+negHits+misses)
	lookupRate := row("skewed lookups", (lookups/workers)*workers, lookupElapsed, fmt.Sprintf("cache hit ratio %.3f", hitRatio))

	// Phase 3 — churn under membership transitions. A controller fires
	// the ring changes at fixed fractions of churn progress, so the
	// schedule scales with the workload instead of wall clock.
	var (
		opsDone     atomic.Uint64
		staleServes atomic.Uint64
		newNames    atomic.Uint64
	)
	stopCtl := make(chan struct{})
	ctlDone := make(chan struct{})
	go func() {
		defer close(ctlDone)
		steps := []struct {
			frac float64
			act  func()
		}{
			{0.20, func() { _ = shard.SetMembers([]uint32{1, 2, 3, 4, 5}) }}, // join
			{0.40, func() { shard.FenceNode(3) }},                            // conviction
			{0.60, func() { shard.UnfenceNode(3) }},                          // rejoin
			{0.80, func() { _ = shard.SetMembers(baseMembers) }},             // resize back
		}
		for _, s := range steps {
			for float64(opsDone.Load()) < s.frac*float64(churnOps) {
				select {
				case <-stopCtl:
					return
				case <-time.After(time.Millisecond):
				}
			}
			s.act()
		}
	}()
	start = time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli := clients[w]
			node := uint32(100 + w)
			rng := rand.New(rand.NewSource(int64(seed) + 1000 + int64(w)))
			for n := 0; n < churnOps/workers; n++ {
				opsDone.Add(1)
				switch op := rng.Intn(10); {
				case op < 6: // lookup anywhere; value checks only where coherent
					i := rng.Intn(sites)
					if _, _, err := cli.LookupSite(ctx, siteName(i)); err != nil {
						errCh <- fmt.Errorf("churn lookup %s: %w", siteName(i), err)
						return
					}
				case op < 9: // export a fresh name on an owned site
					i := w + workers*rng.Intn(sites/workers)
					id := fmt.Sprintf("x%d-%d", i, n)
					if err := cli.RegisterName(ctx, siteName(i), id, 1, ""); err != nil {
						errCh <- fmt.Errorf("churn register %s.%s: %w", siteName(i), id, err)
						return
					}
					newNames.Add(1)
				default: // epoch-superseding site re-registration (recovery)
					i := w + workers*rng.Intn(sites/workers)
					epochs[i]++
					expected[i] = uint32(i) + epochs[i]*uint32(sites)
					if err := cli.RegisterSite(ctx, siteName(i), expected[i], node, epochs[i]); err != nil {
						errCh <- fmt.Errorf("churn re-register %s: %w", siteName(i), err)
						return
					}
					// The write went through this cache: a stale serve
					// here is exactly what rule 2 (epoch supersede)
					// forbids.
					got, _, err := cli.LookupSite(ctx, siteName(i))
					if err != nil {
						errCh <- fmt.Errorf("churn readback %s: %w", siteName(i), err)
						return
					}
					if got != expected[i] {
						staleServes.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopCtl)
	<-ctlDone
	select {
	case err := <-errCh:
		return nil, fmt.Errorf("E17 churn: %w", err)
	default:
	}
	st := shard.Stats()
	churnRate := row("churn", churnOps, time.Since(start),
		fmt.Sprintf("map v%d, %d transitions, %d migrated, %d forwards", st.MapVersion, st.Transitions, st.Migrated, st.Forwards))

	// Invariants. Per-shard counts must sum exactly: a shortfall is a
	// lost registration, an excess a duplicate surviving in two shards.
	var gotSites, gotNames int
	for _, keys := range st.ShardKeys {
		gotSites += keys.Sites
		gotNames += keys.Names
	}
	wantNames := sites*namesPer + int(newNames.Load())
	lost := (sites - gotSites) + (wantNames - gotNames)
	var trips uint64
	for _, cli := range clients {
		in := nameservice.Inspect(cli)
		trips += in.BreakerTrips
	}

	// Sample validation against the authority: every probed name must
	// resolve with the payload it was registered under, every probed
	// site at its latest epoch's id.
	rng := rand.New(rand.NewSource(int64(seed) + 9999))
	var sampleErr error
	for n := 0; n < 1000 && sampleErr == nil; n++ {
		i, j := rng.Intn(sites), rng.Intn(namesPer)
		if ref, _, err := shard.LookupName(ctx, siteName(i), nameID(j)); err != nil {
			sampleErr = fmt.Errorf("sample %s.%s: %w", siteName(i), nameID(j), err)
		} else if ref.Heap != heapOf(i, j) {
			sampleErr = fmt.Errorf("sample %s.%s: heap %d, want %d", siteName(i), nameID(j), ref.Heap, heapOf(i, j))
		} else if got, _, err := shard.LookupSite(ctx, siteName(i)); err != nil || got != expected[i] {
			sampleErr = fmt.Errorf("sample %s: site %d err %v, want %d", siteName(i), got, err, expected[i])
		}
	}

	t.SetMetric("e17/names", float64(sites*namesPer))
	t.SetMetric("e17/register_msgs_per_sec", registerRate)
	t.SetMetric("e17/lookup_msgs_per_sec", lookupRate)
	t.SetMetric("e17/churn_msgs_per_sec", churnRate)
	t.SetMetric("e17/cache_hit_ratio", hitRatio)
	t.SetMetric("e17/transitions", float64(st.Transitions))
	t.SetMetric("e17/migrated", float64(st.Migrated))
	t.SetMetric("e17/forwards", float64(st.Forwards))
	t.SetMetric("e17/lost_registrations", float64(lost))
	t.SetMetric("e17/stale_serves", float64(staleServes.Load()))
	t.SetMetric("e17/breaker_trips", float64(trips))

	var fail []error
	if lost != 0 {
		fail = append(fail, fmt.Errorf("registration accounting off by %d (sites %d/%d, names %d/%d)", lost, gotSites, sites, gotNames, wantNames))
	}
	if s := staleServes.Load(); s != 0 {
		fail = append(fail, fmt.Errorf("%d stale cache serves after epoch-superseding writes", s))
	}
	if trips != 0 {
		fail = append(fail, fmt.Errorf("%d breaker trips on a healthy service", trips))
	}
	if st.Transitions < 4 {
		fail = append(fail, fmt.Errorf("only %d map transitions fired (controller wants 4)", st.Transitions))
	}
	if hitRatio < 0.90 {
		fail = append(fail, fmt.Errorf("cache hit ratio %.3f below the 0.90 floor", hitRatio))
	}
	if sampleErr != nil {
		fail = append(fail, sampleErr)
	}
	if len(fail) > 0 {
		return nil, fmt.Errorf("E17 invariants violated: %w", errors.Join(fail...))
	}
	return t, nil
}
