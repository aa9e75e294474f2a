package nameservice

import (
	"context"
	"errors"
	"time"

	"sync"

	"repro/internal/vm"
)

// Client-side lease cache (DESIGN.md §16). Every node talking to the
// name service resolves the same hot names over and over — the paper's
// import protocol consults the NS on every unresolved identifier — so
// a short-TTL cache in front of the Service absorbs the skewed bulk of
// lookups. Correctness comes from three invalidation rules, each tied
// to machinery that already exists:
//
//  1. TTL expiry: a positive entry is served for at most TTL (and a
//     negative one for NegTTL) — the same staleness bound the lease
//     tables themselves enforce server-side.
//  2. Epoch supersede: a registration routed through this cache (a
//     recovered incarnation re-registering at a higher epoch, a fresh
//     export) invalidates everything cached under that site name,
//     including negative entries, so the next lookup refetches.
//  3. Shard-map version bump: every NS reply carries the server's map
//     version. When it moves past the cached snapshot, the key ranges
//     whose owner changed between the two maps — and only those — are
//     flushed: a transition means membership changed, and the moved
//     ranges are exactly the entries whose authority just shifted.
//
// Negative entries are created only by ErrNameExpired verdicts (the
// exporter is presumed dead): they convert a thundering herd of doomed
// blocking lookups into fast local failures until re-registration or
// NegTTL unblocks them. A plain miss never caches — blocking-lookup
// semantics mean "not registered yet" is a wait, not a verdict.

// CacheConfig tunes a client lease cache. Zero values select defaults.
type CacheConfig struct {
	// TTL bounds how long a positive entry may be served (default 1s).
	TTL time.Duration
	// NegTTL bounds a negative (expired-name) entry (default TTL/4).
	NegTTL time.Duration
	// Clock overrides the cache clock (tests).
	Clock Clock
}

func (c CacheConfig) withDefaults() CacheConfig {
	if c.TTL <= 0 {
		c.TTL = time.Second
	}
	if c.NegTTL <= 0 {
		c.NegTTL = c.TTL / 4
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	return c
}

type cachedSite struct {
	site, node uint32
	exp        time.Time
}

type cachedName struct {
	ref vm.NetRef
	sig string
	exp time.Time
}

type cachedClass struct {
	nc  vm.NetClass
	sig string
	exp time.Time
}

// CacheStats is an introspection snapshot of a lease cache.
type CacheStats struct {
	Hits       uint64 // positive entries served
	NegHits    uint64 // negative entries served (fast ErrNameExpired)
	Misses     uint64 // lookups that went to the service
	Flushed    uint64 // entries evicted by shard-map version bumps
	Entries    int    // live entries across all tables
	MapVersion uint64 // latest shard-map version observed
}

// HitRatio is the fraction of lookups served locally.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.NegHits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.NegHits) / float64(total)
}

// Cache wraps a Service with a client-side lease cache. When the
// wrapped service is a MapSource (the authority, a TCP client, or a
// Breaker over either), shard-map version bumps selectively flush
// moved key ranges.
type Cache struct {
	inner Service
	src   MapSource // nil when inner has no shard map
	cfg   CacheConfig

	mu         sync.Mutex
	sites      map[string]cachedSite
	names      map[idKey]cachedName
	classes    map[idKey]cachedClass
	negSites   map[string]time.Time
	negNames   map[idKey]time.Time
	negClasses map[idKey]time.Time
	mapVersion uint64
	lastMap    *ShardMap // snapshot behind mapVersion (may lag nil)

	hits, negHits, misses, flushed uint64
}

var _ Service = (*Cache)(nil)

// NewCache wraps svc in a client lease cache.
func NewCache(svc Service, cfg CacheConfig) *Cache {
	c := &Cache{
		inner:      svc,
		cfg:        cfg.withDefaults(),
		sites:      map[string]cachedSite{},
		names:      map[idKey]cachedName{},
		classes:    map[idKey]cachedClass{},
		negSites:   map[string]time.Time{},
		negNames:   map[idKey]time.Time{},
		negClasses: map[idKey]time.Time{},
	}
	if src, ok := svc.(MapSource); ok {
		c.src = src
	}
	return c
}

// Unwrap returns the wrapped service (introspection walks the chain).
func (c *Cache) Unwrap() Service { return c.inner }

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:    c.hits,
		NegHits: c.negHits,
		Misses:  c.misses,
		Flushed: c.flushed,
		Entries: len(c.sites) + len(c.names) + len(c.classes) +
			len(c.negSites) + len(c.negNames) + len(c.negClasses),
		MapVersion: c.mapVersion,
	}
}

// MapVersion implements MapSource (pass-through).
func (c *Cache) MapVersion() uint64 {
	if c.src == nil {
		return 0
	}
	return c.src.MapVersion()
}

// ShardMap implements MapSource (pass-through).
func (c *Cache) ShardMap(ctx context.Context) (*ShardMap, error) {
	if c.src == nil {
		return nil, errors.New("nameservice: no shard map source")
	}
	return c.src.ShardMap(ctx)
}

func (c *Cache) dropAllLocked() {
	c.flushed += uint64(len(c.sites) + len(c.names) + len(c.classes))
	c.sites = map[string]cachedSite{}
	c.names = map[idKey]cachedName{}
	c.classes = map[idKey]cachedClass{}
	c.negSites = map[string]time.Time{}
	c.negNames = map[idKey]time.Time{}
	c.negClasses = map[idKey]time.Time{}
}

// maybeFlush folds a newly observed shard-map version into the cache:
// entries whose owner changed between the previous snapshot and the
// new map are evicted; everything else survives. Called after every
// inner call.
func (c *Cache) maybeFlush(ctx context.Context) {
	if c.src == nil {
		return
	}
	v := c.src.MapVersion()
	c.mu.Lock()
	stale := v > c.mapVersion
	c.mu.Unlock()
	if !stale {
		return
	}
	// Fetch outside the lock: against a TCP client this is a network
	// round trip.
	m, err := c.src.ShardMap(ctx)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil || m == nil {
		// Can't learn what moved: flush everything under the version
		// we observed so stale routing never serves.
		c.dropAllLocked()
		c.mapVersion = v
		c.lastMap = nil
		return
	}
	if m.Version <= c.mapVersion && c.lastMap != nil {
		return // raced with a concurrent flush that got a newer map
	}
	old := c.lastMap
	for k := range c.sites {
		if Moved(old, m, k) {
			delete(c.sites, k)
			c.flushed++
		}
	}
	for k := range c.names {
		if Moved(old, m, k.site) {
			delete(c.names, k)
			c.flushed++
		}
	}
	for k := range c.classes {
		if Moved(old, m, k.site) {
			delete(c.classes, k)
			c.flushed++
		}
	}
	for k := range c.negSites {
		if Moved(old, m, k) {
			delete(c.negSites, k)
		}
	}
	for k := range c.negNames {
		if Moved(old, m, k.site) {
			delete(c.negNames, k)
		}
	}
	for k := range c.negClasses {
		if Moved(old, m, k.site) {
			delete(c.negClasses, k)
		}
	}
	c.lastMap = m
	if m.Version > c.mapVersion {
		c.mapVersion = m.Version
	} else {
		c.mapVersion = v
	}
}

// invalidateSite drops everything cached under one site name (epoch
// supersede rule: a registration through this cache makes any cached
// view of that site suspect).
func (c *Cache) invalidateSite(siteName string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.sites, siteName)
	delete(c.negSites, siteName)
	for k := range c.names {
		if k.site == siteName {
			delete(c.names, k)
		}
	}
	for k := range c.classes {
		if k.site == siteName {
			delete(c.classes, k)
		}
	}
	for k := range c.negNames {
		if k.site == siteName {
			delete(c.negNames, k)
		}
	}
	for k := range c.negClasses {
		if k.site == siteName {
			delete(c.negClasses, k)
		}
	}
}

// maxEntries caps each cache table.
const maxEntries = 1 << 16

// put stores v under k. A full table first drops an arbitrary entry
// (Go map iteration order — effectively random, which is a fine
// victim policy for a short-TTL cache).
func put[K comparable, V any](m map[K]V, k K, v V) {
	if len(m) >= maxEntries {
		for old := range m {
			delete(m, old)
			break
		}
	}
	m[k] = v
}

// RegisterSite implements Service. The write passes through; success
// invalidates the site's cached entries (rule 2).
func (c *Cache) RegisterSite(ctx context.Context, name string, site, node, epoch uint32) error {
	err := c.inner.RegisterSite(ctx, name, site, node, epoch)
	if err == nil {
		c.invalidateSite(name)
	}
	c.maybeFlush(ctx)
	return err
}

// RegisterName implements Service.
func (c *Cache) RegisterName(ctx context.Context, siteName, id string, heap uint32, sig string) error {
	err := c.inner.RegisterName(ctx, siteName, id, heap, sig)
	if err == nil {
		c.mu.Lock()
		k := idKey{site: siteName, id: id}
		delete(c.names, k)
		delete(c.negNames, k)
		// A fresh export revives a site whose death verdict we cached.
		delete(c.negSites, siteName)
		c.mu.Unlock()
	}
	c.maybeFlush(ctx)
	return err
}

// RegisterClass implements Service.
func (c *Cache) RegisterClass(ctx context.Context, siteName, class string, sig string) error {
	err := c.inner.RegisterClass(ctx, siteName, class, sig)
	if err == nil {
		c.mu.Lock()
		k := idKey{site: siteName, id: class}
		delete(c.classes, k)
		delete(c.negClasses, k)
		delete(c.negSites, siteName)
		c.mu.Unlock()
	}
	c.maybeFlush(ctx)
	return err
}

// KeepAlive implements Service. A successful beat proves the site
// alive, so its negative entries drop.
func (c *Cache) KeepAlive(ctx context.Context, siteName string, epoch uint32) error {
	err := c.inner.KeepAlive(ctx, siteName, epoch)
	if err == nil {
		c.mu.Lock()
		delete(c.negSites, siteName)
		c.mu.Unlock()
	}
	c.maybeFlush(ctx)
	return err
}

// RegisterEndpoint implements Service (pass-through; endpoints are
// not cached — they are enumerated, not looked up on hot paths).
func (c *Cache) RegisterEndpoint(ctx context.Context, node uint32, kind, addr string) error {
	return c.inner.RegisterEndpoint(ctx, node, kind, addr)
}

// Endpoints implements Service (pass-through).
func (c *Cache) Endpoints(ctx context.Context, kind string) (map[uint32]string, error) {
	return c.inner.Endpoints(ctx, kind)
}

// LookupSite implements Service.
func (c *Cache) LookupSite(ctx context.Context, name string) (uint32, uint32, error) {
	c.maybeFlush(ctx) // fold in a version bump before serving from cache
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	if exp, ok := c.negSites[name]; ok {
		if now.Before(exp) {
			c.negHits++
			c.mu.Unlock()
			return 0, 0, &cachedExpiredError{msg: "site \"" + name + "\""}
		}
		delete(c.negSites, name)
	}
	if e, ok := c.sites[name]; ok {
		if now.Before(e.exp) {
			c.hits++
			c.mu.Unlock()
			return e.site, e.node, nil
		}
		delete(c.sites, name)
	}
	c.misses++
	ver := c.mapVersion
	c.mu.Unlock()

	site, node, err := c.inner.LookupSite(ctx, name)
	c.store(ver, func(now time.Time) {
		switch {
		case err == nil:
			put(c.sites, name, cachedSite{site: site, node: node, exp: now.Add(c.cfg.TTL)})
		case errors.Is(err, ErrNameExpired):
			put(c.negSites, name, now.Add(c.cfg.NegTTL))
		}
	})
	c.maybeFlush(ctx)
	return site, node, err
}

// LookupName implements Service.
func (c *Cache) LookupName(ctx context.Context, siteName, id string) (vm.NetRef, string, error) {
	c.maybeFlush(ctx)
	k := idKey{site: siteName, id: id}
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	if exp, ok := c.negNames[k]; ok {
		if now.Before(exp) {
			c.negHits++
			c.mu.Unlock()
			return vm.NetRef{}, "", &cachedExpiredError{msg: siteName + "." + id}
		}
		delete(c.negNames, k)
	}
	if e, ok := c.names[k]; ok {
		if now.Before(e.exp) {
			c.hits++
			c.mu.Unlock()
			return e.ref, e.sig, nil
		}
		delete(c.names, k)
	}
	c.misses++
	ver := c.mapVersion
	c.mu.Unlock()

	ref, sig, err := c.inner.LookupName(ctx, siteName, id)
	c.store(ver, func(now time.Time) {
		switch {
		case err == nil:
			put(c.names, k, cachedName{ref: ref, sig: sig, exp: now.Add(c.cfg.TTL)})
		case errors.Is(err, ErrNameExpired):
			put(c.negNames, k, now.Add(c.cfg.NegTTL))
		}
	})
	c.maybeFlush(ctx)
	return ref, sig, err
}

// LookupClass implements Service.
func (c *Cache) LookupClass(ctx context.Context, siteName, class string) (vm.NetClass, string, error) {
	c.maybeFlush(ctx)
	k := idKey{site: siteName, id: class}
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	if exp, ok := c.negClasses[k]; ok {
		if now.Before(exp) {
			c.negHits++
			c.mu.Unlock()
			return vm.NetClass{}, "", &cachedExpiredError{msg: "class " + siteName + "." + class}
		}
		delete(c.negClasses, k)
	}
	if e, ok := c.classes[k]; ok {
		if now.Before(e.exp) {
			c.hits++
			c.mu.Unlock()
			return e.nc, e.sig, nil
		}
		delete(c.classes, k)
	}
	c.misses++
	ver := c.mapVersion
	c.mu.Unlock()

	nc, sig, err := c.inner.LookupClass(ctx, siteName, class)
	c.store(ver, func(now time.Time) {
		switch {
		case err == nil:
			put(c.classes, k, cachedClass{nc: nc, sig: sig, exp: now.Add(c.cfg.TTL)})
		case errors.Is(err, ErrNameExpired):
			put(c.negClasses, k, now.Add(c.cfg.NegTTL))
		}
	})
	c.maybeFlush(ctx)
	return nc, sig, err
}

// store commits a lookup result obtained under map version ver. If a
// flush advanced the version while the call was in flight, the result
// may predate the transition — it is dropped rather than cached, so a
// stale routing snapshot can never be served after invalidation.
func (c *Cache) store(ver uint64, commit func(now time.Time)) {
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mapVersion != ver {
		return
	}
	commit(now)
}

// cachedExpiredError is the negative-hit verdict: errors.Is-compatible
// with ErrNameExpired without re-wrapping through fmt on a hot path.
type cachedExpiredError struct{ msg string }

func (e *cachedExpiredError) Error() string {
	return ErrNameExpired.Error() + ": " + e.msg + " (cached)"
}

func (e *cachedExpiredError) Is(target error) bool { return target == ErrNameExpired }

func (e *cachedExpiredError) Unwrap() error { return ErrNameExpired }
