package nameservice

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vm"
)

// Sharded is the name-service authority (DESIGN.md §16): the
// namespace partitioned across N ≥ 1 ring members by consistent
// hashing, one lease table per live member, every call routed by the
// site name's position on the hash circle. One member (the default) is
// the paper's centralized service. Membership feeds the ring: when
// gossip convicts a node (FenceNode), the member is evicted, the map
// version bumps, and its key ranges migrate synchronously to the
// surviving owners under the transition lock, so a rebalance can never
// lose or duplicate a registration.
//
// The whole structure is location-transparent to callers — it is a
// plain Service — which is what lets the shard map change underneath
// running imports without an API change.

// ErrNoShards is returned when the ring has no live member to route
// to. It cannot happen in a correctly configured service (the last
// live member is never evicted) and exists as a defensive verdict.
var ErrNoShards = errors.New("nameservice: no live shard members")

// MapSource is implemented by services that carry a shard map: the
// authority itself, and the TCP client, which learns the map version
// from every reply and fetches the full map on demand. The client-side
// cache uses it to flush exactly the key ranges a new map version
// moved, and the breaker to pick a key's circuit.
type MapSource interface {
	// MapVersion returns the latest shard-map version observed.
	MapVersion() uint64
	// ShardMap returns the current shard map.
	ShardMap(ctx context.Context) (*ShardMap, error)
}

// ShardedConfig configures the authority. The zero value of any field
// selects its default.
type ShardedConfig struct {
	// Members are the shard-owning node ids (default: a single member,
	// id 1 — the centralized service).
	Members []uint32
	// Vnodes is the virtual-node count per member (default DefaultVnodes).
	Vnodes int
	// LeaseTTL enables lease expiry on every shard (0 = registrations
	// live forever, as in the paper's first implementation).
	LeaseTTL time.Duration
	// Clock overrides the lease clock (tests).
	Clock Clock
}

// ShardKeyCounts is one shard's table sizes.
type ShardKeyCounts struct {
	Sites, Names, Classes int
}

// Total returns the shard's key count across all tables.
func (c ShardKeyCounts) Total() int { return c.Sites + c.Names + c.Classes }

// ShardedStats is an introspection snapshot of the authority.
type ShardedStats struct {
	MapVersion  uint64
	Members     []uint32 // live ring members
	Transitions uint64   // shard-map version bumps
	Forwards    uint64   // lookups served by the previous owner (one-hop)
	Migrated    uint64   // entries moved between shards by rebalances
	ShardKeys   map[uint32]ShardKeyCounts
}

// Sharded is the consistent-hash-sharded authority.
type Sharded struct {
	vnodes   int
	leaseTTL time.Duration
	now      func() time.Time

	mu      sync.RWMutex
	cur     *ShardMap
	prev    *ShardMap     // retained one transition for forwarding
	gen     chan struct{} // closed and replaced on every map change
	shards  map[uint32]*table
	members []uint32 // configured member set; ring = members − fenced
	fenced  map[uint32]bool

	epMu      sync.Mutex
	endpoints map[endpointKey]string

	transitions atomic.Uint64
	forwards    atomic.Uint64
	migrated    atomic.Uint64
}

type endpointKey struct {
	kind string
	node uint32
}

var (
	_ Service   = (*Sharded)(nil)
	_ MapSource = (*Sharded)(nil)
)

// NewSharded builds the authority.
func NewSharded(cfg ShardedConfig) *Sharded {
	if len(cfg.Members) == 0 {
		cfg.Members = []uint32{1}
	}
	if cfg.Vnodes <= 0 {
		cfg.Vnodes = DefaultVnodes
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	s := &Sharded{
		vnodes:    cfg.Vnodes,
		leaseTTL:  cfg.LeaseTTL,
		now:       cfg.Clock.Now,
		gen:       make(chan struct{}),
		shards:    map[uint32]*table{},
		fenced:    map[uint32]bool{},
		endpoints: map[endpointKey]string{},
	}
	s.cur = NewShardMap(1, cfg.Members, cfg.Vnodes)
	s.members = append([]uint32(nil), s.cur.Members...)
	for _, m := range s.cur.Members {
		s.shards[m] = s.newShard()
	}
	return s
}

func (s *Sharded) newShard() *table {
	t := newTable(s.leaseTTL, s.now)
	// A shard created mid-life (member join) inherits the node fences
	// already in force.
	for node := range s.fenced {
		t.fenced[node] = true
	}
	return t
}

// MapVersion implements MapSource.
func (s *Sharded) MapVersion() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cur.Version
}

// ShardMap implements MapSource.
func (s *Sharded) ShardMap(context.Context) (*ShardMap, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cur, nil
}

// Stats returns an introspection snapshot.
func (s *Sharded) Stats() ShardedStats {
	s.mu.RLock()
	st := ShardedStats{
		MapVersion:  s.cur.Version,
		Members:     append([]uint32(nil), s.cur.Members...),
		Transitions: s.transitions.Load(),
		Forwards:    s.forwards.Load(),
		Migrated:    s.migrated.Load(),
		ShardKeys:   make(map[uint32]ShardKeyCounts, len(s.shards)),
	}
	shards := make(map[uint32]*table, len(s.shards))
	for m, sh := range s.shards {
		shards[m] = sh
	}
	s.mu.RUnlock()
	for m, sh := range shards {
		sites, names, classes := sh.counts()
		st.ShardKeys[m] = ShardKeyCounts{Sites: sites, Names: names, Classes: classes}
	}
	return st
}

// SetMembers resizes the ring to the given member set (operator
// resize, E17's join/leave phases). Key ranges whose owner changes
// migrate synchronously before the new map is published.
func (s *Sharded) SetMembers(members []uint32) error {
	if len(members) == 0 {
		return fmt.Errorf("nameservice: sharded member set must not be empty")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := map[uint32]bool{}
	ms := make([]uint32, 0, len(members))
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			ms = append(ms, m)
		}
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	s.members = ms
	s.retargetLocked()
	return nil
}

// FenceNode is the membership layer's Dead or Left verdict on node:
// every site entry the node registered reads expired in every shard —
// importers fail fast with ErrNameExpired instead of waiting out the
// lease TTL — until a higher-epoch re-registration from an adopting
// node supersedes it, or UnfenceNode lifts the fence. A fenced ring
// member is also evicted from the shard map. The last live member is
// never evicted — an empty ring serves nobody, and the per-shard
// fences already make the dead node's entries read expired.
func (s *Sharded) FenceNode(node uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fenced[node] {
		return
	}
	s.fenced[node] = true
	for _, sh := range s.shards {
		sh.fence(node)
	}
	s.retargetLocked()
}

// UnfenceNode lifts a fence (a refuted suspicion or a rejoin). A
// configured member rejoins the ring and reclaims its key ranges.
func (s *Sharded) UnfenceNode(node uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.fenced[node] {
		return
	}
	delete(s.fenced, node)
	for _, sh := range s.shards {
		sh.unfence(node)
	}
	s.retargetLocked()
}

// retargetLocked rebuilds the ring over the live (unfenced) members
// and rebalances if ownership changed. Caller holds s.mu.
func (s *Sharded) retargetLocked() {
	live := make([]uint32, 0, len(s.members))
	for _, m := range s.members {
		if !s.fenced[m] {
			live = append(live, m)
		}
	}
	if len(live) == 0 {
		// Keep the last map rather than publish an unroutable ring;
		// every entry already reads expired through the node fences.
		return
	}
	if sameMembers(live, s.cur.Members) {
		return
	}
	s.rebalanceLocked(NewShardMap(s.cur.Version+1, live, s.vnodes))
}

func sameMembers(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rebalanceLocked migrates every entry whose owner changes under next
// and publishes it. Running under the write lock means no
// registration can race the move (writes hold the read lock across
// their shard write): the transition is atomic with respect to the
// namespace — zero lost, zero duplicated registrations. Caller holds
// s.mu.
func (s *Sharded) rebalanceLocked(next *ShardMap) {
	for _, m := range next.Members {
		if s.shards[m] == nil {
			s.shards[m] = s.newShard()
		}
	}
	inbound := map[uint32]shardEntries{}
	for owner, shard := range s.shards {
		out := shard.extract(func(site string) bool {
			no, ok := next.Owner(site)
			return !ok || no != owner
		})
		if out.empty() {
			continue
		}
		for name, e := range out.sites {
			no, _ := next.Owner(name)
			batchFor(inbound, no).sites[name] = e
		}
		for k, e := range out.names {
			no, _ := next.Owner(k.site)
			batchFor(inbound, no).names[k] = e
		}
		for k, e := range out.classes {
			no, _ := next.Owner(k.site)
			batchFor(inbound, no).classes[k] = e
		}
	}
	var moved uint64
	for owner, batch := range inbound {
		moved += uint64(len(batch.sites) + len(batch.names) + len(batch.classes))
		s.shards[owner].absorb(batch)
	}
	s.migrated.Add(moved)
	s.prev = s.cur
	s.cur = next
	s.transitions.Add(1)
	close(s.gen)
	s.gen = make(chan struct{})
}

func batchFor(m map[uint32]shardEntries, owner uint32) shardEntries {
	b, ok := m[owner]
	if !ok {
		b = newShardEntries()
		m[owner] = b
	}
	return b
}

// withOwner routes a write to the key's current owner. Holding the
// read lock across the shard write is what makes rebalances atomic:
// a transition (write lock) cannot interleave with a half-applied
// registration.
func (s *Sharded) withOwner(key string, f func(*table) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	owner, ok := s.cur.Owner(key)
	if !ok {
		return ErrNoShards
	}
	return f(s.shards[owner])
}

// RegisterSite implements Service (routed by site name).
func (s *Sharded) RegisterSite(_ context.Context, name string, site, node, epoch uint32) error {
	return s.withOwner(name, func(t *table) error {
		return t.registerSite(name, site, node, epoch)
	})
}

// RegisterName implements Service (routed by site name).
func (s *Sharded) RegisterName(_ context.Context, siteName, id string, heap uint32, sig string) error {
	return s.withOwner(siteName, func(t *table) error {
		return t.registerName(siteName, id, heap, sig)
	})
}

// RegisterClass implements Service (routed by site name).
func (s *Sharded) RegisterClass(_ context.Context, siteName, class string, sig string) error {
	return s.withOwner(siteName, func(t *table) error {
		return t.registerClass(siteName, class, sig)
	})
}

// KeepAlive implements Service (routed by site name).
func (s *Sharded) KeepAlive(_ context.Context, siteName string, epoch uint32) error {
	return s.withOwner(siteName, func(t *table) error {
		return t.keepAlive(siteName, epoch)
	})
}

// RegisterEndpoint implements Service. Endpoints are node-level
// metadata, a handful of entries per cluster — they stay unsharded.
func (s *Sharded) RegisterEndpoint(_ context.Context, node uint32, kind, addr string) error {
	if kind == "" {
		return fmt.Errorf("nameservice: endpoint registration with empty kind")
	}
	s.epMu.Lock()
	defer s.epMu.Unlock()
	s.endpoints[endpointKey{kind: kind, node: node}] = addr
	return nil
}

// Endpoints implements Service.
func (s *Sharded) Endpoints(_ context.Context, kind string) (map[uint32]string, error) {
	s.epMu.Lock()
	defer s.epMu.Unlock()
	out := map[uint32]string{}
	for k, addr := range s.endpoints {
		if k.kind == kind {
			out[k.node] = addr
		}
	}
	return out, nil
}

// route resolves a key to its owner's table, the previous owner's
// table when the last transition moved the key (the forwarding
// target), and the channel that closes on the next map change — all
// under one read lock, so a transition after route always wakes a
// caller that goes on to wait.
func (s *Sharded) route(key string) (owner, prev *table, mapGen <-chan struct{}, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.cur.Owner(key)
	if !ok {
		return nil, nil, nil, ErrNoShards
	}
	if s.prev != nil {
		if po, pok := s.prev.Owner(key); pok && po != o {
			prev = s.shards[po] // may be nil if the member is gone
		}
	}
	return s.shards[o], prev, s.gen, nil
}

// lookup is the blocking lookup behind LookupSite, LookupName and
// LookupClass. It peeks the key's owner, then its previous owner
// (one-hop forwarding: during a transition an entry is reachable
// wherever it last lived). On a miss the caller itself waits — no
// helper goroutine — until the owner's table changes (its generation
// channel was read under the same lock as the peek, so no
// registration slips between check and wait), the shard map changes,
// or ctx ends; then it re-routes and peeks again. It fails with bare
// ErrNameExpired or ctx's error; lookupErr words them.
func lookup[T any](ctx context.Context, s *Sharded, key string, peek func(*table) (T, peekState, <-chan struct{})) (T, error) {
	for {
		owner, prev, mapGen, err := s.route(key)
		if err != nil {
			var zero T
			return zero, err
		}
		v, st, gen := peek(owner)
		if st == peekMiss && prev != nil {
			if v, st, _ = peek(prev); st == peekHit {
				s.forwards.Add(1)
			}
		}
		switch st {
		case peekHit:
			return v, nil
		case peekExpired:
			return v, ErrNameExpired
		}
		select {
		case <-gen:
		case <-mapGen:
		case <-ctx.Done():
			return v, ctx.Err()
		}
	}
}

// lookupErr words a failed lookup of subject.
func lookupErr(err error, subject string) error {
	if err == ErrNameExpired {
		return fmt.Errorf("%w: %s", ErrNameExpired, subject)
	}
	return fmt.Errorf("nameservice: lookup %s: %w", subject, err)
}

// LookupSite implements Service.
func (s *Sharded) LookupSite(ctx context.Context, name string) (uint32, uint32, error) {
	type pair struct{ site, node uint32 }
	p, err := lookup(ctx, s, name, func(t *table) (pair, peekState, <-chan struct{}) {
		site, node, st, gen := t.peekSite(name)
		return pair{site, node}, st, gen
	})
	if err != nil {
		return 0, 0, lookupErr(err, fmt.Sprintf("site %q", name))
	}
	return p.site, p.node, nil
}

// LookupName implements Service.
func (s *Sharded) LookupName(ctx context.Context, siteName, id string) (vm.NetRef, string, error) {
	type res struct {
		ref vm.NetRef
		sig string
	}
	r, err := lookup(ctx, s, siteName, func(t *table) (res, peekState, <-chan struct{}) {
		ref, sig, st, gen := t.peekName(siteName, id)
		return res{ref, sig}, st, gen
	})
	if err != nil {
		return vm.NetRef{}, "", lookupErr(err, siteName+"."+id)
	}
	return r.ref, r.sig, nil
}

// LookupClass implements Service.
func (s *Sharded) LookupClass(ctx context.Context, siteName, class string) (vm.NetClass, string, error) {
	type res struct {
		nc  vm.NetClass
		sig string
	}
	r, err := lookup(ctx, s, siteName, func(t *table) (res, peekState, <-chan struct{}) {
		nc, sig, st, gen := t.peekClass(siteName, class)
		return res{nc, sig}, st, gen
	})
	if err != nil {
		return vm.NetClass{}, "", lookupErr(err, "class "+siteName+"."+class)
	}
	return r.nc, r.sig, nil
}

// Dump lists every shard's tables (tyconame prints it on shutdown).
func (s *Sharded) Dump() string {
	s.mu.RLock()
	version := s.cur.Version
	members := append([]uint32(nil), s.cur.Members...)
	shards := make(map[uint32]*table, len(s.shards))
	for m, sh := range s.shards {
		shards[m] = sh
	}
	s.mu.RUnlock()
	var b strings.Builder
	fmt.Fprintf(&b, "shard map v%d members %v\n", version, members)
	for _, m := range members {
		fmt.Fprintf(&b, "-- shard %d --\n%s", m, shards[m].dump())
	}
	return b.String()
}
