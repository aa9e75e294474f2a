// Package nameservice implements the paper's Network Name Service
// (section 5): a registry that maps site names to (SiteId, IpAddress)
// pairs and exported identifiers to heap ids,
//
//	SiteTable: SiteName → SiteId × IpAddress
//	IdTable:   SiteName × IdName → HeapId
//
// plus a class table for exported class definitions. Lookups block
// until the corresponding export arrives, which is how an importing
// site waits for its exporter ("import consults the network name
// service to find the network reference for an imported identifier").
//
// The paper's first implementation is centralized with a location
// known in advance, and it names a distributed service as future work
// "for reasons of both redundancy (for failure recovery) and
// performance". Sharded is the one authority here: a single-member
// ring by default (the centralized service), or the namespace
// partitioned across N members by consistent hashing. Client carries
// it over TCP; Cache and Breaker are opt-in client-side decorators.
//
// Every registration carries a protocol signature (method labels and
// arities for names, parameter count for classes). Importers verify
// their intended use against it — the dynamic half of the paper's
// combined static/dynamic type checking scheme.
//
// Registrations are lease-based when the authority is built with a
// LeaseTTL: a site entry carries the registering incarnation's epoch
// and is kept alive by KeepAlive heartbeats. When the lease lapses (the
// site died), lookups under that site fail with ErrNameExpired instead
// of resolving to a corpse; a supervised restart re-registers under a
// higher epoch, atomically superseding the dead incarnation while
// keeping its exported names (heap ids are stable across deterministic
// replay, so importers never observe a gap).
package nameservice

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/vm"
)

// ErrNameExpired is returned (wrapped) by lookups whose site's lease
// has lapsed: the exporter is presumed dead and its entries are fenced
// until a higher-epoch re-registration revives them. Importers treat
// it as transient and retry within their deadline — recovery may be
// in progress.
var ErrNameExpired = errors.New("nameservice: name lease expired")

// Service is the name-service interface sites use. Registration calls
// take a context so callers against remote backends (the TCP client)
// bound how long they block; lookups additionally block until the
// export arrives or ctx expires.
type Service interface {
	// RegisterSite enters a site into the SiteTable. epoch is the
	// site incarnation: a higher epoch supersedes a previous
	// registration of the same name (crash recovery), a lower one is
	// rejected as a stale ghost.
	RegisterSite(ctx context.Context, name string, site, node, epoch uint32) error
	// LookupSite blocks until the site is registered.
	LookupSite(ctx context.Context, name string) (site, node uint32, err error)
	// RegisterName enters an exported identifier into the IdTable.
	// sig is the exporter's protocol signature (see Signature).
	RegisterName(ctx context.Context, siteName, id string, heap uint32, sig string) error
	// LookupName blocks until the identifier is exported and returns
	// its network reference and signature.
	LookupName(ctx context.Context, siteName, id string) (vm.NetRef, string, error)
	// RegisterClass enters an exported class into the class table.
	RegisterClass(ctx context.Context, siteName, class string, sig string) error
	// LookupClass blocks until the class is exported.
	LookupClass(ctx context.Context, siteName, class string) (vm.NetClass, string, error)
	// KeepAlive refreshes a site's lease. It fails for an unknown site
	// and for an epoch below the registered one (a stale pre-crash
	// incarnation must not keep its successor's entry alive — and must
	// learn it has been superseded).
	KeepAlive(ctx context.Context, siteName string, epoch uint32) error
	// RegisterEndpoint advertises a node-level auxiliary endpoint of
	// the given kind (e.g. EndpointIntrospect) at addr.
	// Re-registration overwrites — a restarted node re-advertises its
	// fresh address.
	RegisterEndpoint(ctx context.Context, node uint32, kind, addr string) error
	// Endpoints enumerates every advertised endpoint of the given kind
	// as node id → address. Unlike the name lookups it does not block
	// for future registrations: enumerating the cluster answers with
	// whatever is known now.
	Endpoints(ctx context.Context, kind string) (map[uint32]string, error)
}

// EndpointIntrospect is the endpoint kind under which nodes advertise
// their observability HTTP address (DESIGN.md §12). tycotop and
// `tycosh cluster` enumerate it to scrape the whole cluster.
const EndpointIntrospect = "introspect"

type siteEntry struct {
	site     uint32
	node     uint32
	epoch    uint32
	lastBeat time.Time
}

type idKey struct {
	site string
	id   string
}

type nameEntry struct {
	heap uint32
	sig  string
}

type classEntry struct {
	sig string
}

// Clock abstracts time for deterministic lease tests — the same
// injected-clock pattern as internal/membership. Production services
// run on the real clock; tests advance a fake one instead of sleeping
// out lease TTLs on the wall clock.
type Clock interface {
	Now() time.Time
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// table is one shard of the authority: the SiteTable, IdTable and
// class table for the site names its ring member owns, with the lease
// and fence checks. It never blocks; the Sharded router builds its
// blocking lookups from the peeks and the generation channel.
type table struct {
	leaseTTL time.Duration
	now      func() time.Time

	mu      sync.Mutex
	gen     chan struct{} // closed and replaced on every change a waiter may care about
	sites   map[string]siteEntry
	names   map[idKey]nameEntry
	classes map[idKey]classEntry
	fenced  map[uint32]bool // nodes convicted dead or departed
}

func newTable(leaseTTL time.Duration, now func() time.Time) *table {
	return &table{
		leaseTTL: leaseTTL,
		now:      now,
		gen:      make(chan struct{}),
		sites:    map[string]siteEntry{},
		names:    map[idKey]nameEntry{},
		classes:  map[idKey]classEntry{},
		fenced:   map[uint32]bool{},
	}
}

// bump wakes all blocked lookups so they can re-check.
func (t *table) bump() {
	close(t.gen)
	t.gen = make(chan struct{})
}

// expiredLocked reports whether a site entry's lease has lapsed. A
// fenced node's entries are expired unconditionally: the membership
// verdict is a stronger death witness than a stale lease, and it
// works without a lease TTL configured.
func (t *table) expiredLocked(e siteEntry) bool {
	if t.fenced[e.node] {
		return true
	}
	return t.leaseTTL > 0 && t.now().Sub(e.lastBeat) > t.leaseTTL
}

// fence makes the site entries registered by node read expired, and
// rejects their KeepAlives, until a higher-epoch re-registration moves
// the name or unfence lifts the fence.
func (t *table) fence(node uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fenced[node] {
		return
	}
	t.fenced[node] = true
	t.bump()
}

func (t *table) unfence(node uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.fenced[node] {
		return
	}
	delete(t.fenced, node)
	t.bump()
}

func (t *table) registerSite(name string, site, node, epoch uint32) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, dup := t.sites[name]; dup {
		switch {
		case epoch < prev.epoch:
			return fmt.Errorf("nameservice: site %q re-registration at epoch %d is stale (current epoch %d)", name, epoch, prev.epoch)
		case epoch == prev.epoch && (prev.site != site || prev.node != node):
			return fmt.Errorf("nameservice: site %q already registered at s%d/n%d", name, prev.site, prev.node)
		}
		// Same identity (idempotent refresh) or a higher epoch: the
		// recovered incarnation supersedes the dead one atomically.
		// Its exported names are kept — deterministic replay restores
		// the same heap ids, so importers resolve without a gap.
	}
	t.sites[name] = siteEntry{site: site, node: node, epoch: epoch, lastBeat: t.now()}
	t.bump()
	return nil
}

func (t *table) keepAlive(siteName string, epoch uint32) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.sites[siteName]
	if !ok {
		return fmt.Errorf("nameservice: keepalive for unregistered site %q", siteName)
	}
	if epoch < e.epoch {
		return fmt.Errorf("nameservice: keepalive for site %q at epoch %d superseded by epoch %d", siteName, epoch, e.epoch)
	}
	if t.fenced[e.node] {
		return fmt.Errorf("nameservice: keepalive for site %q rejected: node %d is fenced", siteName, e.node)
	}
	e.lastBeat = t.now()
	t.sites[siteName] = e
	// A refreshed lease can un-expire entries that blocked lookups saw
	// as lapsed.
	t.bump()
	return nil
}

func (t *table) registerName(siteName, id string, heap uint32, sig string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := idKey{site: siteName, id: id}
	if prev, dup := t.names[k]; dup && prev.heap != heap {
		return fmt.Errorf("nameservice: identifier %s.%s already exported", siteName, id)
	}
	t.names[k] = nameEntry{heap: heap, sig: sig}
	t.bump()
	return nil
}

func (t *table) registerClass(siteName, class string, sig string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.classes[idKey{site: siteName, id: class}] = classEntry{sig: sig}
	t.bump()
	return nil
}

// Peek verdicts for the router's lookups.
type peekState int

const (
	peekMiss    peekState = iota // not registered: the caller waits on gen
	peekHit                      // registered and live
	peekExpired                  // registered but lease lapsed / node fenced
)

// peekSite is one locked check of the SiteTable. gen is read under the
// same lock, so a registration that lands after a miss closes it.
func (t *table) peekSite(name string) (site, node uint32, st peekState, gen <-chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.sites[name]
	switch {
	case !ok:
		return 0, 0, peekMiss, t.gen
	case t.expiredLocked(e):
		return 0, 0, peekExpired, t.gen
	}
	return e.site, e.node, peekHit, t.gen
}

// peekName is peekSite for the IdTable: a name resolves once both it
// and its site are registered.
func (t *table) peekName(siteName, id string) (ref vm.NetRef, sig string, st peekState, gen <-chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, okName := t.names[idKey{site: siteName, id: id}]
	s, okSite := t.sites[siteName]
	switch {
	case okSite && t.expiredLocked(s):
		return vm.NetRef{}, "", peekExpired, t.gen
	case !okName || !okSite:
		return vm.NetRef{}, "", peekMiss, t.gen
	}
	return vm.NetRef{Heap: e.heap, Site: s.site, Node: s.node}, e.sig, peekHit, t.gen
}

// peekClass is peekName for the class table.
func (t *table) peekClass(siteName, class string) (nc vm.NetClass, sig string, st peekState, gen <-chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, okClass := t.classes[idKey{site: siteName, id: class}]
	s, okSite := t.sites[siteName]
	switch {
	case okSite && t.expiredLocked(s):
		return vm.NetClass{}, "", peekExpired, t.gen
	case !okClass || !okSite:
		return vm.NetClass{}, "", peekMiss, t.gen
	}
	return vm.NetClass{Name: class, Site: s.site, Node: s.node}, e.sig, peekHit, t.gen
}

// shardEntries is one shard's share of the namespace in transit
// between shards during a map transition.
type shardEntries struct {
	sites   map[string]siteEntry
	names   map[idKey]nameEntry
	classes map[idKey]classEntry
}

func newShardEntries() shardEntries {
	return shardEntries{
		sites:   map[string]siteEntry{},
		names:   map[idKey]nameEntry{},
		classes: map[idKey]classEntry{},
	}
}

func (e *shardEntries) empty() bool {
	return len(e.sites) == 0 && len(e.names) == 0 && len(e.classes) == 0
}

// extract removes and returns every entry whose site name satisfies
// pred — the donor half of a shard-map rebalance. The site name is the
// sharding key, so a site's entry, exported identifiers, and classes
// always travel together and the lease/epoch invariants move with them.
func (t *table) extract(pred func(site string) bool) shardEntries {
	out := newShardEntries()
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, e := range t.sites {
		if pred(name) {
			out.sites[name] = e
			delete(t.sites, name)
		}
	}
	for k, e := range t.names {
		if pred(k.site) {
			out.names[k] = e
			delete(t.names, k)
		}
	}
	for k, e := range t.classes {
		if pred(k.site) {
			out.classes[k] = e
			delete(t.classes, k)
		}
	}
	return out
}

// absorb merges migrated entries into this shard — the recipient half
// of a rebalance. A site already present at an equal-or-higher epoch
// wins over the migrated copy (it re-registered at the new owner while
// the batch was in transit); otherwise the migrated entry (and its
// names and classes) lands verbatim. Blocked lookups are woken so they
// re-check against the absorbed keys.
func (t *table) absorb(in shardEntries) {
	if in.empty() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, e := range in.sites {
		if cur, dup := t.sites[name]; dup && cur.epoch >= e.epoch {
			continue
		}
		t.sites[name] = e
	}
	for k, e := range in.names {
		if _, dup := t.names[k]; dup {
			continue
		}
		t.names[k] = e
	}
	for k, e := range in.classes {
		if _, dup := t.classes[k]; dup {
			continue
		}
		t.classes[k] = e
	}
	t.bump()
}

// counts reports table sizes (per-shard key counts for introspection).
func (t *table) counts() (sites, names, classes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sites), len(t.names), len(t.classes)
}

// dump returns a human-readable table listing.
func (t *table) dump() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := "sites:\n"
	for n, e := range t.sites {
		out += fmt.Sprintf("  %s -> s%d/n%d\n", n, e.site, e.node)
	}
	out += "names:\n"
	for k, e := range t.names {
		out += fmt.Sprintf("  %s.%s -> heap %d  sig %q\n", k.site, k.id, e.heap, e.sig)
	}
	out += "classes:\n"
	for k, e := range t.classes {
		out += fmt.Sprintf("  %s.%s  sig %q\n", k.site, k.id, e.sig)
	}
	return out
}
