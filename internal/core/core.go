// Package core is the DiTyCO programming environment — the paper's
// contribution assembled into an API. It compiles DiTyCO source
// (parse → Damas–Milner type inference → byte-code), assembles
// clusters of nodes over a chosen interconnect (the in-process fabric
// with Myrinet/Fast-Ethernet link models, or TCP via the cmd tools),
// submits programs as sites, and detects global termination.
//
// The quickstart mirrors the paper's workflow:
//
//	cl, _ := core.NewCluster(core.ClusterConfig{Nodes: 2})
//	defer cl.Stop()
//	cl.Submit(0, "server", serverSrc, os.Stdout)
//	cl.Submit(1, "client", clientSrc, os.Stdout)
//	cl.Wait(ctx)
package core

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/journal"
	"repro/internal/membership"
	"repro/internal/nameservice"
	"repro/internal/node"
	"repro/internal/site"
	"repro/internal/syntax"
	"repro/internal/telemetry"
	"repro/internal/termination"
	"repro/internal/transport"
	"repro/internal/types"
)

// Program is a compiled DiTyCO program ready to run as a site.
type Program struct {
	Name string
	Unit *asm.Unit
	Info *types.Info
}

// Compile parses, type-checks and compiles DiTyCO source.
func Compile(name, src string) (*Program, error) {
	p, err := syntax.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	info, err := types.Check(p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	u, err := compiler.Compile(p, name)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &Program{Name: name, Unit: u, Info: info}, nil
}

// SiteProgram converts a compiled program into the site loader's form,
// carrying the signatures for export registration and the dynamic
// import checks.
func (p *Program) SiteProgram() *site.Program {
	nameSigs, classSigs := p.Info.ExportSigs()
	importSigs := map[types.ImportKey]string{}
	for _, use := range p.Info.ImportedNameSigs() {
		importSigs[use.Key] = use.Sig
	}
	return &site.Program{
		Unit:            p.Unit,
		ExportNameSigs:  nameSigs,
		ExportClassSigs: classSigs,
		ImportSigs:      importSigs,
	}
}

// ClusterConfig configures an in-process cluster.
type ClusterConfig struct {
	// Nodes is the number of nodes (default 1).
	Nodes int
	// Link is the interconnect model (default Ideal).
	Link transport.LinkModel
	// ForceMarshalLocal disables the same-node fast path (ablation).
	ForceMarshalLocal bool
	// Out is the default I/O port for sites (default: discard).
	Out io.Writer
	// NS overrides the name service (default: a fresh authority,
	// nameservice.NewSharded, shaped by LeaseTTL and NSShards).
	// Membership verdicts fence only the built-in authority.
	NS nameservice.Service
	// Chaos, when non-nil, interposes a deterministic fault model
	// between every node and the fabric (drops, duplication,
	// reordering, partitions, crashes). Reach it via Cluster.Chaos.
	Chaos *transport.ChaosConfig
	// Reliability, when non-nil, runs the ack/retransmit delivery layer
	// on every node — required for computations to survive a chaotic
	// fabric.
	Reliability *transport.ReliableConfig
	// Detect, when non-nil, attaches a gossip membership agent to
	// every node (feeding the reliable layer's peer-down state and the
	// name service's fences) and tunes its timing (DESIGN.md §13). The
	// cluster fills Peers with every node and derives each node's Seed
	// from a nonzero Seed; the node fills Self, Incarnation and Send.
	// The cluster's own handler takes OnEvent: observe transitions
	// through OnSuspect.
	Detect *membership.Config
	// OnSuspect receives every membership transition as the observing
	// node's agent emits it — Suspect and Dead verdicts, refutations,
	// departures, whether seen first-hand or learned by gossip. The
	// reconfiguration hook: a SETI-style master requeues a crashed
	// worker's chunks from here.
	OnSuspect func(observer uint32, e membership.Event)
	// Journal, when non-nil, gives every site a write-ahead log:
	// mobility operations are journaled before acknowledgement, sites
	// checkpoint periodically, and Cluster.Recover can restart a crashed
	// node from the logs. Use journal.NewMemFactory for tests (the
	// factory outlives node restarts) or journal.NewFileFactory for
	// crash-surviving logs on disk.
	Journal journal.Factory
	// CheckpointEvery is the per-site delivery count between compacting
	// checkpoints (default 64; only meaningful with Journal).
	CheckpointEvery int
	// LeaseTTL, when positive and NS is unset, makes the built-in name
	// service lease-based: registrations expire unless refreshed, so a
	// dead site's names fail fast instead of blocking importers forever.
	// Sites refresh at LeaseTTL/3.
	LeaseTTL time.Duration
	// NSShards, when > 1 and NS is unset, partitions the built-in name
	// service by consistent hashing (DESIGN.md §16) across ring members
	// 1..NSShards under a versioned shard map; membership convictions
	// (Detect) evict members from the ring with their keys migrated to
	// the survivors. The default is a one-member ring.
	NSShards int
	// NSCache, when non-nil, gives every node a private client lease
	// cache in front of the shared name service: positive and negative
	// entries under a TTL, flushed selectively (moved key ranges only)
	// when the shard-map version bumps. Fencing a dead node hits the
	// authority immediately; another node's cached entries for it can
	// persist up to the cache TTL, so keep TTL at or below LeaseTTL.
	NSCache *nameservice.CacheConfig
	// NSBreaker, when non-nil, interposes a per-shard circuit breaker
	// between every node and the name service, so one wedged shard
	// fails fast without blinding lookups routed to healthy shards.
	NSBreaker *nameservice.BreakerConfig
	// Supervise makes every node restart its crashed sites from their
	// journals (requires Journal).
	Supervise bool
	// Batch tunes every node's outbound frame coalescer (size
	// threshold, flush deadline, on/off). The zero value means
	// coalescing on with defaults; set Batch.Disable for the unbatched
	// ablation (experiment E11).
	Batch node.BatchConfig
	// Telemetry, when non-nil, turns on the observability fabric
	// (DESIGN.md §11) on every node: metrics registry, mobility
	// tracing, flight recorder. Read it back via Cluster.Telemetry.
	// The zero Config is a fine default.
	Telemetry *telemetry.Config
	// Introspection, when non-nil, serves each node's observability
	// HTTP endpoint (/metrics, /healthz, /statusz, /debug/…) and runs
	// its stall detector (DESIGN.md §12). Implies telemetry on every
	// node. Leave Listen empty in clusters — every node binds its own
	// kernel-assigned loopback port — and read the addresses back via
	// Cluster.IntrospectionAddrs; they are also advertised through the
	// name service (nameservice.EndpointIntrospect) for tycotop.
	Introspection *node.IntrospectConfig
	// Admission, when non-nil, turns on every node's overload-
	// protection plane (DESIGN.md §14): admission control, expired-work
	// shedding, fetch pushback. The zero config selects the defaults.
	Admission *admission.Config
	// OpDeadline, when positive, stamps every mobility operation with
	// an absolute now+OpDeadline expiry, enforced end to end (sender
	// retransmission, receiver application).
	OpDeadline time.Duration
	// Sched configures every node's work-stealing scheduler
	// (DESIGN.md §15). The zero value runs GOMAXPROCS workers.
	Sched node.SchedConfig
}

// spawnRec remembers a submission so Recover can restore the node's
// site roster.
type spawnRec struct {
	name string
	out  io.Writer
	opts []node.SiteOption
}

// Cluster is an in-process DiTyCO network: N nodes on a switch fabric
// sharing a name service — the architecture of paper Fig. 2 scaled
// into one process.
type Cluster struct {
	cfg    ClusterConfig
	ns     nameservice.Service
	auth   *nameservice.Sharded // the built-in authority; nil when cfg.NS is set
	fabric *transport.Fabric
	chaos  *transport.Chaos
	det    *termination.Detector

	// mu guards the node roster, which Recover rebuilds in place.
	mu          sync.Mutex
	nodes       []*node.Node
	memberships []*membership.M
	mems        []*transport.Mem
	epochs      []uint32
	spawns      [][]spawnRec

	deadMu sync.Mutex
	dead   map[uint32]bool
}

// NewCluster assembles a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	ns := cfg.NS
	var auth *nameservice.Sharded
	if ns == nil {
		members := make([]uint32, max(cfg.NSShards, 1))
		for i := range members {
			members[i] = uint32(i + 1)
		}
		auth = nameservice.NewSharded(nameservice.ShardedConfig{Members: members, LeaseTTL: cfg.LeaseTTL})
		ns = auth
	}
	fabric := transport.NewFabric(cfg.Link)
	c := &Cluster{cfg: cfg, ns: ns, auth: auth, fabric: fabric, dead: map[uint32]bool{}}
	if cfg.Chaos != nil {
		c.chaos = transport.NewChaos(*cfg.Chaos)
	}
	for i := 0; i < cfg.Nodes; i++ {
		n, mem, err := c.newNode(uint32(i+1), 1)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		c.mems = append(c.mems, mem)
		c.epochs = append(c.epochs, 1)
		c.spawns = append(c.spawns, nil)
	}
	if cfg.Detect != nil {
		for _, n := range c.nodes {
			c.memberships = append(c.memberships, c.attachMembership(n))
		}
	}
	c.det = termination.New(c.probes)
	c.det.Collector = func(ps []termination.Probe) termination.Snapshot {
		return termination.CollectAlive(ps, c.aliveFn())
	}
	return c, nil
}

// newNode attaches one node to the fabric (wrapping it in the chaos
// interposer when configured) under the given incarnation epoch.
func (c *Cluster) newNode(id uint32, epoch uint32) (*node.Node, *transport.Mem, error) {
	mem, err := c.fabric.Attach(id)
	if err != nil {
		return nil, nil, err
	}
	var t transport.Transport = mem
	if c.chaos != nil {
		t = c.chaos.Wrap(mem)
	}
	var leaseRefresh time.Duration
	if c.cfg.LeaseTTL > 0 {
		leaseRefresh = c.cfg.LeaseTTL / 3
	}
	var tel *telemetry.Telemetry
	if c.cfg.Telemetry != nil {
		tel = telemetry.New(id, *c.cfg.Telemetry)
	}
	var intro *node.IntrospectConfig
	if c.cfg.Introspection != nil {
		ic := *c.cfg.Introspection
		intro = &ic
	}
	// Per-node NS stack: the authority (c.ns) is shared; the breaker
	// and the lease cache are private to the node, so one node's
	// failures or cached entries never leak into another's view.
	nodeNS := c.ns
	if c.cfg.NSBreaker != nil {
		nodeNS = nameservice.NewBreaker(nodeNS, *c.cfg.NSBreaker)
	}
	if c.cfg.NSCache != nil {
		nodeNS = nameservice.NewCache(nodeNS, *c.cfg.NSCache)
	}
	n := node.New(node.Config{
		ID:                id,
		NS:                nodeNS,
		Transport:         t,
		Out:               c.cfg.Out,
		ForceMarshalLocal: c.cfg.ForceMarshalLocal,
		Reliability:       c.cfg.Reliability,
		Epoch:             epoch,
		Journals:          c.journalsFor(id),
		CheckpointEvery:   c.cfg.CheckpointEvery,
		LeaseRefresh:      leaseRefresh,
		Supervise:         c.cfg.Supervise,
		Batch:             c.cfg.Batch,
		Telemetry:         tel,
		Introspect:        intro,
		Admission:         c.cfg.Admission,
		OpDeadline:        c.cfg.OpDeadline,
		Sched:             c.cfg.Sched,
	})
	if intro != nil {
		if addr := n.IntrospectionAddr(); addr != "" {
			// Advertise the endpoint so any node (or tycotop) can
			// enumerate the cluster's observability plane. A recovered
			// incarnation re-registers its fresh address here too.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = c.ns.RegisterEndpoint(ctx, id, nameservice.EndpointIntrospect, addr)
			cancel()
		}
	}
	return n, mem, nil
}

// IntrospectionAddrs lists every live node's observability address
// (empty without the Introspection knob).
func (c *Cluster) IntrospectionAddrs() map[uint32]string {
	out := map[uint32]string{}
	for _, n := range c.snapshotNodes() {
		if addr := n.IntrospectionAddr(); addr != "" {
			out[n.ID()] = addr
		}
	}
	return out
}

// Telemetry captures a cluster-wide telemetry dump: one snapshot per
// live node. With telemetry off it returns an empty dump.
func (c *Cluster) Telemetry() telemetry.Dump {
	var d telemetry.Dump
	for _, n := range c.snapshotNodes() {
		if n.Telemetry() != nil {
			d.Nodes = append(d.Nodes, n.TelemetrySnapshot())
		}
	}
	return d
}

// journalsFor namespaces the cluster's journal factory per node, so
// same-named sites on different nodes get distinct logs.
func (c *Cluster) journalsFor(id uint32) journal.Factory {
	if c.cfg.Journal == nil {
		return nil
	}
	return journal.Scoped(c.cfg.Journal, fmt.Sprintf("n%d", id))
}

// attachMembership wires a gossip membership agent to a node using
// the cluster's Detect config; its transitions go to onMembership.
func (c *Cluster) attachMembership(n *node.Node) *membership.M {
	peers := make([]uint32, c.cfg.Nodes)
	for i := range peers {
		peers[i] = uint32(i + 1)
	}
	observer := n.ID()
	mc := *c.cfg.Detect
	mc.Peers = peers
	if mc.Seed != 0 {
		// Per-node derivation: identical seeds would synchronize every
		// agent's probe order.
		mc.Seed = mc.Seed*0x9e3779b97f4a7c15 + uint64(observer)
	}
	mc.OnEvent = func(e membership.Event) { c.onMembership(observer, e) }
	return n.AttachMembership(mc)
}

// onMembership handles one transition of observer's view: Dead and
// Left verdicts fence the node in the built-in authority, so its
// leases expire immediately instead of at TTL, and Alive lifts the
// fence; then OnSuspect sees the event unchanged.
func (c *Cluster) onMembership(observer uint32, e membership.Event) {
	if c.auth != nil {
		switch e.State {
		case membership.StateDead, membership.StateLeft:
			c.auth.FenceNode(e.Node)
		case membership.StateAlive:
			c.auth.UnfenceNode(e.Node)
		}
	}
	if c.cfg.OnSuspect != nil {
		c.cfg.OnSuspect(observer, e)
	}
}

// Membership returns node i's gossip membership agent (nil without
// the Detect knob).
func (c *Cluster) Membership(i int) *membership.M {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.memberships) {
		return nil
	}
	return c.memberships[i]
}

// Chaos returns the cluster's fault controller (nil without the Chaos
// knob): the handle for partitions, heals, and crash/blackhole.
func (c *Cluster) Chaos() *transport.Chaos { return c.chaos }

// Crash kills node i: its network presence is blackholed (when chaos is
// wired), its sites are stopped, and it is excluded from termination
// accounting and error collection from here on. This models fail-stop —
// there is no Revive for a crashed node's computation state.
func (c *Cluster) Crash(i int) {
	c.mu.Lock()
	if i < 0 || i >= len(c.nodes) {
		c.mu.Unlock()
		return
	}
	n := c.nodes[i]
	c.mu.Unlock()
	id := n.ID()
	c.deadMu.Lock()
	already := c.dead[id]
	c.dead[id] = true
	c.deadMu.Unlock()
	if already {
		return
	}
	if c.chaos != nil {
		c.chaos.Crash(id)
	}
	n.Stop()
}

// Recover restarts a crashed node: a fresh incarnation is attached to
// the fabric under a higher epoch and every site the node was running
// is rebuilt from its journal — checkpoint restored, logged deliveries
// replayed, accepted-but-unhandled operations re-delivered, exports
// re-registered under the same names. Peers' parked frames flush to the
// new incarnation. Requires the Journal knob.
func (c *Cluster) Recover(i int) error {
	if c.cfg.Journal == nil {
		return fmt.Errorf("core: Recover needs the Journal knob")
	}
	c.mu.Lock()
	if i < 0 || i >= len(c.nodes) {
		c.mu.Unlock()
		return fmt.Errorf("core: node %d out of range", i)
	}
	old := c.nodes[i]
	mem := c.mems[i]
	epoch := c.epochs[i] + 1
	spawns := append([]spawnRec(nil), c.spawns[i]...)
	c.mu.Unlock()

	id := old.ID()
	c.deadMu.Lock()
	dead := c.dead[id]
	c.deadMu.Unlock()
	if !dead {
		// Recovering a live node is a restart: kill it first so the old
		// incarnation cannot race its successor.
		c.Crash(i)
	}
	// The crash path may or may not have closed the fabric endpoint
	// (node.Stop closes it only when it owns a reliable layer); Close is
	// idempotent, and a closed endpoint frees the slot for re-Attach.
	_ = mem.Close()
	if c.chaos != nil {
		c.chaos.Revive(id)
	}
	n, newMem, err := c.newNode(id, epoch)
	if err != nil {
		return fmt.Errorf("core: reattach node %d: %w", id, err)
	}
	var memb *membership.M
	if c.cfg.Detect != nil {
		// The fresh incarnation gossips at its bumped epoch, which
		// outranks the Dead verdict peers hold about its past life.
		memb = c.attachMembership(n)
	}
	c.mu.Lock()
	c.nodes[i] = n
	c.mems[i] = newMem
	c.epochs[i] = epoch
	if memb != nil && i < len(c.memberships) {
		c.memberships[i] = memb
	}
	c.mu.Unlock()
	// Back in the membership: termination accounting and Err collection
	// include the new incarnation again.
	c.deadMu.Lock()
	delete(c.dead, id)
	c.deadMu.Unlock()
	for _, sp := range spawns {
		if _, err := n.RecoverSite(sp.name, sp.out, sp.opts...); err != nil {
			return fmt.Errorf("core: recover site %q on node %d: %w", sp.name, id, err)
		}
	}
	return nil
}

// Drain gracefully retires node i: the node announces Leaving, stops
// its sites at a clean point, quiesces its outbound traffic, and
// releases each site's journal; the cluster then places every
// evacuated site on a peer chosen from the live cluster view
// (membership when attached, else the non-crashed roster) and adopts
// it there by journal replay — the exactly-once guarantee of crash
// recovery, without the crash. The drained node stays attached and
// forwards stragglers; it is Left, not dead, so termination
// accounting still balances its forwarded traffic. Requires the
// Journal knob when the node runs sites.
func (c *Cluster) Drain(ctx context.Context, i int) error {
	c.mu.Lock()
	if i < 0 || i >= len(c.nodes) {
		c.mu.Unlock()
		return fmt.Errorf("core: node %d out of range", i)
	}
	n := c.nodes[i]
	var m *membership.M
	if i < len(c.memberships) {
		m = c.memberships[i]
	}
	spawnsByName := map[string]spawnRec{}
	for _, sp := range c.spawns[i] {
		spawnsByName[sp.name] = sp
	}
	c.mu.Unlock()

	// Candidate adopters: the draining node's own cluster view when it
	// gossips, intersected with the cluster's crash bookkeeping.
	alive := c.aliveFn()
	var memAlive map[uint32]bool
	if m != nil {
		memAlive = map[uint32]bool{}
		for _, id := range m.AliveNodes() {
			memAlive[id] = true
		}
	}
	var cands []*node.Node
	for _, o := range c.snapshotNodes() {
		if o.ID() == n.ID() || !alive(o.ID()) || o.Draining() {
			continue
		}
		if memAlive != nil && !memAlive[o.ID()] {
			continue
		}
		cands = append(cands, o)
	}
	if len(cands) == 0 {
		return fmt.Errorf("core: drain node %d: no live node to evacuate to", n.ID())
	}
	next := 0
	evs, err := n.Drain(ctx, func(name string, id uint32) (uint32, error) {
		t := cands[next%len(cands)]
		next++
		return t.ID(), nil
	})
	if err != nil {
		return err
	}
	byID := map[uint32]*node.Node{}
	for _, o := range cands {
		byID[o.ID()] = o
	}
	for _, ev := range evs {
		target := byID[ev.Target]
		sp := spawnsByName[ev.Name]
		if _, err := target.AdoptSite(ev.Name, ev.Journal, sp.out, sp.opts...); err != nil {
			return fmt.Errorf("core: adopt site %q on node %d: %w", ev.Name, ev.Target, err)
		}
	}
	// The spawn roster moves off the drained node's books: a later
	// Recover of this slot must not resurrect evacuated sites. The
	// adopters do not inherit the records — their copy lives as the
	// adopted journal itself (Recover of an adopter is out of scope for
	// the in-process harness, which keeps journals per original node).
	c.mu.Lock()
	c.spawns[i] = nil
	c.mu.Unlock()
	return nil
}

// aliveFn snapshots the dead set into a membership predicate.
func (c *Cluster) aliveFn() func(uint32) bool {
	c.deadMu.Lock()
	defer c.deadMu.Unlock()
	dead := make(map[uint32]bool, len(c.dead))
	for k, v := range c.dead {
		dead[k] = v
	}
	return func(n uint32) bool { return !dead[n] }
}

// NS returns the cluster's name service.
func (c *Cluster) NS() nameservice.Service { return c.ns }

// Node returns the i-th node (0-based).
func (c *Cluster) Node(i int) *node.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i]
}

// Nodes returns the node count.
func (c *Cluster) Nodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// snapshotNodes copies the roster for lock-free iteration.
func (c *Cluster) snapshotNodes() []*node.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*node.Node(nil), c.nodes...)
}

// Submit compiles src and starts it as a site named siteName on node
// i, with out as the site's I/O port.
func (c *Cluster) Submit(i int, siteName, src string, out io.Writer, opts ...node.SiteOption) (*site.Site, error) {
	prog, err := Compile(siteName, src)
	if err != nil {
		return nil, err
	}
	return c.SubmitProgram(i, prog, out, opts...)
}

// SubmitProgram starts a pre-compiled program as a site on node i.
func (c *Cluster) SubmitProgram(i int, prog *Program, out io.Writer, opts ...node.SiteOption) (*site.Site, error) {
	c.mu.Lock()
	if i < 0 || i >= len(c.nodes) {
		c.mu.Unlock()
		return nil, fmt.Errorf("core: node %d out of range", i)
	}
	n := c.nodes[i]
	c.mu.Unlock()
	s, err := n.Spawn(prog.Name, prog.SiteProgram(), out, opts...)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.spawns[i] = append(c.spawns[i], spawnRec{name: prog.Name, out: out, opts: opts})
	c.mu.Unlock()
	return s, nil
}

// probes snapshots every site's control state for the termination
// detector.
func (c *Cluster) probes() []termination.Probe {
	var out []termination.Probe
	for _, n := range c.snapshotNodes() {
		for _, s := range n.Sites() {
			sentTo, recvFrom, idle := s.ControlVectors()
			sent, recv, _ := s.ControlState()
			out = append(out, termination.Probe{
				Node:     n.ID(),
				Sent:     sent,
				Recv:     recv,
				SentTo:   sentTo,
				RecvFrom: recvFrom,
				Idle:     idle,
			})
		}
	}
	return out
}

// Wait blocks until the computation has globally terminated (every
// site idle and no messages in flight, confirmed by two consistent
// snapshot rounds) or ctx expires. It also surfaces the first site or
// node error.
func (c *Cluster) Wait(ctx context.Context) error {
	return c.det.Wait(ctx, func() error { return c.Err() })
}

// Err returns the first error any site or node hit. Nodes killed via
// Crash are skipped: a crashed node's sites die mid-flight by design.
func (c *Cluster) Err() error {
	alive := c.aliveFn()
	for _, n := range c.snapshotNodes() {
		if !alive(n.ID()) {
			continue
		}
		if err := n.Err(); err != nil {
			return err
		}
		for _, s := range n.Sites() {
			if err := s.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stop tears the cluster down.
func (c *Cluster) Stop() {
	for _, n := range c.snapshotNodes() {
		n.Stop()
	}
	if c.chaos != nil {
		c.chaos.Close()
	}
	c.fabric.Close()
}

// RunLocal compiles and runs a single-site program to termination,
// returning nothing but the error; print output goes to out. It is
// the engine of the tyco command and of many tests.
func RunLocal(name, src string, out io.Writer) error {
	cl, err := NewCluster(ClusterConfig{Nodes: 1, Out: out})
	if err != nil {
		return err
	}
	defer cl.Stop()
	if _, err := cl.Submit(0, name, src, out); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return cl.Wait(ctx)
}
