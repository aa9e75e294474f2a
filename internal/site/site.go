// Package site implements DiTyCO sites: "the basic units of the
// implementation … implemented as threads, each running a
// re-engineered TyCO virtual machine" (paper section 5, Fig. 3). A
// Site wraps a vm.Machine with everything the paper's extension list
// demands:
//
//   - local vs network references, with an export table mapping local
//     heap pointers to hardware-independent network references;
//   - the export/import instructions backed by the network name
//     service (import resolution overlaps with computation: threads
//     touching an unresolved import park and the site context-switches);
//   - re-implemented trmsg/trobj/instof handling network references:
//     code shipping for messages and objects (rules SHIPM/SHIPO) and
//     code fetching with dynamic linking for classes (rule FETCH);
//   - incoming/outgoing queues serviced by the node's communication
//     daemon (TyCOd);
//   - an I/O port (the site's print output).
//
// A site is internally sequential: everything that touches the
// machine happens on whichever goroutine currently owns the site. In
// the legacy mode that is one dedicated goroutine (Run); under the
// node's work-stealing scheduler (DESIGN.md §15) workers take turns
// owning the site, one at a time, driving Turn. The node feeds the
// incoming queue and drains the outgoing queue concurrently either
// way.
package site

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/backoff"
	"repro/internal/nameservice"
	"repro/internal/telemetry"
	"repro/internal/types"
	"repro/internal/vm"
	"repro/internal/wire"
)

// Addr locates a site in the network.
type Addr struct {
	Site uint32
	Node uint32
}

// Delivery is one item of a site's incoming queue. Exactly one field
// group is set. Local (same-node) deliveries carry pre-decoded units
// (the paper's shared-memory optimization); remote ones carry the wire
// forms decoded by the TyCOd.
type Delivery struct {
	// Src is the node the delivery originated on (this node for local
	// traffic). Termination accounting keys its received counters on it.
	Src uint32
	// Trace is the mobility trace the delivery rides (telemetry
	// fabric; 0 = untraced). The site applies the delivery under this
	// trace, so threads it spawns inherit the causal context.
	Trace uint64
	// Op identifies the mobility operation for crash recovery: the
	// receiving site deduplicates by (Op.Site, Op.ID) and fences
	// epochs below the sender's highest seen incarnation. Zero for
	// Resolved deliveries (site-internal).
	Op wire.OpRef
	// Deadline is the operation's absolute expiry in unix microseconds
	// (0 = none), propagated end-to-end from the originating site
	// (DESIGN.md §14). Expired Msg/Obj deliveries are shed unapplied;
	// like Trace, the deadline is not persisted by journals.
	Deadline uint64
	// At is when the delivery entered the incoming queue, stamped by
	// Deliver when sojourn sampling is on (Config.OnSojourn). The
	// handle-time difference is the queue sojourn the admission
	// controller watches.
	At time.Time
	// Msg: a remote method invocation to a local channel.
	Msg *MsgDelivery
	// Obj: a migrating object.
	Obj *ObjDelivery
	// Fetch: another site requests one of our exported classes.
	Fetch *FetchDelivery
	// FetchRep: code arriving in answer to our fetch request.
	FetchRep *FetchRepDelivery
	// Resolved: an import resolution completed.
	Resolved *ResolvedImport
	// Refetch: a site-internal timer asking to re-issue a fetch that
	// was pushed back by an overloaded owner. Like Resolved it is
	// neither journaled nor counted for termination.
	Refetch *RefetchDelivery
}

// MsgDelivery is an incoming message (already σ-ingressed by Decode,
// or built directly by a same-node sender).
type MsgDelivery struct {
	Heap  uint32 // exported heap id of the destination channel
	Label string
	Args  []WireVal
}

// ObjDelivery is an incoming object migration. Its code travels as
// bytes: the receiving site decodes and links each distinct unit once
// and reuses that placement for every later arrival of the same bytes.
type ObjDelivery struct {
	Heap  uint32
	Code  []byte // the unit's canonical encoding (asm.Encode)
	Table int    // table index within the unit
	Frame []WireVal
}

// FetchDelivery is an incoming class-code request.
type FetchDelivery struct {
	Class string
	ReqID uint64
	Reply Addr
}

// FetchRepDelivery is incoming class code.
type FetchRepDelivery struct {
	ReqID    uint64
	Err      string
	Class    string
	Unit     *asm.Unit
	Group    int
	Index    int
	Captured []WireVal
}

// ResolvedImport carries a completed name-service lookup.
type ResolvedImport struct {
	ConstIdx int
	Value    vm.Value
	ClassSig string // exporter's signature for class imports
	Err      error
}

// RefetchDelivery re-triggers a pending class fetch after an overload
// pushback's backoff delay.
type RefetchDelivery struct {
	ReqID uint64
}

// frameType maps the delivery back to the wire frame that carries it
// (telemetry event labelling).
func (d *Delivery) frameType() wire.FrameType {
	switch {
	case d.Msg != nil:
		return wire.FMsg
	case d.Obj != nil:
		return wire.FObj
	case d.Fetch != nil:
		return wire.FFetchReq
	case d.FetchRep != nil:
		return wire.FFetchRep
	default:
		return 0
	}
}

// Router is how a site hands outgoing traffic to its node's TyCOd.
// Every route carries the operation identity the site assigned — the
// node stamps it on the wire payload, and receivers use it for
// crash-recovery deduplication.
type Router interface {
	// RouteMsg ships a message to the channel ref. args is valid only
	// during the call: a router that keeps the arguments copies them.
	RouteMsg(from *Site, op wire.OpRef, ref vm.NetRef, label string, args []WireVal) error
	// RouteObj ships a migrated object.
	RouteObj(from *Site, op wire.OpRef, ref vm.NetRef, unit *asm.Unit, table int, frame []WireVal) error
	// RouteFetch ships a class-code request to the owning site.
	RouteFetch(from *Site, op wire.OpRef, owner Addr, class string, reqID uint64) error
	// RouteFetchRep ships class code back to the requester.
	RouteFetchRep(from *Site, op wire.OpRef, to Addr, rep *FetchRepDelivery) error
}

// Config configures a site.
type Config struct {
	Name   string // lexeme identifying the site in source programs
	ID     uint32
	NodeID uint32
	NS     nameservice.Service
	Router Router
	// Out is the site's I/O port for print output.
	Out io.Writer
	// DisableFetchCache turns off caching of fetched classes
	// (ablation for experiment E4).
	DisableFetchCache bool
	// PollInterval is how many threads run between incoming-queue
	// polls; 0 means 8 (the paper's "read periodically").
	PollInterval int
	// InboxBatch bounds how many queued deliveries are handled between
	// VM slices; 0 means 64. The bound keeps a burst of incoming
	// frames (a decoded batch) from starving the VM, and a busy VM
	// from starving the queue.
	InboxBatch int
	// ImportTimeout bounds name-service resolution; 0 means 30s.
	ImportTimeout time.Duration
	// Epoch is the site's incarnation number (0 means 1). A supervised
	// restart runs under the previous incarnation's epoch + 1: the name
	// service and receiving sites fence anything older.
	Epoch uint32
	// Journal, when non-nil, write-ahead-logs the site's program,
	// handled deliveries, and checkpoints — the substrate of supervised
	// crash recovery.
	Journal *Journal
	// CheckpointEvery is how many handled deliveries accumulate before
	// the site compacts its journal to a checkpoint at the next stable
	// idle point; 0 means 64.
	CheckpointEvery int
	// LeaseRefresh, when positive, starts a heartbeat that refreshes
	// the site's name-service lease at this period.
	LeaseRefresh time.Duration
	// CheckpointGate, when non-nil, must report true before a
	// checkpoint may compact the journal. The node wires this to "no
	// unacked outbound frames": a checkpoint covers the deliveries that
	// caused this site's past sends, so any such send still unacked at
	// the transport would be unrecoverable if the site crashed after
	// compacting — replay starts past it, and only an ack proves the
	// receiver journaled it.
	CheckpointGate func() bool
	// Telemetry, when non-nil, turns on the observability fabric: the
	// site allocates trace IDs at egress, records deliver events, and
	// feeds the inbox-depth/checkpoint instruments. Nil is free.
	Telemetry *telemetry.Telemetry
	// Probe turns on the introspection mirrors (probe.go): the run loop
	// refreshes a set of atomics each scheduler turn so /statusz and the
	// stall detector can sample the site from outside its goroutine.
	// Off by default — the mirrors cost a time.Now per turn.
	Probe bool
	// OpDeadline, when positive, stamps every mobility operation this
	// site originates with an absolute deadline of now+OpDeadline
	// (DESIGN.md §14). Operations caused by an already-deadlined
	// delivery inherit its deadline instead — end-to-end propagation.
	OpDeadline time.Duration
	// OnSojourn, when non-nil, receives each handled delivery's queue
	// sojourn (handle time minus enqueue time). The node wires it to
	// the admission controller; it also turns on the per-delivery
	// enqueue timestamp, so leaving it nil costs nothing.
	OnSojourn func(time.Duration)
	// Overloaded, when non-nil, reports whether the node is shedding
	// load. An overloaded site answers class-code fetches with a
	// retryable pushback instead of extracting code.
	Overloaded func() bool
}

// Site is one DiTyCO site.
type Site struct {
	cfg  Config
	m    *vm.Machine
	prog *vm.Program

	in   chan Delivery
	stop chan struct{}
	done chan struct{}

	// wake, when the site runs under a turn scheduler, notifies it
	// that new input arrived (SetWake). Nil in legacy Run mode. Set
	// once before the site starts; read by Deliver/Stop from any
	// goroutine afterwards.
	wake func()
	// began flips on the first Turn (owner goroutine only): lease
	// keep-alive launch and journal restore happen there, not in New,
	// so recovery replay runs on whichever goroutine owns the site.
	began      bool
	finishOnce sync.Once

	// flushOut, when the router coalesces outbound frames, forces them
	// onto the wire; the run loop calls it before parking idle so a
	// lone message never waits out the router's batch deadline.
	flushOut func()

	// Export table (paper section 5): local heap index ↔ exported
	// heap id, for every local variable that leaves the site. Export
	// ids are issued 1, 2, 3 … and never retired, so the table is two
	// arrays: exp[channel] is the channel's export id (0 = not
	// exported), expRev[id-1] the channel behind an export id. The
	// mutex covers cross-goroutine stats reads; mutation happens on
	// the site goroutine only.
	expMu        sync.Mutex
	exp          []uint32
	expRev       []int
	expNames     map[string]vm.Value
	expNameSigs  map[string]string
	expClassSigs map[string]string
	// classSigs records the exporter-declared signature of every
	// imported class, checked at instantiation time.
	classSigs map[vm.NetClass]string

	// Import bookkeeping.
	waiting map[int][]vm.Thread // const index -> parked threads
	// pendingImports tracks imports whose resolution has not landed,
	// keyed by program constant index — checkpointed so a recovered
	// site knows which resolvers to respawn.
	pendingImports map[int]pendingImport

	// Telemetry (nil when off). Trace IDs come from the node-scoped
	// telemetry counter and are not persisted — a recovered
	// incarnation starts fresh roots, and its node recorder restarted
	// with it.
	tel *telemetry.Telemetry

	// Crash-recovery state (site goroutine only).
	epoch      uint32
	peers      map[uint32]*peerOps // remote site -> op bookkeeping, both directions
	replaying  bool                // journal replay in progress
	sinceCkpt  int                 // deliveries since the last checkpoint
	jl         *Journal
	restoreLog *RecoveredLog
	// Scratch writers for RecDelivery records (encodeDelivery): the
	// journal store copies what it keeps.
	recHdr, recBody wire.Writer

	// Fetch bookkeeping.
	nextReq      uint64
	pendingFetch map[uint64]*fetchPending
	fetchByClass map[vm.NetClass]uint64 // coalesce concurrent fetches
	fetchCache   map[vm.NetClass]vm.Value
	fetchRng     uint64 // jitter state for overload-pushback re-fetch backoff

	// Code moves once (mobility.go). linked maps the exact bytes of
	// every distinct unit that arrived in an object to the placement its
	// one link got; linkOrder holds the same keys in link order, the
	// order the checkpoint overlay writes them in. extracted memoises
	// the sender side: the unit (encoding included) and relocation each
	// shipped (method table, captured class groups) extracted to. All
	// three stay nil until code first moves.
	linked    map[string]*vm.Linked
	linkOrder []string
	extracted map[extractKey]extraction

	// Scratch buffers for the σ-translation of message arguments, each
	// consumed within the call that fills it (site goroutine only).
	egress  []wire.Value
	ingress []vm.Value

	// curDeadline is the deadline of the delivery currently being
	// applied (site goroutine only): operations the apply routes out
	// inherit it, which is how a deadline propagates across hops.
	curDeadline uint64

	// Control-plane counters for termination detection: messages
	// sent to and received from other sites, with per-peer-node
	// breakdowns so the detector can discount traffic exchanged with
	// nodes that later died.
	ctrlSent atomic.Uint64
	ctrlRecv atomic.Uint64
	idle     atomic.Bool
	ctrlMu   sync.Mutex
	sentTo   map[uint32]uint64
	recvFrom map[uint32]uint64

	runErr error
	errMu  sync.Mutex

	// Stats beyond the machine's.
	UnitsLinked    uint64
	ClassesFetched uint64
	FetchCacheHits uint64
	// LinkCacheHits counts object arrivals whose code was already
	// linked here: each costs a map lookup instead of a decode and link.
	LinkCacheHits uint64
	// DupDrops counts mobility operations dropped because their
	// (site, id) was already applied — retransmissions and recovery
	// re-sends. StaleDrops counts operations fenced for carrying an
	// epoch below the sender's highest seen incarnation. Checkpoints
	// counts journal compactions.
	DupDrops    uint64
	StaleDrops  uint64
	Checkpoints uint64
	// expiredDrops counts deliveries shed because their deadline had
	// already passed when they reached the head of the queue — work
	// whose answer nobody is waiting for anymore. Atomic because the
	// overload drills read it while the site runs.
	expiredDrops atomic.Uint64
	// fetchRetries counts overload-pushback re-fetches issued.
	fetchRetries atomic.Uint64

	// Introspection mirrors (probe.go): atomic copies of site-goroutine
	// scheduler state, refreshed by probeTick when cfg.Probe is on so
	// Status can read them from any goroutine.
	stLoop       atomic.Int64 // unixnano of the last run-loop turn
	stParked     atomic.Int64 // unixnano the loop blocked for input; 0 while running
	stRunq       atomic.Int64
	stWaiting    atomic.Int64
	stFetches    atomic.Int64
	stImportWait atomic.Int64 // unixnano the current import-wait span began
	stFetchWait  atomic.Int64 // unixnano the current fetch-wait span began
	stDup        atomic.Uint64
	stStale      atomic.Uint64
	stCkpt       atomic.Uint64
	stSince      atomic.Int64
	leaseErr     atomic.Value // string: last keep-alive failure, "" after success
}

// peerOps is everything the site remembers about its mobility traffic
// with one remote site. Op ids are issued per destination, so what a
// receiver sees from one sender is the sequence 1, 2, 3 … and its
// applied set stays a single range while deliveries arrive in order.
type peerOps struct {
	nextOp   uint64 // last op id issued to the site
	maxEpoch uint32 // highest incarnation seen from it
	applied  opSet  // ids of its ops applied here
}

// peer returns the bookkeeping entry for a remote site, creating it on
// first contact.
func (s *Site) peer(id uint32) *peerOps {
	p := s.peers[id]
	if p == nil {
		p = &peerOps{}
		s.peers[id] = p
	}
	return p
}

// appliedOp reports whether the operation was already applied here.
func (s *Site) appliedOp(op wire.OpRef) bool {
	p := s.peers[op.Site]
	return p != nil && p.applied.has(op.ID)
}

type fetchPending struct {
	class   vm.NetClass
	calls   [][]vm.Value
	retries int // overload pushbacks absorbed so far (backoff growth)
}

type pendingImport struct {
	imp asm.ImportRef
	sig string // required interface, "" when unchecked
}

// New creates a site. Call Run (usually via go) to start it.
func New(cfg Config) *Site {
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 8
	}
	if cfg.ImportTimeout <= 0 {
		cfg.ImportTimeout = 30 * time.Second
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 64
	}
	if cfg.InboxBatch <= 0 {
		cfg.InboxBatch = 64
	}
	prog := vm.NewProgram()
	s := &Site{
		cfg:            cfg,
		prog:           prog,
		in:             make(chan Delivery, 1024),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
		expNames:       map[string]vm.Value{},
		expNameSigs:    map[string]string{},
		expClassSigs:   map[string]string{},
		classSigs:      map[vm.NetClass]string{},
		waiting:        map[int][]vm.Thread{},
		pendingImports: map[int]pendingImport{},
		pendingFetch:   map[uint64]*fetchPending{},
		fetchByClass:   map[vm.NetClass]uint64{},
		fetchCache:     map[vm.NetClass]vm.Value{},
		sentTo:         map[uint32]uint64{},
		recvFrom:       map[uint32]uint64{},
		epoch:          cfg.Epoch,
		peers:          map[uint32]*peerOps{},
		jl:             cfg.Journal,
		tel:            cfg.Telemetry,
	}
	if f, ok := cfg.Router.(interface{ FlushOutbound() }); ok {
		s.flushOut = f.FlushOutbound
	}
	s.m = vm.NewMachine(prog, cfg.Out, s)
	s.m.OnPending = func(t vm.Thread, constIdx int) {
		s.waiting[constIdx] = append(s.waiting[constIdx], t)
	}
	return s
}

// Name returns the site's source-program lexeme.
func (s *Site) Name() string { return s.cfg.Name }

// ID returns the site identifier.
func (s *Site) ID() uint32 { return s.cfg.ID }

// NodeID returns the identifier of the node hosting the site.
func (s *Site) NodeID() uint32 { return s.cfg.NodeID }

// Addr returns the site's network address.
func (s *Site) Addr() Addr { return Addr{Site: s.cfg.ID, Node: s.cfg.NodeID} }

// Epoch returns the site's incarnation number.
func (s *Site) Epoch() uint32 { return s.epoch }

// Machine exposes the underlying VM (benchmarks and tests).
func (s *Site) Machine() *vm.Machine { return s.m }

// Deliver places an item on the site's incoming queue. It is safe to
// call from any goroutine; it blocks when the queue is full
// (backpressure toward the TyCOd).
func (s *Site) Deliver(d Delivery) error {
	if s.cfg.OnSojourn != nil && d.At.IsZero() {
		// Sojourn sampling is on: stamp the enqueue time so handle can
		// report how long the delivery queued. Off, this path costs
		// one nil test.
		d.At = time.Now()
	}
	select {
	case s.in <- d:
		s.noteInput()
		return nil
	case <-s.done:
		return fmt.Errorf("site %s: stopped", s.cfg.Name)
	}
}

// TryDeliver is Deliver's non-blocking form: it reports false (with a
// nil error) when the incoming queue is full, so a scheduler worker
// can arrange a blocking handoff instead of stalling its whole run
// queue on one congested site.
func (s *Site) TryDeliver(d Delivery) (bool, error) {
	if s.cfg.OnSojourn != nil && d.At.IsZero() {
		d.At = time.Now()
	}
	select {
	case <-s.done:
		return false, fmt.Errorf("site %s: stopped", s.cfg.Name)
	default:
	}
	select {
	case s.in <- d:
		s.noteInput()
		return true, nil
	default:
		return false, nil
	}
}

// noteInput runs after every successful enqueue: it clears the parked
// mirror — a site with queued input is by definition not waiting for
// any (the stall detector relies on that, see probe.go) — and rings
// the scheduler wake.
func (s *Site) noteInput() {
	s.probePark(false)
	if s.wake != nil {
		s.wake()
	}
}

// SetWake installs the turn scheduler's wake callback. It must be
// called before the site is started (Load/Run/first Deliver).
func (s *Site) SetWake(fn func()) { s.wake = fn }

// InboxOccupancy reports the incoming queue's fill fraction (0..1) —
// the admission controller's occupancy watermark input. Safe from any
// goroutine.
func (s *Site) InboxOccupancy() float64 {
	return float64(len(s.in)) / float64(cap(s.in))
}

// ExpiredDrops reports deliveries shed because their deadline had
// passed before they were handled.
func (s *Site) ExpiredDrops() uint64 { return s.expiredDrops.Load() }

// FetchRetries reports class fetches re-issued after overload
// pushback.
func (s *Site) FetchRetries() uint64 { return s.fetchRetries.Load() }

// countRecv notes a processed cross-site delivery for termination
// accounting, keyed by originating node. It must run when the delivery
// is handled, not when it is enqueued: a message waiting in the
// incoming queue has to keep the global sent/received counters unequal,
// or the termination detector could declare quiescence with work still
// queued.
func (s *Site) countRecv(src uint32) {
	s.ctrlRecv.Add(1)
	s.ctrlMu.Lock()
	s.recvFrom[src]++
	s.ctrlMu.Unlock()
}

// countSent notes an outgoing cross-site message, keyed by destination
// node.
func (s *Site) countSent(dst uint32) {
	s.ctrlSent.Add(1)
	s.ctrlMu.Lock()
	s.sentTo[dst]++
	s.ctrlMu.Unlock()
}

// ControlState reports (sent, received, idle) for the termination
// detector. Idle is meaningful only between scheduler slices; the
// detector's two-round protocol absorbs the race.
func (s *Site) ControlState() (sent, recv uint64, idle bool) {
	return s.ctrlSent.Load(), s.ctrlRecv.Load(), s.idle.Load()
}

// ControlVectors reports the per-peer-node breakdown of the control
// counters (copies), for failure-aware termination detection.
func (s *Site) ControlVectors() (sentTo, recvFrom map[uint32]uint64, idle bool) {
	s.ctrlMu.Lock()
	defer s.ctrlMu.Unlock()
	sentTo = make(map[uint32]uint64, len(s.sentTo))
	for k, v := range s.sentTo {
		sentTo[k] = v
	}
	recvFrom = make(map[uint32]uint64, len(s.recvFrom))
	for k, v := range s.recvFrom {
		recvFrom[k] = v
	}
	return sentTo, recvFrom, s.idle.Load()
}

// Err returns the site's terminal error, if any.
func (s *Site) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.runErr
}

func (s *Site) setErr(err error) {
	s.errMu.Lock()
	if s.runErr == nil {
		s.runErr = err
	}
	s.errMu.Unlock()
}

// Stop asks the site to exit its run loop.
func (s *Site) Stop() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	// Under a turn scheduler an idle site only runs when woken — ring
	// it so the final Turn observes stop and closes done.
	if s.wake != nil {
		s.wake()
	}
}

// Kill simulates a fail-stop crash: the run loop exits with the given
// error and no orderly shutdown happens. Fault-injection entry point —
// a supervised node restarts killed sites from their journals.
func (s *Site) Kill(err error) {
	s.setErr(err)
	s.Stop()
}

// Done is closed when the run loop has exited.
func (s *Site) Done() <-chan struct{} { return s.done }

// Program is the site's program metadata: the compiled unit plus the
// signatures the type checker derived, used for export registration
// and the dynamic protocol checks on imports.
type Program struct {
	Unit *asm.Unit
	// ExportNameSigs / ExportClassSigs come from types.Info.
	ExportNameSigs  map[string]string
	ExportClassSigs map[string]string
	// ImportSigs is the required interface per imported name.
	ImportSigs map[types.ImportKey]string
}

// Load registers the site with the name service, links the program
// unit (imports become pending constants resolved concurrently), and
// queues the entry thread. Call before Run.
func (s *Site) Load(p *Program) error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ImportTimeout)
	err := s.cfg.NS.RegisterSite(ctx, s.cfg.Name, s.cfg.ID, s.cfg.NodeID, s.epoch)
	cancel()
	if err != nil {
		return fmt.Errorf("site %s: register: %w", s.cfg.Name, err)
	}
	if s.jl != nil {
		// Write-ahead: identity and program first, so a crash at any
		// later point finds enough in the journal to rebuild from.
		importSigs := make([]string, len(p.Unit.Imports))
		for i, imp := range p.Unit.Imports {
			importSigs[i] = p.ImportSigs[types.ImportKey{Site: imp.Site, Name: imp.Name}]
		}
		var w wire.Writer
		encodeProgramRecord(&w, s.cfg.Name, s.cfg.ID, s.cfg.NodeID, p.Unit, p.ExportNameSigs, p.ExportClassSigs, importSigs)
		if err := s.jl.Append(RecProgram, w.Bytes()); err != nil {
			return fmt.Errorf("site %s: journal program: %w", s.cfg.Name, err)
		}
		if err := s.jl.Append(RecEpoch, EncodeEpoch(s.epoch)); err != nil {
			return fmt.Errorf("site %s: journal epoch: %w", s.cfg.Name, err)
		}
	}
	for name, sig := range p.ExportNameSigs {
		s.expNameSigs[name] = sig
	}
	for name, sig := range p.ExportClassSigs {
		s.expClassSigs[name] = sig
	}

	u := p.Unit
	imports := make([]vm.Value, len(u.Imports))
	consts := make([]vm.Value, len(u.Consts))
	for i, k := range u.Consts {
		v, err := s.ingressConst(k)
		if err != nil {
			return err
		}
		consts[i] = v
	}
	// Imports start pending; resolver goroutines fill them in while
	// the program runs (threads touching them park).
	for i := range imports {
		imports[i] = vm.Pending(i)
	}
	linked, err := s.prog.Link(u, imports, consts)
	if err != nil {
		return err
	}
	s.UnitsLinked++
	// The imports' program-level constant indices follow the reloc.
	for i, imp := range u.Imports {
		constIdx := linked.Reloc.Imports[i]
		s.prog.Consts[constIdx] = vm.Pending(constIdx)
		sig := p.ImportSigs[types.ImportKey{Site: imp.Site, Name: imp.Name}]
		s.pendingImports[constIdx] = pendingImport{imp: imp, sig: sig}
		go s.resolveImport(imp, constIdx, sig)
	}
	if linked.Entry >= 0 {
		s.m.Spawn(linked.Entry, nil)
	}
	return nil
}

// resolveImport performs the name-service lookup for one import and
// posts the result to the incoming queue. Lookups run under one overall
// deadline (ImportTimeout) and are retried with exponential backoff on
// transient failures — a lost connection to the central service must
// not kill the site while the exporter is alive and well. An expired
// lease (nameservice.ErrNameExpired) is the same story: the exporter
// died, and its supervised restart will revive the entry.
func (s *Site) resolveImport(imp asm.ImportRef, constIdx int, requiredSig string) {
	deadline := time.Now().Add(s.cfg.ImportTimeout)
	b := backoff.New(backoff.Policy{Initial: 25 * time.Millisecond, Max: time.Second})
	var nc vm.NetClass
	var ref vm.NetRef
	var classSig, nameSig string
	var err error
	for {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		if imp.IsClass {
			nc, classSig, err = s.cfg.NS.LookupClass(ctx, imp.Site, imp.Name)
		} else {
			ref, nameSig, err = s.cfg.NS.LookupName(ctx, imp.Site, imp.Name)
		}
		cancel()
		if err == nil || !time.Now().Before(deadline) {
			break
		}
		if !b.SleepChan(s.stop) {
			return
		}
	}
	var v vm.Value
	if err == nil {
		if imp.IsClass {
			v = vm.NetClassVal(nc)
		} else {
			if requiredSig != "" {
				err = types.CheckNameCompatible(requiredSig, nameSig)
			}
			if err == nil {
				if ref.Site == s.cfg.ID {
					// σ ingress: a reference to ourselves is a local
					// heap pointer.
					if local, ok := s.lookupExport(ref.Heap); ok {
						v = vm.Chan(local)
					} else {
						err = fmt.Errorf("site %s: import %s.%s resolved to unknown local heap id %d", s.cfg.Name, imp.Site, imp.Name, ref.Heap)
					}
				} else {
					v = vm.Net(ref)
				}
			}
		}
	}
	_ = s.Deliver(Delivery{Resolved: &ResolvedImport{ConstIdx: constIdx, Value: v, ClassSig: classSig, Err: err}})
}

// TurnResult is what one scheduler turn concluded about the site.
type TurnResult int

const (
	// TurnMore: runnable work remains — run another turn soon.
	TurnMore TurnResult = iota
	// TurnYield: no runnable work, but a checkpoint is gated on
	// outbound frames still in flight. Re-poll after a short delay
	// rather than parking until the next delivery (the ack that opens
	// the gate arrives without waking the site).
	TurnYield
	// TurnIdle: no runnable work and no queued input — park until the
	// wake callback rings.
	TurnIdle
	// TurnStopped: the site stopped (Stop, machine fault, or panic);
	// done is closed and the site must never be scheduled again.
	TurnStopped
)

// Turn executes one scheduler turn without blocking: drain a bounded
// batch of queued deliveries, run a slice of VM threads, and report
// whether the site has more work, wants a delayed re-poll, or can
// park. Exactly one goroutine may call Turn at a time (the site's
// current owner); the work-stealing scheduler's site state machine
// enforces that. The first Turn performs the deferred start work
// (lease keep-alive, journal restore). A panic is converted into a
// site error so a supervisor watching Done/Err can restart the site
// instead of losing the process.
func (s *Site) Turn() (res TurnResult) {
	defer func() {
		if p := recover(); p != nil {
			s.setErr(fmt.Errorf("site %s: panic: %v", s.cfg.Name, p))
			s.finish()
			res = TurnStopped
		}
	}()
	if !s.began {
		s.began = true
		if s.cfg.LeaseRefresh > 0 {
			go s.keepAlive()
		}
		if l := s.restoreLog; l != nil {
			s.restoreLog = nil
			if err := s.restore(l); err != nil {
				s.setErr(fmt.Errorf("site %s: recovery: %w", s.cfg.Name, err))
				s.finish()
				return TurnStopped
			}
		}
	}
	select {
	case <-s.stop:
		s.finish()
		return TurnStopped
	default:
	}
	s.probeTick()
	// Drain a bounded batch of queued deliveries: a burst (e.g. an
	// unpacked FBatch) is handled in bulk rather than one delivery
	// per VM slice, but cannot starve the VM either.
	got := 0
	for drained := 0; drained < s.cfg.InboxBatch; drained++ {
		var d Delivery
		select {
		case d = <-s.in:
		default:
			drained = s.cfg.InboxBatch
			continue
		}
		got++
		s.idle.Store(false)
		if err := s.handle(d); err != nil {
			s.setErr(err)
			s.finish()
			return TurnStopped
		}
	}
	s.tel.ObserveInboxDepth(got)
	// Run a slice of threads.
	n, err := s.m.RunSlice(s.cfg.PollInterval)
	if err != nil {
		s.setErr(err)
		s.finish()
		return TurnStopped
	}
	if n > 0 || len(s.in) > 0 {
		return TurnMore
	}
	// Nothing runnable. "Idle" for the termination detector
	// additionally means no thread is parked on an import and no
	// fetch is in flight.
	s.idle.Store(len(s.waiting) == 0 && len(s.pendingFetch) == 0)
	// About to park: anything this site routed out must hit the
	// wire now — replies we are waiting for may depend on it, and
	// the checkpoint gate below counts coalesced frames as unacked.
	if s.flushOut != nil {
		s.flushOut()
	}
	if s.maybeCheckpoint() {
		return TurnYield
	}
	if len(s.in) > 0 {
		return TurnMore
	}
	s.probePark(true)
	return TurnIdle
}

// finish closes done exactly once; the site is terminal afterwards.
func (s *Site) finish() {
	s.finishOnce.Do(func() { close(s.done) })
}

// Run is the legacy dedicated-goroutine scheduler loop (node
// SchedConfig.Serial, direct embedders, and the site unit tests):
// turns run back-to-back, and the goroutine itself blocks on the
// incoming queue when a turn parks. It returns when Stop is called or
// the machine faults.
func (s *Site) Run() {
	defer s.finish()
	defer func() {
		if p := recover(); p != nil {
			s.setErr(fmt.Errorf("site %s: panic: %v", s.cfg.Name, p))
		}
	}()
	for {
		switch s.Turn() {
		case TurnMore:
		case TurnYield:
			t := time.NewTimer(time.Millisecond)
			s.probePark(true)
			select {
			case d := <-s.in:
				t.Stop()
				s.probePark(false)
				s.idle.Store(false)
				if err := s.handle(d); err != nil {
					s.setErr(err)
					return
				}
			case <-t.C:
			case <-s.stop:
				t.Stop()
				return
			}
		case TurnIdle:
			select {
			case d := <-s.in:
				s.probePark(false)
				s.idle.Store(false)
				if err := s.handle(d); err != nil {
					s.setErr(err)
					return
				}
			case <-s.stop:
				return
			}
		case TurnStopped:
			return
		}
	}
}

// keepAlive refreshes the site's name-service lease until the site
// stops. Errors are ignored: transient service trouble must not kill
// the site, and a "superseded" verdict means a recovered incarnation
// took over — this one's traffic is fenced everywhere anyway.
func (s *Site) keepAlive() {
	t := time.NewTicker(s.cfg.LeaseRefresh)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), s.cfg.LeaseRefresh)
			err := s.cfg.NS.KeepAlive(ctx, s.cfg.Name, s.epoch)
			cancel()
			// Mirror the lease state for /healthz: a refresh that keeps
			// failing is an operator-visible condition even though it
			// must not kill the site.
			if err != nil {
				s.leaseErr.Store(err.Error())
			} else {
				s.leaseErr.Store("")
			}
		case <-s.stop:
			return
		case <-s.done:
			return
		}
	}
}

// handle processes one incoming-queue item on the site goroutine:
// fence and deduplicate by operation identity, journal (write-ahead),
// then apply. The dedup key is (site, id) ignoring the epoch — a
// recovered sender re-ships its pre-crash operations with the same
// ids under a higher epoch, and those must still read as duplicates.
// Dropped operations never touch the termination counters: the
// original acceptance already counted them.
func (s *Site) handle(d Delivery) error {
	if s.cfg.OnSojourn != nil && !d.At.IsZero() {
		s.cfg.OnSojourn(time.Since(d.At))
	}
	var p *peerOps // the sender's entry: the one map lookup of the hot path
	if !d.Op.IsZero() {
		if p = s.peers[d.Op.Site]; p != nil {
			if d.Op.Epoch < p.maxEpoch {
				s.StaleDrops++
				return nil
			}
			if p.applied.has(d.Op.ID) {
				s.DupDrops++
				return nil
			}
		}
	}
	if d.Resolved == nil && d.Refetch == nil {
		s.countRecv(d.Src)
	}
	if (d.Msg != nil || d.Obj != nil) && d.Deadline != 0 &&
		time.Now().UnixMicro() > int64(d.Deadline) {
		// The deadline passed while the delivery queued: shed it
		// unapplied (counted, after the termination accounting above —
		// the sender counted it sent, so the drop must still read as
		// received). It is deliberately NOT marked applied: any
		// retransmitted copy arrives even later and sheds here again,
		// so at-most-once still holds. Fetch traffic is exempt — a
		// shed request would strand the requester's parked threads.
		s.expiredDrops.Add(1)
		s.tel.AddCounter("deadline.expired", 1)
		return nil
	}
	if s.jl != nil && !s.replaying && d.Refetch == nil && !(d.Resolved != nil && d.Resolved.Err != nil) {
		// Append before apply: a crash between journal and effect
		// replays the delivery; a crash between effect and journal
		// cannot happen. Failed resolutions are not journaled — they
		// kill the site below, and the restarted incarnation should
		// retry the lookup rather than replay the failure.
		data, err := s.encodeDelivery(d)
		if err != nil {
			return err
		}
		if err := s.jl.Append(RecDelivery, data); err != nil {
			return fmt.Errorf("site %s: journal delivery: %w", s.cfg.Name, err)
		}
	}
	// Apply under the delivery's trace and deadline: threads and queue
	// entries the effect creates inherit its causal context, and
	// operations it routes out inherit its expiry. Replayed deliveries
	// carry neither (journals don't persist them).
	s.m.SetAmbient(d.Trace)
	s.curDeadline = d.Deadline
	err := s.apply(d)
	s.curDeadline = 0
	s.m.SetAmbient(0)
	if err != nil {
		return err
	}
	if s.tel != nil && d.Resolved == nil && d.Refetch == nil {
		s.tel.Deliver(d.Trace, d.frameType(), d.Op, s.cfg.ID, d.Src == s.cfg.NodeID)
	}
	if !d.Op.IsZero() {
		if p == nil {
			// First contact (the apply may have created the entry by
			// replying).
			p = s.peer(d.Op.Site)
		}
		p.maxEpoch = max(p.maxEpoch, d.Op.Epoch)
		p.applied.add(d.Op.ID)
	}
	s.sinceCkpt++
	return nil
}

// apply performs one delivery's effect on the machine.
func (s *Site) apply(d Delivery) error {
	switch {
	case d.Msg != nil:
		local, ok := s.lookupExport(d.Msg.Heap)
		if !ok {
			return fmt.Errorf("site %s: message for unknown heap id %d", s.cfg.Name, d.Msg.Heap)
		}
		// The machine copies the arguments into the method's frame (or
		// the channel's queue), so they pass through the scratch buffer.
		args, err := s.ingressVals(s.ingress[:0], d.Msg.Args, nil)
		if err != nil {
			return err
		}
		err = s.m.DeliverMsg(local, s.prog.LabelIndex(d.Msg.Label), args)
		clear(args)
		s.ingress = args
		return err

	case d.Obj != nil:
		local, ok := s.lookupExport(d.Obj.Heap)
		if !ok {
			return fmt.Errorf("site %s: object for unknown heap id %d", s.cfg.Name, d.Obj.Heap)
		}
		linked, err := s.linkCode(d.Obj.Code)
		if err != nil {
			return err
		}
		frame, err := s.ingressVals(nil, d.Obj.Frame, linked)
		if err != nil {
			return err
		}
		table, ok := linked.Reloc.Tables[d.Obj.Table]
		if !ok {
			return fmt.Errorf("site %s: migrated object references missing table %d", s.cfg.Name, d.Obj.Table)
		}
		return s.m.DeliverObj(local, table, frame)

	case d.Fetch != nil:
		return s.serveFetch(d.Fetch)

	case d.FetchRep != nil:
		return s.handleFetchRep(d.FetchRep)

	case d.Refetch != nil:
		return s.refetch(d.Refetch.ReqID)

	case d.Resolved != nil:
		r := d.Resolved
		if r.Err != nil {
			return fmt.Errorf("site %s: import resolution: %w", s.cfg.Name, r.Err)
		}
		s.prog.Consts[r.ConstIdx] = r.Value
		if r.Value.Kind == vm.KNetClass && r.ClassSig != "" {
			s.classSigs[r.Value.AsNetClass()] = r.ClassSig
		}
		for _, t := range s.waiting[r.ConstIdx] {
			s.m.Requeue(t)
		}
		delete(s.waiting, r.ConstIdx)
		delete(s.pendingImports, r.ConstIdx)
		return nil

	default:
		return fmt.Errorf("site %s: empty delivery", s.cfg.Name)
	}
}
