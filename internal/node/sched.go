package node

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/site"
)

// The node's work-stealing turn scheduler (DESIGN.md §15): P workers,
// each with a private deque of ready sites, multiplex every site's
// turns over the cores instead of dedicating a goroutine per site.
// Sites stay internally sequential — the per-site state machine below
// guarantees at most one worker owns a site at any moment, so the
// journal layer's per-site replay determinism is untouched — but
// different sites' turns run genuinely in parallel.
//
// The state machine (one atomic word per site):
//
//	idle ──wake──▶ queued ──worker──▶ running ──TurnIdle──▶ idle
//	                 ▲                   │ wake
//	                 │                   ▼
//	                 └──owner──── runningDirty
//
// A wake against an idle site queues it; against a running site it
// marks the turn dirty so the owning worker re-queues instead of
// parking it — input enqueued during a turn is never lost. Queued and
// dirty sites absorb further wakes for free, so a message burst costs
// one push however long it is.

// SchedConfig configures the node's work-stealing turn scheduler.
type SchedConfig struct {
	// Workers is the worker-goroutine count; 0 means GOMAXPROCS.
	// Workers: 1 with a fixed Seed is the serial reference the
	// per-site journal-determinism test compares a pool against.
	Workers int
	// Seed perturbs the workers' steal-victim selection; 0 derives a
	// fixed default. Victim choice is heuristic either way — the seed
	// exists so soak tests can vary it deterministically.
	Seed int64
}

// Per-site scheduler states (schedSite.state).
const (
	siteIdle uint32 = iota
	siteQueued
	siteRunning
	siteRunningDirty
	siteStopped
)

// turnBudget is how many consecutive TurnMore turns a worker gives one
// site before re-queueing it behind its deque — locality without
// starving siblings.
const turnBudget = 4

// maxSpares bounds the ephemeral steal-only workers spawned to cover
// for workers blocked in an inbox handoff (coverBlocking). Far above
// any sane concurrent-blocking count; purely a goroutine-storm
// backstop.
const maxSpares = 256

// schedSite is one site's scheduler handle.
type schedSite struct {
	s     *site.Site
	state atomic.Uint32
	// home is the worker whose deque external wakes push to — updated
	// to the last worker that ran the site, so repeated wakes keep a
	// site cache-local and pushes shard across deques instead of
	// funnelling through one global queue.
	home atomic.Int32
}

// worker is one scheduler worker: a deque of ready sites plus a
// single-site LIFO slot for the freshest wake.
type worker struct {
	id  int
	sch *scheduler

	mu   sync.Mutex
	lifo *schedSite // hottest site (dirty re-queue); taken before dq
	dq   siteDeque

	rng    uint64
	depth  atomic.Int64  // dq.n + lifo slot, for lock-free peeking
	steals atomic.Uint64 // successful steal batches by this worker
}

// scheduler owns the worker pool of one node.
type scheduler struct {
	workers []*worker

	// mu guards the park/spare bookkeeping only; pushes and steals
	// never take it on their fast path.
	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	spares int

	// parked mirrors the count of workers waiting (or committed to
	// waiting) on cond. Written under mu; read lock-free by pushers to
	// skip the signal when everyone is busy. The skip is safe only
	// because parkers announce here BEFORE their final work re-check
	// (see take): seqcst orders the pusher's depth-increment/parked-load
	// against the parker's parked-increment/depth-scan, so one side
	// always observes the other.
	parked atomic.Int32

	nextHome   atomic.Uint32
	sparesEver atomic.Uint64
	wg         sync.WaitGroup
}

// newScheduler starts the worker pool.
func newScheduler(cfg SchedConfig) *scheduler {
	p := cfg.Workers
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	seed := uint64(cfg.Seed)
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	sch := &scheduler{workers: make([]*worker, p)}
	sch.cond = sync.NewCond(&sch.mu)
	// Fully populate the pool before starting any worker: a started
	// worker immediately scans sch.workers for steal victims.
	for i := range sch.workers {
		sch.workers[i] = &worker{id: i, sch: sch, rng: splitmix(seed + uint64(i))}
	}
	for _, w := range sch.workers {
		sch.wg.Add(1)
		go w.loop(false)
	}
	return sch
}

// splitmix is the splitmix64 finalizer: seeds and steps the workers'
// victim-selection generators.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// add registers a site with the scheduler. The returned handle starts
// in the queued-but-held state: wakes (import resolutions racing in
// during Load) are absorbed without running a turn until start pushes
// the site onto a deque — the node publishes the site in its tables
// first, so a site's first turn never observes a half-registered node.
func (sch *scheduler) add(s *site.Site) *schedSite {
	ss := &schedSite{s: s}
	ss.state.Store(siteQueued)
	ss.home.Store(int32(sch.nextHome.Add(1) % uint32(len(sch.workers))))
	s.SetWake(func() { sch.wake(ss) })
	return ss
}

// start releases a held site onto its home worker's deque.
func (sch *scheduler) start(ss *schedSite) { sch.push(ss, nil) }

// wake transitions a site toward "will run a turn soon". Safe from any
// goroutine; called by the site's input path and Stop.
func (sch *scheduler) wake(ss *schedSite) {
	for {
		switch ss.state.Load() {
		case siteIdle:
			if ss.state.CompareAndSwap(siteIdle, siteQueued) {
				sch.push(ss, nil)
				return
			}
		case siteRunning:
			if ss.state.CompareAndSwap(siteRunning, siteRunningDirty) {
				return
			}
		default: // queued, runningDirty, stopped: nothing to do
			return
		}
	}
}

// push appends a queued site to a deque — w's own (lifo slot first)
// when the caller is a pool worker, the site's home deque otherwise —
// and signals a parked worker if any.
func (sch *scheduler) push(ss *schedSite, w *worker) {
	tw := w
	if tw == nil || tw.id < 0 {
		tw = sch.workers[int(ss.home.Load())%len(sch.workers)]
	}
	tw.mu.Lock()
	if w == tw && tw.lifo == nil {
		tw.lifo = ss
	} else {
		tw.dq.pushNewest(ss)
	}
	tw.depth.Add(1)
	tw.mu.Unlock()
	if sch.parked.Load() > 0 {
		sch.mu.Lock()
		sch.cond.Signal()
		sch.mu.Unlock()
	}
}

// coverBlocking is called by a worker (or anything running a site
// turn) about to block in a full-inbox Deliver handoff. If a parked
// worker exists it is signalled to take over the blocked worker's
// deque (by stealing); otherwise a spare steal-only worker is spawned
// so the pool never loses its last progress agent — the site that must
// drain the full inbox needs a worker to run on.
func (sch *scheduler) coverBlocking() {
	sch.mu.Lock()
	defer sch.mu.Unlock()
	if sch.closed {
		return
	}
	if sch.parked.Load() > 0 {
		sch.cond.Signal()
		return
	}
	if sch.spares >= maxSpares {
		return
	}
	sch.spares++
	sch.sparesEver.Add(1)
	w := &worker{id: -1, sch: sch, rng: splitmix(sch.sparesEver.Load())}
	sch.wg.Add(1)
	go w.loop(true)
}

// close shuts the pool down. The node stops (and waits out) every site
// first, so workers exiting with empty deques is the normal case.
func (sch *scheduler) close() {
	sch.mu.Lock()
	sch.closed = true
	sch.cond.Broadcast()
	sch.mu.Unlock()
	sch.wg.Wait()
}

// schedStats is the introspection snapshot (node.Status, /metrics).
type schedStats struct {
	workers int
	parked  int
	spares  int
	steals  uint64
	queues  []int
}

func (sch *scheduler) stats() schedStats {
	st := schedStats{workers: len(sch.workers), queues: make([]int, len(sch.workers))}
	for i, w := range sch.workers {
		st.queues[i] = int(w.depth.Load())
		st.steals += w.steals.Load()
	}
	st.parked = int(sch.parked.Load())
	sch.mu.Lock()
	st.spares = sch.spares
	sch.mu.Unlock()
	return st
}

// loop is the worker body. Spare workers (spawned by coverBlocking)
// own no deque: they only steal, and exit instead of parking.
func (w *worker) loop(spare bool) {
	defer w.sch.wg.Done()
	for {
		ss := w.take(spare)
		if ss == nil {
			return
		}
		w.run(ss)
	}
}

// take returns the next site to run: own lifo slot, then own deque,
// then a steal from a random sibling; parks (or, for spares, exits)
// when everything is empty.
func (w *worker) take(spare bool) *schedSite {
	for {
		if !spare {
			if ss := w.pop(); ss != nil {
				return ss
			}
		}
		if ss := w.steal(); ss != nil {
			return ss
		}
		sch := w.sch
		sch.mu.Lock()
		for {
			if sch.closed {
				sch.mu.Unlock()
				return nil
			}
			if spare {
				if sch.anyWork() {
					break
				}
				sch.spares--
				sch.mu.Unlock()
				return nil
			}
			// Announce parking BEFORE the work re-check. push does
			// depth.Add(1) then reads parked to decide whether to
			// signal; with both seqcst, a pusher that read parked==0
			// (and skipped the signal) ordered its depth increment
			// before our anyWork scan, so we see the work and do not
			// wait. Checking first reopens the lost-wakeup window: work
			// arrives and parked==0 is read between our scan and our
			// announce, and the site sits queued with every worker
			// parked.
			sch.parked.Add(1)
			if sch.anyWork() {
				sch.parked.Add(-1)
				break
			}
			sch.cond.Wait()
			sch.parked.Add(-1)
		}
		sch.mu.Unlock()
	}
}

// anyWork reports whether any deque holds a site. Called under sch.mu
// by parking workers; the depth gauges are atomics, so pushers need no
// lock to make their work visible.
func (sch *scheduler) anyWork() bool {
	for _, w := range sch.workers {
		if w.depth.Load() > 0 {
			return true
		}
	}
	return false
}

// pop takes from the worker's own queues: lifo slot first (freshest
// wake, hottest cache), then the newest deque entry.
func (w *worker) pop() *schedSite {
	w.mu.Lock()
	defer w.mu.Unlock()
	if ss := w.lifo; ss != nil {
		w.lifo = nil
		w.depth.Add(-1)
		return ss
	}
	if ss := w.dq.popNewest(); ss != nil {
		w.depth.Add(-1)
		return ss
	}
	return nil
}

// steal scans the pool from a random start and takes half a victim's
// deque (oldest entries — the opposite end from the owner's pops). The
// first stolen site is returned to run now; the rest move to the
// thief's own deque (spares, which have none, steal a single site).
func (w *worker) steal() *schedSite {
	sch := w.sch
	n := len(sch.workers)
	w.rng = splitmix(w.rng)
	start := int(w.rng % uint64(n))
	for i := 0; i < n; i++ {
		v := sch.workers[(start+i)%n]
		if v == w || v.depth.Load() == 0 {
			continue
		}
		batch := w.stealFrom(v)
		if len(batch) == 0 {
			continue
		}
		w.steals.Add(1)
		ss := batch[0]
		if rest := batch[1:]; len(rest) > 0 {
			w.mu.Lock()
			for _, ss := range rest {
				w.dq.pushNewest(ss)
			}
			w.depth.Add(int64(len(rest)))
			w.mu.Unlock()
		}
		return ss
	}
	return nil
}

// stealFrom takes up to half of v's deque (at least one entry), from
// the oldest end; the lifo slot is taken only when the deque is empty.
func (w *worker) stealFrom(v *worker) []*schedSite {
	v.mu.Lock()
	defer v.mu.Unlock()
	if n := v.dq.n; n > 0 {
		k := (n + 1) / 2
		if w.id < 0 { // spare: single site, no deque to hold more
			k = 1
		}
		batch := make([]*schedSite, k)
		for i := range batch {
			batch[i] = v.dq.popOldest()
		}
		v.depth.Add(-int64(k))
		return batch
	}
	if ss := v.lifo; ss != nil {
		v.lifo = nil
		v.depth.Add(-1)
		return []*schedSite{ss}
	}
	return nil
}

// run owns one site for up to turnBudget turns.
func (w *worker) run(ss *schedSite) {
	if !ss.state.CompareAndSwap(siteQueued, siteRunning) {
		return // stopped while queued
	}
	if w.id >= 0 {
		ss.home.Store(int32(w.id))
	}
	for turns := 0; ; turns++ {
		// We are about to drain the inbox, so a dirty mark set before
		// this point is already covered; clear it to re-arm wakes.
		ss.state.CompareAndSwap(siteRunningDirty, siteRunning)
		switch ss.s.Turn() {
		case site.TurnMore:
			if turns+1 >= turnBudget {
				w.requeue(ss)
				return
			}
		case site.TurnYield:
			// Checkpoint gated on in-flight outbound frames: park, but
			// re-poll shortly — the ack that opens the gate arrives
			// without waking the site.
			w.idle(ss, true)
			return
		case site.TurnIdle:
			w.idle(ss, false)
			return
		case site.TurnStopped:
			ss.state.Store(siteStopped)
			return
		}
	}
}

// requeue puts a still-runnable site at the back of the worker's own
// deque (never the lifo slot: the budget exists to round-robin).
func (w *worker) requeue(ss *schedSite) {
	if !ss.state.CompareAndSwap(siteRunning, siteQueued) {
		ss.state.Store(siteQueued) // was runningDirty; we still own it
	}
	tw := w
	if w.id < 0 {
		tw = nil // spares push to the site's home deque
	}
	if tw != nil {
		tw.mu.Lock()
		tw.dq.pushOldest(ss)
		tw.depth.Add(1)
		tw.mu.Unlock()
		if w.sch.parked.Load() > 0 {
			w.sch.mu.Lock()
			w.sch.cond.Signal()
			w.sch.mu.Unlock()
		}
		return
	}
	w.sch.push(ss, nil)
}

// idle parks a site that reported no work — unless a wake raced in
// during the turn (runningDirty), in which case it re-queues hot via
// the lifo slot.
func (w *worker) idle(ss *schedSite, yield bool) {
	if ss.state.CompareAndSwap(siteRunning, siteIdle) {
		if yield {
			sch := w.sch
			time.AfterFunc(time.Millisecond, func() { sch.wake(ss) })
		}
		return
	}
	// runningDirty: fresh input arrived mid-turn.
	ss.state.Store(siteQueued)
	w.sch.push(ss, w)
}

// siteDeque is a worker's queue of ready sites: a ring that doubles
// when full and never shrinks, so in steady state no push allocates.
// The owner pushes and pops at the newest end; requeue inserts, and
// thieves take, at the oldest. A popped slot is cleared, so the ring
// keeps no site alive that it no longer queues.
type siteDeque struct {
	ring []*schedSite // nil, or a power-of-two length
	head int          // index of the oldest entry
	n    int
}

func (d *siteDeque) grow() {
	ring := make([]*schedSite, max(2*len(d.ring), 8))
	for i := 0; i < d.n; i++ {
		ring[i] = d.ring[(d.head+i)&(len(d.ring)-1)]
	}
	d.ring, d.head = ring, 0
}

func (d *siteDeque) pushNewest(ss *schedSite) {
	if d.n == len(d.ring) {
		d.grow()
	}
	d.ring[(d.head+d.n)&(len(d.ring)-1)] = ss
	d.n++
}

func (d *siteDeque) pushOldest(ss *schedSite) {
	if d.n == len(d.ring) {
		d.grow()
	}
	d.head = (d.head - 1) & (len(d.ring) - 1)
	d.ring[d.head] = ss
	d.n++
}

func (d *siteDeque) popNewest() *schedSite {
	if d.n == 0 {
		return nil
	}
	d.n--
	i := (d.head + d.n) & (len(d.ring) - 1)
	ss := d.ring[i]
	d.ring[i] = nil
	return ss
}

func (d *siteDeque) popOldest() *schedSite {
	if d.n == 0 {
		return nil
	}
	ss := d.ring[d.head]
	d.ring[d.head] = nil
	d.head = (d.head + 1) & (len(d.ring) - 1)
	d.n--
	return ss
}
