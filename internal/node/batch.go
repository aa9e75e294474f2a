package node

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// BatchConfig tunes the per-peer outbound coalescer that packs
// multiple envelopes into one FBatch frame before they reach the
// transport (and, with Reliability on, one FData packet — so a batch
// of N mobility ops also costs one ack instead of N).
type BatchConfig struct {
	// Disable turns coalescing off: every envelope is flushed as its
	// own frame immediately and synchronously (the ablation baseline
	// for E11).
	Disable bool
	// MaxBytes caps a peer's frame, with the headroom the reliable
	// layer writes its header into (default 32KB): the flusher cuts the
	// frame before an entry that would cross it, mid-drain, so only a
	// single oversized entry (or a piggybacked gossip entry) makes a
	// larger one. The default keeps each frame in Go's largest small
	// size class; one byte more is a large object, rounded up to whole
	// 8 KiB pages.
	MaxBytes int
	// MaxDelay bounds how long a coalesced envelope may wait for
	// company before the flusher ships it (default 200µs). Sites flush
	// explicitly before parking idle, so this deadline is a backstop
	// for steadily-busy sites, not the idle-latency path.
	MaxDelay time.Duration
	// MaxQueueBytes caps one peer's outbound ring by encoded payload
	// size (default 1MB). A producer hitting the cap blocks until the
	// flusher drains — the same natural backpressure the pre-ring
	// design applied by blocking the sending site on reliable-window
	// space, so a site outrunning a congested peer cannot grow the
	// ring without bound. It also bounds what a ring retains between
	// bursts: two payload arenas of at most this size (plus one entry)
	// each.
	MaxQueueBytes int
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.MaxBytes <= 0 {
		c.MaxBytes = 32 << 10
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 200 * time.Microsecond
	}
	if c.MaxQueueBytes <= 0 {
		c.MaxQueueBytes = 1 << 20
	}
	return c
}

// coalescer owns one outbound ring per destination node, each drained
// by a dedicated flusher goroutine (DESIGN.md §15). Producers — site
// turns running on any scheduler worker — encode their payload into a
// pooled writer outside every lock, copy the bytes into the ring's
// arena under the ring lock, and return; only the flusher touches the
// BatchBuilder and the
// transport, so site execution never contends with wire encoding and
// only blocks on window backpressure indirectly, through the ring's
// MaxQueueBytes cap — a producer outrunning a congested peer waits for
// the flusher to drain rather than growing the ring without bound.
// The flusher ships the accumulated
// frame on the first of: size threshold, delay deadline, explicit
// flush request (site parking idle, control traffic), or shutdown.
//
// The park/flush race under multiple workers is closed structurally: a
// flush request only kicks the flusher, and an envelope enqueued by
// worker B while worker A's flush is in flight either joins the frame
// being built or starts a new one whose MaxDelay timer is armed by the
// flusher itself — a sub-deadline batch can no longer be stranded by
// an unlucky interleaving of park and enqueue.
type coalescer struct {
	n   *Node
	cfg BatchConfig

	mu     sync.Mutex // peer directory + closed flag
	peers  map[uint32]*peerRing
	closed bool
	stopCh chan struct{}
	wg     sync.WaitGroup

	// syncMu serializes the synchronous paths (Disable mode, and
	// enqueues after close) that build single-frame batches in place.
	syncMu sync.Mutex
	syncBB *wire.BatchBuilder

	// pend counts envelopes enqueued but not yet recorded by the
	// reliable layer. The checkpoint gate includes it: a frame in a
	// ring or in flight is invisible to Reliable.Unacked, and a
	// checkpoint must not presume it delivered.
	pend atomic.Int64
}

// outMsg is one encoded envelope waiting in a peer's ring. Its payload
// sits in the ring's arena, from the previous entry's end to end.
type outMsg struct {
	trace    uint64
	deadline uint64 // absolute expiry, unix micros (0 = none)
	end      int    // arena offset one past the payload
	t        wire.FrameType
	flush    bool // ship the frame as soon as this entry is aboard
}

// outBuf is one half of a ring's double buffer: the queued entries and
// the arena that owns their payload bytes.
type outBuf struct {
	q     []outMsg
	arena []byte
}

// payloads calls f with every entry and its payload, in queue order.
func (b *outBuf) payloads(f func(m *outMsg, payload []byte)) {
	start := 0
	for i := range b.q {
		m := &b.q[i]
		f(m, b.arena[start:m.end])
		start = m.end
	}
}

// peerRing is one peer's outbound MPSC ring plus its flusher state.
// Producers fill buf; the flusher swaps it for the buffer it emptied on
// its previous wakeup (take), so in steady state neither the queue nor
// the payload bytes are allocated per message. An arena grows by
// doubling but never past MaxQueueBytes plus the entry being added, so
// a ring retains at most two arenas of that size however it was once
// loaded.
type peerRing struct {
	c   *coalescer
	dst uint32

	mu    sync.Mutex
	buf   outBuf     // len(buf.arena) is what MaxQueueBytes caps
	space *sync.Cond // on mu: signalled when the flusher drains buf
	dead  bool       // flusher exited; late producers send synchronously

	kick     chan struct{} // cap 1: "the ring is non-empty"
	flushReq atomic.Bool   // ship everything on the next wakeup
}

func newCoalescer(n *Node, cfg BatchConfig) *coalescer {
	return &coalescer{
		n:      n,
		cfg:    cfg.withDefaults(),
		peers:  map[uint32]*peerRing{},
		stopCh: make(chan struct{}),
		syncBB: wire.NewBatchBuilder(),
	}
}

// enqueue appends one envelope to dst's ring; payload streams the
// envelope payload into a pooled writer. trace is the mobility trace
// stamped on the envelope header (0 = untraced); deadline is the
// envelope's absolute expiry in unix micros (0 = none).
func (c *coalescer) enqueue(dst uint32, t wire.FrameType, trace, deadline uint64, payload func(*wire.Writer)) error {
	return c.add(dst, t, trace, deadline, payload, false)
}

// enqueueFlush appends one envelope and requests an immediate flush:
// latency-sensitive control traffic (termination probes) rides along
// with whatever data is already waiting for the peer.
func (c *coalescer) enqueueFlush(dst uint32, t wire.FrameType, payload func(*wire.Writer)) error {
	return c.add(dst, t, 0, 0, payload, true)
}

func (c *coalescer) add(dst uint32, t wire.FrameType, trace, deadline uint64, payload func(*wire.Writer), flush bool) error {
	if c.cfg.Disable {
		return c.sendSync(dst, t, trace, deadline, payload)
	}
	// Encode outside every lock: the payload callback walks site heap
	// structures, and serializing that against other producers (or the
	// flusher) would put wire encoding back on the critical path.
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	payload(w)
	b := w.Bytes()
	// Rings that are gone (node stopping) leave the synchronous path.
	resend := func(w *wire.Writer) { w.Raw(b) }

	p := c.ring(dst)
	if p == nil {
		return c.sendSync(dst, t, trace, deadline, resend)
	}
	p.mu.Lock()
	if !p.dead && len(p.buf.arena) >= c.cfg.MaxQueueBytes {
		// Ring full: the flusher is behind (blocked on window
		// backpressure or a down peer), so block the producer — the
		// cap turns a runaway sender back into the pre-ring blocking
		// semantics instead of unbounded memory. The producer is
		// usually a scheduler worker mid-turn, so cover it first: a
		// parked sibling (or a spare) keeps the pool draining while
		// this one waits.
		p.mu.Unlock()
		c.n.sched.coverBlocking()
		p.mu.Lock()
		for !p.dead && len(p.buf.arena) >= c.cfg.MaxQueueBytes {
			p.space.Wait()
		}
	}
	if p.dead {
		p.mu.Unlock()
		return c.sendSync(dst, t, trace, deadline, resend)
	}
	p.buf.arena = append(growArena(p.buf.arena, len(b), c.cfg.MaxQueueBytes), b...)
	p.buf.q = append(p.buf.q, outMsg{t: t, trace: trace, deadline: deadline, flush: flush, end: len(p.buf.arena)})
	c.pend.Add(1)
	p.mu.Unlock()
	if flush {
		p.flushReq.Store(true)
	}
	select {
	case p.kick <- struct{}{}:
	default: // a kick is already pending; it covers this entry
	}
	return nil
}

// growArena makes room for n more bytes. The arena is below limit
// (MaxQueueBytes) whenever an entry is added, so limit+n always fits
// the entry, and capping the doubling there bounds what the ring
// retains once a burst has passed.
func growArena(a []byte, n, limit int) []byte {
	if len(a)+n <= cap(a) {
		return a
	}
	grown := make([]byte, len(a), min(max(2*cap(a), len(a)+n), limit+n))
	copy(grown, a)
	return grown
}

// take hands the flusher everything queued and leaves idle — the
// buffer the flusher emptied last time — for the producers to fill.
func (p *peerRing) take(idle outBuf) outBuf {
	idle.q, idle.arena = idle.q[:0], idle.arena[:0]
	p.mu.Lock()
	full := p.buf
	p.buf = idle
	p.space.Broadcast() // producers blocked on the cap may proceed
	p.mu.Unlock()
	return full
}

// ring returns dst's ring, creating it (and its flusher) on first use;
// nil after close.
func (c *coalescer) ring(dst uint32) *peerRing {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	p := c.peers[dst]
	if p == nil {
		p = &peerRing{c: c, dst: dst, kick: make(chan struct{}, 1)}
		p.space = sync.NewCond(&p.mu)
		c.peers[dst] = p
		c.wg.Add(1)
		go p.loop()
	}
	return p
}

// sendSync builds and ships a single-envelope frame in place: the
// Disable ablation, and the post-close stragglers. Single-entry
// batches flatten to plain envelopes on the wire.
func (c *coalescer) sendSync(dst uint32, t wire.FrameType, trace, deadline uint64, payload func(*wire.Writer)) error {
	c.syncMu.Lock()
	bb := c.syncBB
	w := bb.BeginEntry(t, c.n.cfg.ID, dst, trace, deadline)
	payload(w)
	bb.EndEntry()
	c.piggyback(bb, dst)
	c.n.tel.ObserveBatch(bb.Count(), bb.Len())
	var expiry time.Time
	if deadline != 0 {
		expiry = time.UnixMicro(int64(deadline))
	}
	frame := bb.TakeFramed()
	c.syncMu.Unlock()
	return c.n.sendExpiring(dst, frame, expiry)
}

// loop is a peer's flusher: it drains the ring into a BatchBuilder and
// ships the frame on size (checked at every entry, so a deep ring
// leaves as a run of MaxBytes frames), deadline, flush request, or
// shutdown.
func (p *peerRing) loop() {
	c := p.c
	defer c.wg.Done()
	bb := wire.NewBatchBuilder()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	// Frame-level expiry for the reliable layer: the latest entry
	// deadline, valid only while every entry has one (undeadlined
	// entries pin the whole frame to "never expires" — shedding the
	// frame would shed them too).
	var maxExpiry uint64
	var undeadlined bool
	inFrame := 0 // ring entries aboard the builder, for pend accounting

	flushNow := func() {
		if bb.Count() == 0 {
			return
		}
		c.piggyback(bb, p.dst)
		c.n.tel.ObserveBatch(bb.Count(), bb.Len())
		var expiry time.Time
		if !undeadlined && maxExpiry != 0 {
			expiry = time.UnixMicro(int64(maxExpiry))
		}
		frame := bb.TakeFramed()
		maxExpiry, undeadlined = 0, false
		// Transmission failures here are loss, which the reliable layer
		// (when on) recovers; there is no site on this path to surface
		// an error to.
		_ = c.n.sendExpiring(p.dst, frame, expiry)
		// Decrement only after the send: Reliable.Send records the
		// frame as unacked synchronously, so the checkpoint gate never
		// sees a window where an envelope counts in neither pend nor
		// Unacked.
		c.pend.Add(int64(-inFrame))
		inFrame = 0
	}
	var batch outBuf // what the last take returned; empty by the next one
	for {
		armed := false
		var stop bool
		select {
		case <-p.kick:
		case <-timer.C:
			flushNow()
			continue
		case <-c.stopCh:
			stop = true
		}
		if !stop {
			// A frame was already building before this wakeup: its
			// MaxDelay deadline stands, so note it to re-arm below.
			armed = bb.Count() > 0
		}
		batch = p.take(batch)
		wantFlush := p.flushReq.Swap(false)
		batch.payloads(func(m *outMsg, payload []byte) {
			if bb.Count() > 0 && !bb.Fits(len(payload), c.cfg.MaxBytes) {
				flushNow()
			}
			w := bb.BeginEntry(m.t, c.n.cfg.ID, p.dst, m.trace, m.deadline)
			w.Raw(payload)
			bb.EndEntry()
			inFrame++
			if m.deadline == 0 {
				undeadlined = true
			} else if m.deadline > maxExpiry {
				maxExpiry = m.deadline
			}
			if m.flush {
				wantFlush = true
			}
			if !bb.Fits(0, c.cfg.MaxBytes) {
				flushNow() // full, or one oversized entry
			}
		})
		if stop {
			flushNow()
			p.mu.Lock()
			p.dead = true
			leftover := p.buf // racing producers between take and here
			p.buf = outBuf{}
			p.space.Broadcast() // blocked producers fall to sendSync
			p.mu.Unlock()
			// Ship stragglers synchronously rather than dropping them:
			// an entry appended between the final take and the dead
			// store is a real envelope the caller was promised would
			// go out, exactly like a post-close enqueue.
			leftover.payloads(func(m *outMsg, payload []byte) {
				_ = c.sendSync(p.dst, m.t, m.trace, m.deadline, func(w *wire.Writer) { w.Raw(payload) })
				c.pend.Add(-1)
			})
			if !armed && !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			return
		}
		if wantFlush {
			flushNow()
			if armed && !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			continue
		}
		if bb.Count() > 0 && !armed {
			timer.Reset(c.cfg.MaxDelay)
		}
	}
}

// flushAll requests every peer's pending batch be shipped now. Sites
// call this (via Node.FlushOutbound) before parking idle, so a lone
// request/reply never waits out MaxDelay. Asynchronous: callers that
// need the wire quiet poll pending() (quiesceOutbound) or the
// reliable layer's Unacked.
func (c *coalescer) flushAll() {
	c.mu.Lock()
	rings := make([]*peerRing, 0, len(c.peers))
	for _, p := range c.peers {
		rings = append(rings, p)
	}
	c.mu.Unlock()
	for _, p := range rings {
		p.flushReq.Store(true)
		select {
		case p.kick <- struct{}{}:
		default:
		}
	}
}

// piggyback appends pending membership updates as one FGossip entry on
// a frame about to ship: epidemic dissemination rides the data path
// for free — no extra frame, and (with Reliability on) it shares the
// frame's single ack. A rare race where another flush drains the
// queue first leaves an empty gossip entry, which the receiver's
// decoder ignores.
func (c *coalescer) piggyback(bb *wire.BatchBuilder, dst uint32) {
	m := c.n.mem.Load()
	if m == nil || !m.HasUpdates() {
		return
	}
	// The gossip entry carries no deadline and deliberately skips the
	// frame-expiry tracking: membership updates are loss-tolerant (the
	// agent retransmits log-n times), so they must not pin an otherwise
	// all-deadlined frame to "never expires".
	w := bb.BeginEntry(wire.FGossip, c.n.cfg.ID, dst, 0, 0)
	m.AppendPiggyback(w)
	bb.EndEntry()
}

// pending counts envelopes enqueued but not yet handed to the
// transport (ring + builder + in-flight send).
func (c *coalescer) pending() int {
	return int(c.pend.Load())
}

// close stops the flushers, shipping whatever they hold; later
// enqueues flush through synchronously.
func (c *coalescer) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stopCh)
	c.wg.Wait()
}
