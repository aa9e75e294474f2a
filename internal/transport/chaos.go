package transport

import (
	"sync"
	"sync/atomic"
	"time"
)

// Chaos decorates transports with a deterministic, seeded fault model:
// per-link frame drop, duplication, reordering, extra jitter, full
// bidirectional partitions and whole-node blackholes. One Chaos
// controller is shared by every endpoint of a network; wrap each node's
// transport with Wrap before handing it to the node.
//
// Determinism: every directed link owns an independent RNG stream
// seeded from (Seed, src, dst), and each frame consumes a fixed number
// of draws, so the fault schedule on a link depends only on the seed
// and the link's frame sequence — identical across runs regardless of
// goroutine interleaving (jitter trades this for wall-clock delays and
// is off by default).
//
// Faults are injected on the send side, which models a lossy link: a
// dropped frame vanishes without an error, exactly like a cable. The
// layers above must cope — that is the point.
type ChaosConfig struct {
	// Seed selects the fault schedule (same seed → same schedule).
	Seed uint64
	// Drop is the per-frame drop probability in [0,1].
	Drop float64
	// Dup is the per-frame duplication probability in [0,1].
	Dup float64
	// Reorder is the probability a frame is held back so that up to
	// reorderWindow later frames on the same link overtake it.
	Reorder float64
	// Jitter adds a uniform random delivery delay in [0, Jitter) to
	// every frame. Non-zero jitter makes cross-link ordering
	// wall-clock dependent.
	Jitter time.Duration
}

const (
	// reorderWindow is the maximum number of frames that may overtake
	// a held frame.
	reorderWindow = 4
	// reorderHold bounds how long a held frame waits for overtakers
	// before being flushed.
	reorderHold = 2 * time.Millisecond
)

// ChaosStats counts injected faults.
type ChaosStats struct {
	Dropped    uint64 // frames silently discarded by the drop model
	Duplicated uint64 // extra copies injected
	Reordered  uint64 // frames held back to be overtaken
	Blackholed uint64 // frames discarded by partitions and crashes
}

// Chaos is the shared fault controller. See ChaosConfig.
type Chaos struct {
	cfg ChaosConfig

	mu     sync.Mutex
	links  map[[2]NodeID]*chaosLink
	parts  map[[2]NodeID]bool // unordered pairs, fully partitioned
	dead   map[NodeID]bool    // crashed/blackholed nodes
	closed bool

	dropped    atomic.Uint64
	duplicated atomic.Uint64
	reordered  atomic.Uint64
	blackholed atomic.Uint64
}

type heldFrame struct {
	dst       NodeID
	frame     []byte
	remaining int // overtakes left before release
}

// chaosLink is the per-directed-link fault state.
type chaosLink struct {
	inner Transport // the sender's wrapped transport
	rng   uint64
	held  []heldFrame
	timer *time.Timer
}

// NewChaos creates a fault controller.
func NewChaos(cfg ChaosConfig) *Chaos {
	return &Chaos{
		cfg:   cfg,
		links: map[[2]NodeID]*chaosLink{},
		parts: map[[2]NodeID]bool{},
		dead:  map[NodeID]bool{},
	}
}

// Wrap decorates one node's transport with the fault model.
func (c *Chaos) Wrap(t Transport) Transport {
	return &chaosEndpoint{ctrl: c, inner: t}
}

// Partition cuts all traffic between a and b (both directions) until
// Heal is called.
func (c *Chaos) Partition(a, b NodeID) {
	c.mu.Lock()
	c.parts[pairKey(a, b)] = true
	c.mu.Unlock()
}

// Heal restores the a↔b link.
func (c *Chaos) Heal(a, b NodeID) {
	c.mu.Lock()
	delete(c.parts, pairKey(a, b))
	c.mu.Unlock()
}

// Crash blackholes a node: every frame to or from it vanishes. The
// node's goroutines keep running (a crashed site cannot know it is
// dead); stop them separately to model a full process crash.
func (c *Chaos) Crash(n NodeID) {
	c.mu.Lock()
	c.dead[n] = true
	c.mu.Unlock()
}

// Revive undoes Crash.
func (c *Chaos) Revive(n NodeID) {
	c.mu.Lock()
	delete(c.dead, n)
	c.mu.Unlock()
}

// Stats snapshots the injected-fault counters.
func (c *Chaos) Stats() ChaosStats {
	return ChaosStats{
		Dropped:    c.dropped.Load(),
		Duplicated: c.duplicated.Load(),
		Reordered:  c.reordered.Load(),
		Blackholed: c.blackholed.Load(),
	}
}

// Close flushes held frames and stops pending timers.
func (c *Chaos) Close() {
	c.mu.Lock()
	c.closed = true
	for _, l := range c.links {
		if l.timer != nil {
			l.timer.Stop()
		}
		l.held = nil
	}
	c.mu.Unlock()
}

func pairKey(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}

// splitmix64 finalizer, used both to seed link streams and as the
// per-draw mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (c *Chaos) link(inner Transport, src, dst NodeID) *chaosLink {
	key := [2]NodeID{src, dst}
	l, ok := c.links[key]
	if !ok {
		l = &chaosLink{
			inner: inner,
			rng:   mix64(c.cfg.Seed ^ uint64(src)<<32 ^ uint64(dst)),
		}
		c.links[key] = l
	}
	return l
}

// draw advances the link RNG and returns a uniform value in [0,1).
func (l *chaosLink) draw() float64 {
	l.rng = mix64(l.rng)
	return float64(l.rng>>11) / float64(1<<53)
}

// cut reports whether the src→dst path is severed (mu held).
func (c *Chaos) cut(src, dst NodeID) bool {
	return c.dead[src] || c.dead[dst] || c.parts[pairKey(src, dst)]
}

// send runs one frame through the fault model.
func (c *Chaos) send(inner Transport, src, dst NodeID, frame []byte) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return inner.Send(dst, frame)
	}
	if c.cut(src, dst) {
		c.mu.Unlock()
		c.blackholed.Add(1)
		return nil // the network ate it; senders get no signal
	}
	l := c.link(inner, src, dst)
	// Fixed draw count per frame keeps the schedule deterministic
	// whatever the outcomes.
	pDrop, pDup, pReorder, uJitter := l.draw(), l.draw(), l.draw(), l.draw()

	drop := pDrop < c.cfg.Drop
	dup := c.cfg.Dup > 0 && pDup < c.cfg.Dup
	reorder := c.cfg.Reorder > 0 && pReorder < c.cfg.Reorder
	var jitter time.Duration
	if c.cfg.Jitter > 0 {
		jitter = time.Duration(uJitter * float64(c.cfg.Jitter))
	}

	// A frame traversing the link lets held predecessors age; collect
	// the ones whose overtake budget is spent.
	var release []heldFrame
	if !drop {
		release = l.age()
	}

	if drop {
		c.mu.Unlock()
		c.dropped.Add(1)
		return nil
	}
	if reorder && len(l.held) < reorderWindow {
		// Hold the frame: it will be released after reorderWindow
		// overtakes or when the flush timer fires.
		l.rng = mix64(l.rng)
		overtakes := 1 + int(l.rng%uint64(reorderWindow))
		l.held = append(l.held, heldFrame{dst: dst, frame: frame, remaining: overtakes})
		c.reordered.Add(1)
		if l.timer == nil {
			l.timer = time.AfterFunc(reorderHold, func() { c.flush(l, src) })
		} else {
			l.timer.Reset(reorderHold)
		}
		c.mu.Unlock()
		for _, h := range release {
			c.deliver(inner, src, h.dst, h.frame)
		}
		return nil
	}
	c.mu.Unlock()

	c.transmit(inner, dst, frame, jitter)
	if dup {
		c.duplicated.Add(1)
		c.transmit(inner, dst, frame, jitter)
	}
	for _, h := range release {
		c.deliver(inner, src, h.dst, h.frame)
	}
	return nil
}

// age decrements held frames' overtake budgets and pops the expired
// ones (mu held).
func (l *chaosLink) age() []heldFrame {
	var out []heldFrame
	kept := l.held[:0]
	for _, h := range l.held {
		h.remaining--
		if h.remaining <= 0 {
			out = append(out, h)
		} else {
			kept = append(kept, h)
		}
	}
	l.held = kept
	return out
}

// flush releases every held frame on a link (timer path).
func (c *Chaos) flush(l *chaosLink, src NodeID) {
	c.mu.Lock()
	held := l.held
	l.held = nil
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return
	}
	for _, h := range held {
		c.deliver(l.inner, src, h.dst, h.frame)
	}
}

// deliver re-checks partitions (they may have formed while a frame was
// held) and transmits.
func (c *Chaos) deliver(inner Transport, src, dst NodeID, frame []byte) {
	c.mu.Lock()
	cut := c.cut(src, dst) || c.closed
	c.mu.Unlock()
	if cut {
		c.blackholed.Add(1)
		return
	}
	c.transmit(inner, dst, frame, 0)
}

// transmit hands a frame to the underlying transport, optionally after
// a jitter delay. Send errors are swallowed: past the fault model the
// frame is "on the wire", and wires do not report.
func (c *Chaos) transmit(inner Transport, dst NodeID, frame []byte, delay time.Duration) {
	if delay <= 0 {
		_ = inner.Send(dst, frame)
		return
	}
	time.AfterFunc(delay, func() {
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if !closed {
			_ = inner.Send(dst, frame)
		}
	})
}

// chaosEndpoint decorates one node's transport.
type chaosEndpoint struct {
	ctrl  *Chaos
	inner Transport
}

var _ Transport = (*chaosEndpoint)(nil)

// Self returns the wrapped node id.
func (e *chaosEndpoint) Self() NodeID { return e.inner.Self() }

// Send runs the frame through the fault model.
func (e *chaosEndpoint) Send(dst NodeID, frame []byte) error {
	return e.ctrl.send(e.inner, e.inner.Self(), dst, frame)
}

// Recv returns the wrapped incoming stream.
func (e *chaosEndpoint) Recv() <-chan []byte { return e.inner.Recv() }

// Close closes the wrapped endpoint.
func (e *chaosEndpoint) Close() error { return e.inner.Close() }

// Stats forwards to the wrapped transport's counters when available.
func (e *chaosEndpoint) Stats() Stats {
	if s, ok := e.inner.(interface{ Stats() Stats }); ok {
		return s.Stats()
	}
	return Stats{}
}
