// Package membership is a SWIM-style gossip membership layer with an
// adaptive phi-accrual failure detector — the node's one failure
// detector, in place of O(n²) point-to-point heartbeats. Each protocol
// period a node pings one peer chosen by randomized round-robin; an
// unanswered ping escalates to k indirect ping-req probes through
// other peers, so one lossy link cannot convict a healthy node.
// Verdicts are not binary: silence is
// scored by a phi-accrual estimator (phi.go) that learns each peer's
// observed inter-arrival distribution, and only sustained,
// statistically surprising silence makes a peer Suspect. Suspicion,
// death and recovery propagate epidemically as updates piggybacked on
// the protocol's own messages (and on the node's coalesced data
// batches), each stamped with the subject's incarnation number so a
// falsely suspected node can refute by re-announcing itself under a
// higher incarnation.
//
// Per-node probe traffic is constant in cluster size — one ping per
// period plus a bounded piggyback budget — which is the scalability
// half of the design; the adaptivity half is the phi detector, which
// turns "slow or jittery" into a low suspicion score instead of a
// false positive. Graceful shutdown is first-class: a draining node
// announces Leaving (placement avoids it, nobody convicts it) and
// then Left, which peers treat as departure, not failure.
package membership

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"time"

	"repro/internal/wire"
)

// State is a member's liveness verdict in the local view.
type State uint8

// Member states. The order is the same-incarnation precedence rank:
// an update supersedes the current view when its incarnation is
// higher, or equal with a later state in this order. Alive with a
// higher incarnation refutes anything — that is the refutation rule.
const (
	StateAlive State = iota
	// StateLeaving is announced by a draining node: still reachable
	// (keep routing, keep acking), but do not place new work on it.
	StateLeaving
	// StateSuspect is an adaptive verdict under appeal: the phi score
	// of the peer's silence crossed the threshold. The suspect can
	// refute by showing life (directly, or by gossiping a higher
	// incarnation).
	StateSuspect
	// StateLeft is a graceful departure (drain completed): gone, but
	// not a failure.
	StateLeft
	// StateDead is a confirmed failure: suspicion outlived the
	// refutation window.
	StateDead
)

func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateLeaving:
		return "leaving"
	case StateSuspect:
		return "suspect"
	case StateLeft:
		return "left"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Update is one gossiped membership assertion.
type Update struct {
	Node uint32
	Inc  uint64
	Stat State
}

// Event reports a transition of the local view of a peer.
type Event struct {
	Node uint32
	// State and Prev are the new and previous verdicts.
	State State
	Prev  State
	// Inc is the subject's incarnation at the transition.
	Inc uint64
	// Phi is the suspicion score at the transition (0 when the
	// transition was not phi-driven).
	Phi float64
	At  time.Time
}

// Clock abstracts time for deterministic tests.
type Clock interface{ Now() time.Time }

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Protocol constants.
const (
	// indirectProbes is the number of peers asked to probe an
	// unresponsive target indirectly.
	indirectProbes = 2
	// phiThreshold is the suspicion score that makes a peer Suspect:
	// the silence had a 1e-8 probability.
	phiThreshold = 8.0
	// silenceCeiling × SuspectAfter convicts regardless of phi (a
	// ceiling for peers whose learned jitter is large).
	silenceCeiling = 4
	// phiWindow is the inter-arrival window size.
	phiWindow = 64
	// retransmitMult scales the per-update dissemination budget: each
	// update rides retransmitMult × ⌈log2(n+1)⌉ + 2 outgoing messages.
	retransmitMult = 3
	// maxPiggyback bounds updates per message.
	maxPiggyback = 12
)

// Config configures a member agent.
type Config struct {
	// Self is this node's id; Peers the full expected roster (Self
	// may be included or not).
	Self  uint32
	Peers []uint32
	// Incarnation is the starting incarnation (a restarted node
	// passes its bumped epoch so its Alive announcement outranks its
	// old Dead record). 0 means 1.
	Incarnation uint64
	// ProbeInterval is the protocol period (default 50ms): one
	// direct ping per period, regardless of cluster size. A direct
	// ping unanswered for one period escalates to indirect probes.
	ProbeInterval time.Duration
	// SuspectAfter is the minimum silence before suspicion — the phi
	// score alone never convicts faster (default 4 × ProbeInterval).
	// Silence of silenceCeiling × SuspectAfter convicts regardless of
	// phi.
	SuspectAfter time.Duration
	// DeadAfter is how long a Suspect may stay unrefuted before it
	// is declared Dead (default 2 × SuspectAfter).
	DeadAfter time.Duration
	// Seed makes probe ordering and proxy choice deterministic
	// (default: derived from Self).
	Seed uint64
	// Send ships an encoded FGossip payload to a peer, best-effort:
	// loss is the detector's signal.
	Send func(dst uint32, payload []byte) error
	// OnEvent observes every state transition of the local view.
	OnEvent func(Event)
	Clock   Clock
}

func (c Config) withDefaults() Config {
	if c.Incarnation == 0 {
		c.Incarnation = 1
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 50 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 4 * c.ProbeInterval
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 2 * c.SuspectAfter
	}
	if c.Seed == 0 {
		c.Seed = uint64(c.Self) + 0x9e3779b97f4a7c15
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	return c
}

// Stats counts protocol activity (monotonic).
type Stats struct {
	ProbesSent    uint64 // direct pings
	AcksSent      uint64
	PingReqsSent  uint64 // indirect probe requests (per proxy)
	AcksForwarded uint64 // proxied acks relayed to their origin
	Piggybacked   uint64 // updates carried on outgoing messages
	Refutations   uint64 // self-suspicions refuted by incarnation bump
	Suspicions    uint64 // local Alive→Suspect transitions
	Deaths        uint64 // local Suspect→Dead transitions
	Revivals      uint64 // local Suspect/Dead→Alive transitions
}

// MemberInfo is one row of the local membership table.
type MemberInfo struct {
	Node      uint32
	State     State
	Inc       uint64
	Phi       float64
	LastHeard time.Duration // silence since the last proof of life
	InState   time.Duration // time in the current state
}

type member struct {
	state State
	inc   uint64
	phi   *phiEstimator
	since time.Time // entered current state
}

type pending struct {
	target     uint32
	at         time.Time
	indirected bool
}

type queued struct {
	u    Update
	left int // remaining transmissions
}

// M is one node's membership agent.
type M struct {
	cfg Config

	mu       sync.Mutex
	members  map[uint32]*member
	order    []uint32 // randomized round-robin probe order
	orderIdx int
	rng      uint64
	seq      uint64
	probes   map[uint64]*pending
	queue    map[uint32]*queued // one pending update per subject
	qorder   []uint32
	budget   int
	stats    Stats
	stopped  bool

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	return x
}

// New creates an agent. Call Start for the self-driving loop, or
// drive Tick manually (tests).
func New(cfg Config) *M {
	cfg = cfg.withDefaults()
	m := &M{
		cfg:     cfg,
		members: map[uint32]*member{},
		probes:  map[uint64]*pending{},
		queue:   map[uint32]*queued{},
		rng:     mix64(cfg.Seed),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	now := cfg.Clock.Now()
	m.members[cfg.Self] = &member{state: StateAlive, inc: cfg.Incarnation, since: now,
		phi: newPhiEstimator(phiWindow, cfg.ProbeInterval, now)}
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			continue
		}
		if _, dup := m.members[p]; dup {
			continue
		}
		m.members[p] = &member{state: StateAlive, inc: 0, since: now,
			phi: newPhiEstimator(phiWindow, cfg.ProbeInterval, now)}
		m.order = append(m.order, p)
	}
	m.budget = m.disseminationBudget()
	m.shuffleLocked()
	// Announce ourselves: a restarted incarnation must outrank its
	// predecessor's Dead record everywhere.
	m.queueLocked(Update{Node: cfg.Self, Inc: cfg.Incarnation, Stat: StateAlive})
	return m
}

func (m *M) disseminationBudget() int {
	n := len(m.members)
	return retransmitMult*bits.Len(uint(n)) + 2
}

// Start runs the protocol loop until Stop.
func (m *M) Start() {
	go func() {
		defer close(m.done)
		t := time.NewTicker(m.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.Tick()
			case <-m.stop:
				return
			}
		}
	}()
}

// Stop halts the loop (idempotent). An agent driven manually via Tick
// needs no Stop.
func (m *M) Stop() {
	m.stopOnce.Do(func() {
		m.mu.Lock()
		m.stopped = true
		m.mu.Unlock()
		close(m.stop)
	})
	select {
	case <-m.done:
	default:
		select {
		case <-m.done:
		case <-time.After(time.Second):
		}
	}
}

type outMsg struct {
	dst     uint32
	payload []byte
}

// Tick runs one protocol period: escalate stale probes to indirect
// ping-reqs, re-score every peer's silence, and ping the next
// round-robin target.
func (m *M) Tick() {
	m.mu.Lock()
	now := m.cfg.Clock.Now()
	var outs []outMsg
	var evs []Event

	// Escalate unanswered direct pings through k proxies.
	for seq, p := range m.probes {
		age := now.Sub(p.at)
		if age >= 4*m.cfg.ProbeInterval {
			delete(m.probes, seq)
			continue
		}
		if p.indirected || age < m.cfg.ProbeInterval {
			continue
		}
		p.indirected = true
		for _, proxy := range m.pickProxiesLocked(p.target) {
			outs = append(outs, outMsg{proxy, m.encodePingReqLocked(seq, p.target)})
			m.stats.PingReqsSent++
		}
	}

	// Adaptive suspicion: silence must be both long enough
	// (SuspectAfter floor) and statistically surprising (phi) —
	// or absolute (the silenceCeiling × SuspectAfter ceiling).
	for id, mb := range m.members {
		if id == m.cfg.Self {
			continue
		}
		switch mb.state {
		case StateAlive, StateLeaving:
			silence := now.Sub(mb.phi.last)
			if silence < m.cfg.SuspectAfter {
				continue
			}
			phi := mb.phi.phi(now)
			if phi >= phiThreshold || silence >= silenceCeiling*m.cfg.SuspectAfter {
				evs = append(evs, m.transitionLocked(id, mb, StateSuspect, phi, now))
				m.stats.Suspicions++
				m.queueLocked(Update{Node: id, Inc: mb.inc, Stat: StateSuspect})
			}
		case StateSuspect:
			if now.Sub(mb.since) >= m.cfg.DeadAfter {
				evs = append(evs, m.transitionLocked(id, mb, StateDead, mb.phi.phi(now), now))
				m.stats.Deaths++
				m.queueLocked(Update{Node: id, Inc: mb.inc, Stat: StateDead})
			}
		}
	}

	// One direct probe per period, whatever the cluster size.
	if target, ok := m.nextTargetLocked(); ok {
		m.seq++
		seq := m.seq
		m.probes[seq] = &pending{target: target, at: now}
		outs = append(outs, outMsg{target, m.encodePingLocked(seq, 0)})
		m.stats.ProbesSent++
	}
	m.mu.Unlock()

	m.fire(evs)
	m.sendAll(outs)
}

func (m *M) fire(evs []Event) {
	if m.cfg.OnEvent == nil {
		return
	}
	for _, e := range evs {
		m.cfg.OnEvent(e)
	}
}

func (m *M) sendAll(outs []outMsg) {
	if m.cfg.Send == nil {
		return
	}
	for _, o := range outs {
		_ = m.cfg.Send(o.dst, o.payload)
	}
}

// transitionLocked moves a member to a new state and builds the event.
func (m *M) transitionLocked(id uint32, mb *member, to State, phi float64, now time.Time) Event {
	ev := Event{Node: id, State: to, Prev: mb.state, Inc: mb.inc, Phi: phi, At: now}
	mb.state = to
	mb.since = now
	return ev
}

// nextTargetLocked picks the next probe target in shuffled
// round-robin order (SWIM's fairness guarantee: every live peer is
// probed within one pass).
func (m *M) nextTargetLocked() (uint32, bool) {
	for tries := 0; tries < len(m.order); tries++ {
		if m.orderIdx >= len(m.order) {
			m.orderIdx = 0
			m.shuffleLocked()
		}
		id := m.order[m.orderIdx]
		m.orderIdx++
		mb := m.members[id]
		if mb == nil || mb.state == StateDead || mb.state == StateLeft {
			continue
		}
		return id, true
	}
	// No live peer left in the view. Probe a Dead one instead: if the
	// whole roster looks dead we are probably the partitioned side,
	// and a rejoin probe is the only way back (graceful leavers are
	// never probed — Left is not an appealable verdict).
	var deads []uint32
	for id, mb := range m.members {
		if id != m.cfg.Self && mb.state == StateDead {
			deads = append(deads, id)
		}
	}
	if len(deads) == 0 {
		return 0, false
	}
	sort.Slice(deads, func(i, j int) bool { return deads[i] < deads[j] })
	m.rng = mix64(m.rng)
	return deads[m.rng%uint64(len(deads))], true
}

func (m *M) shuffleLocked() {
	for i := len(m.order) - 1; i > 0; i-- {
		m.rng = mix64(m.rng)
		j := int(m.rng % uint64(i+1))
		m.order[i], m.order[j] = m.order[j], m.order[i]
	}
}

// pickProxiesLocked chooses up to indirectProbes live peers (≠ self,
// ≠ target) to probe the target on our behalf.
func (m *M) pickProxiesLocked(target uint32) []uint32 {
	var cands []uint32
	for id, mb := range m.members {
		if id == m.cfg.Self || id == target {
			continue
		}
		if mb.state == StateAlive || mb.state == StateLeaving {
			cands = append(cands, id)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	// Partial Fisher-Yates: the first k after shuffling.
	for i := len(cands) - 1; i > 0; i-- {
		m.rng = mix64(m.rng)
		j := int(m.rng % uint64(i+1))
		cands[i], cands[j] = cands[j], cands[i]
	}
	if len(cands) > indirectProbes {
		cands = cands[:indirectProbes]
	}
	return cands
}

// queueLocked enqueues an update for epidemic dissemination, one slot
// per subject (a newer assertion replaces the queued one and resets
// its budget).
func (m *M) queueLocked(u Update) {
	if q, ok := m.queue[u.Node]; ok {
		q.u = u
		q.left = m.budget
		return
	}
	m.queue[u.Node] = &queued{u: u, left: m.budget}
	m.qorder = append(m.qorder, u.Node)
}

// takePiggybackLocked pops up to maxPiggyback updates, charging each
// one transmission of its budget.
func (m *M) takePiggybackLocked() []Update {
	if len(m.qorder) == 0 {
		return nil
	}
	var ups []Update
	var keep []uint32
	for _, id := range m.qorder {
		q := m.queue[id]
		if q == nil {
			continue
		}
		if len(ups) < maxPiggyback {
			ups = append(ups, q.u)
			q.left--
			m.stats.Piggybacked++
		}
		if q.left > 0 {
			keep = append(keep, id)
		} else {
			delete(m.queue, id)
		}
	}
	m.qorder = keep
	return ups
}

// Message kinds on the wire (FGossip payloads).
const (
	kindPing    = 1 // seq, origin, updates — origin ≠ 0 marks a proxied probe
	kindAck     = 2 // seq, origin, subject, updates
	kindPingReq = 3 // seq, target, updates
	kindGossip  = 4 // updates only (piggyback on data batches)
)

func appendUpdates(w *wire.Writer, ups []Update) {
	w.U(uint64(len(ups)))
	for _, u := range ups {
		w.U(uint64(u.Node))
		w.U(u.Inc)
		w.Byte(byte(u.Stat))
	}
}

func (m *M) encodePingLocked(seq uint64, origin uint32) []byte {
	w := wire.GetWriter()
	w.Byte(kindPing)
	w.U(seq)
	w.U(uint64(origin))
	appendUpdates(w, m.takePiggybackLocked())
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

func (m *M) encodeAckLocked(seq uint64, origin, subject uint32) []byte {
	w := wire.GetWriter()
	w.Byte(kindAck)
	w.U(seq)
	w.U(uint64(origin))
	w.U(uint64(subject))
	appendUpdates(w, m.takePiggybackLocked())
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

func (m *M) encodePingReqLocked(seq uint64, target uint32) []byte {
	w := wire.GetWriter()
	w.Byte(kindPingReq)
	w.U(seq)
	w.U(uint64(target))
	appendUpdates(w, m.takePiggybackLocked())
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

// HasUpdates reports whether dissemination work is pending — the
// coalescer's cue to piggyback a gossip entry on a data batch.
func (m *M) HasUpdates() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.qorder) > 0
}

// AppendPiggyback writes a gossip-only payload into w (an FGossip
// batch entry) and reports whether anything was written.
func (m *M) AppendPiggyback(w *wire.Writer) bool {
	m.mu.Lock()
	ups := m.takePiggybackLocked()
	m.mu.Unlock()
	if len(ups) == 0 {
		return false
	}
	w.Byte(kindGossip)
	appendUpdates(w, ups)
	return true
}

// Observe ingests one FGossip payload received from src. Any message
// is firsthand proof of life for its sender.
func (m *M) Observe(src uint32, payload []byte) {
	r := wire.NewReader(payload)
	kind, err := r.Byte()
	if err != nil {
		return
	}
	var seq, a, b uint64
	switch kind {
	case kindPing:
		if seq, err = r.U(); err != nil {
			return
		}
		if a, err = r.U(); err != nil { // origin
			return
		}
	case kindAck:
		if seq, err = r.U(); err != nil {
			return
		}
		if a, err = r.U(); err != nil { // origin
			return
		}
		if b, err = r.U(); err != nil { // subject
			return
		}
	case kindPingReq:
		if seq, err = r.U(); err != nil {
			return
		}
		if a, err = r.U(); err != nil { // target
			return
		}
	case kindGossip:
	default:
		return
	}
	ups, err := decodeUpdates(r)
	if err != nil {
		return
	}

	m.mu.Lock()
	now := m.cfg.Clock.Now()
	var outs []outMsg
	var evs []Event
	if rumor, ok := m.rumorForLocked(src); ok {
		// The sender is Suspect/Dead in our view yet evidently alive:
		// hand the rumor back so it can refute with a higher
		// incarnation (the refutation then supersedes the stale
		// verdict everywhere, not just here).
		outs = append(outs, outMsg{src, encodeRumor(rumor)})
	}
	evs = m.contactLocked(src, now, evs)
	for _, u := range ups {
		evs = m.applyUpdateLocked(u, now, evs)
	}
	switch kind {
	case kindPing:
		origin := uint32(a)
		outs = append(outs, outMsg{src, m.encodeAckLocked(seq, origin, m.cfg.Self)})
		m.stats.AcksSent++
	case kindAck:
		origin, subject := uint32(a), uint32(b)
		if subject != m.cfg.Self {
			evs = m.contactLocked(subject, now, evs)
		}
		if origin != 0 && origin != m.cfg.Self {
			// We proxied this probe: relay the ack to its origin.
			outs = append(outs, outMsg{origin, append([]byte(nil), payload...)})
			m.stats.AcksForwarded++
		} else {
			delete(m.probes, seq)
		}
	case kindPingReq:
		target := uint32(a)
		if target != m.cfg.Self {
			outs = append(outs, outMsg{target, m.encodePingLocked(seq, src)})
			m.stats.ProbesSent++
		}
	}
	m.mu.Unlock()

	m.fire(evs)
	m.sendAll(outs)
}

func decodeUpdates(r *wire.Reader) ([]Update, error) {
	n, err := r.U()
	if err != nil {
		return nil, err
	}
	if n > 1024 {
		return nil, fmt.Errorf("membership: %d piggybacked updates", n)
	}
	ups := make([]Update, 0, n)
	for i := uint64(0); i < n; i++ {
		node, err := r.U()
		if err != nil {
			return nil, err
		}
		inc, err := r.U()
		if err != nil {
			return nil, err
		}
		st, err := r.Byte()
		if err != nil {
			return nil, err
		}
		ups = append(ups, Update{Node: uint32(node), Inc: inc, Stat: State(st)})
	}
	return ups, nil
}

// Contact records firsthand proof of life for a peer — the node wires
// every received data envelope here, so busy links keep phi windows
// tight without extra probe traffic.
func (m *M) Contact(src uint32) {
	m.mu.Lock()
	var outs []outMsg
	if rumor, ok := m.rumorForLocked(src); ok {
		outs = append(outs, outMsg{src, encodeRumor(rumor)})
	}
	evs := m.contactLocked(src, m.cfg.Clock.Now(), nil)
	m.mu.Unlock()
	m.fire(evs)
	m.sendAll(outs)
}

// rumorForLocked returns the stale negative verdict we hold about a
// peer that just showed life, so it can be sent back for refutation.
func (m *M) rumorForLocked(src uint32) (Update, bool) {
	mb := m.members[src]
	if mb == nil || (mb.state != StateSuspect && mb.state != StateDead) {
		return Update{}, false
	}
	return Update{Node: src, Inc: mb.inc, Stat: mb.state}, true
}

func encodeRumor(u Update) []byte {
	w := wire.GetWriter()
	w.Byte(kindGossip)
	appendUpdates(w, []Update{u})
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

// contactLocked scores a proof of life; firsthand evidence also lifts
// a local Suspect/Dead verdict immediately (faster than waiting for
// the refutation to gossip back around).
func (m *M) contactLocked(id uint32, now time.Time, evs []Event) []Event {
	if id == m.cfg.Self {
		return evs
	}
	mb := m.members[id]
	if mb == nil {
		mb = &member{state: StateAlive, inc: 0, since: now,
			phi: newPhiEstimator(phiWindow, m.cfg.ProbeInterval, now)}
		m.members[id] = mb
		m.order = append(m.order, id)
		return evs
	}
	mb.phi.observe(now)
	if mb.state == StateSuspect || mb.state == StateDead {
		evs = append(evs, m.transitionLocked(id, mb, StateAlive, 0, now))
		m.stats.Revivals++
	}
	return evs
}

// rank orders states at equal incarnation (see the State constants).
func rank(s State) int { return int(s) }

// applyUpdateLocked merges one gossiped assertion into the view,
// re-disseminating anything that changed it (epidemic propagation).
func (m *M) applyUpdateLocked(u Update, now time.Time, evs []Event) []Event {
	if u.Node == m.cfg.Self {
		// Somebody thinks we are suspect/dead: refute by outranking
		// the rumor with a higher incarnation. A rumor at a STALE
		// incarnation still demands a response — the holder's view is
		// behind our current incarnation, and only re-announcing Alive
		// at it can supersede their verdict (a firsthand revival on
		// their side shares the verdict's incarnation, so it loses by
		// rank and cannot propagate).
		self := m.members[m.cfg.Self]
		if u.Stat == StateSuspect || u.Stat == StateDead {
			if self.state == StateLeft {
				return evs
			}
			if u.Inc >= self.inc {
				self.inc = u.Inc + 1
				m.stats.Refutations++
			}
			m.queueLocked(Update{Node: m.cfg.Self, Inc: self.inc, Stat: self.state})
		}
		return evs
	}
	mb := m.members[u.Node]
	if mb == nil {
		mb = &member{state: u.Stat, inc: u.Inc, since: now,
			phi: newPhiEstimator(phiWindow, m.cfg.ProbeInterval, now)}
		m.members[u.Node] = mb
		m.order = append(m.order, u.Node)
		m.budget = m.disseminationBudget()
		m.queueLocked(u)
		return evs
	}
	if u.Inc < mb.inc || (u.Inc == mb.inc && rank(u.Stat) <= rank(mb.state)) {
		return evs // stale or already known
	}
	prev := mb.state
	mb.inc = u.Inc
	if u.Stat != prev {
		if u.Stat == StateAlive {
			// A refutation or rejoin: reset the silence clock so the
			// revived peer is not instantly re-suspected.
			mb.phi.last = now
			if prev == StateSuspect || prev == StateDead {
				m.stats.Revivals++
			}
		}
		evs = append(evs, m.transitionLocked(u.Node, mb, u.Stat, 0, now))
	}
	m.queueLocked(u)
	return evs
}

// AnnounceLeaving marks this node as draining and gossips it: peers
// keep routing to us but stop placing work here.
func (m *M) AnnounceLeaving() { m.announce(StateLeaving) }

// AnnounceLeft marks the drain complete: a graceful departure, not a
// failure.
func (m *M) AnnounceLeft() { m.announce(StateLeft) }

func (m *M) announce(s State) {
	m.mu.Lock()
	now := m.cfg.Clock.Now()
	self := m.members[m.cfg.Self]
	var evs []Event
	if self.state != s {
		evs = append(evs, m.transitionLocked(m.cfg.Self, self, s, 0, now))
	}
	m.queueLocked(Update{Node: m.cfg.Self, Inc: self.inc, Stat: s})
	// Push the announcement to a few peers immediately instead of
	// waiting for the next probe to carry it.
	var outs []outMsg
	for _, p := range m.pickProxiesLocked(0) {
		w := wire.GetWriter()
		w.Byte(kindGossip)
		appendUpdates(w, []Update{{Node: m.cfg.Self, Inc: self.inc, Stat: s}})
		outs = append(outs, outMsg{p, w.Detach()})
		wire.PutWriter(w)
	}
	m.mu.Unlock()
	m.fire(evs)
	m.sendAll(outs)
}

// State reports the local verdict and incarnation for a node.
func (m *M) State(node uint32) (State, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mb := m.members[node]
	if mb == nil {
		return StateDead, 0
	}
	return mb.state, mb.inc
}

// Incarnation reports this node's own incarnation.
func (m *M) Incarnation() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.members[m.cfg.Self].inc
}

// Phi reports the current suspicion score for a peer.
func (m *M) Phi(node uint32) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	mb := m.members[node]
	if mb == nil || node == m.cfg.Self {
		return 0
	}
	return mb.phi.phi(m.cfg.Clock.Now())
}

// AliveNodes lists members currently considered placeable (Alive),
// self included, sorted.
func (m *M) AliveNodes() []uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []uint32
	for id, mb := range m.members {
		if mb.state == StateAlive {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SuspectSince reports when each currently Suspect or Dead peer
// entered suspicion. The node's stall detector stays quiet while any
// peer is listed: a wedged-looking site talking to a suspect peer is
// the link's fault until the verdict settles.
func (m *M) SuspectSince() map[uint32]time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out map[uint32]time.Time
	for id, mb := range m.members {
		if mb.state == StateSuspect || mb.state == StateDead {
			if out == nil {
				out = map[uint32]time.Time{}
			}
			out[id] = mb.since
		}
	}
	return out
}

// Snapshot renders the membership table (sorted by node id).
func (m *M) Snapshot() []MemberInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Clock.Now()
	out := make([]MemberInfo, 0, len(m.members))
	for id, mb := range m.members {
		mi := MemberInfo{Node: id, State: mb.state, Inc: mb.inc, InState: now.Sub(mb.since)}
		if id != m.cfg.Self {
			mi.Phi = mb.phi.phi(now)
			mi.LastHeard = now.Sub(mb.phi.last)
		}
		out = append(out, mi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// PendingUpdates reports the dissemination queue depth (a convergence
// gauge: 0 means the view has nothing left to spread).
func (m *M) PendingUpdates() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.qorder)
}

// Stats snapshots the protocol counters.
func (m *M) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
