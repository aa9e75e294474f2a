package node

import (
	"time"

	"repro/internal/membership"
	"repro/internal/wire"
)

// MembershipConfig tunes the node's gossip membership agent
// (internal/membership): the node's failure detector.
type MembershipConfig struct {
	// Peers is the full expected roster (self included or not).
	Peers []uint32
	// Interval is the protocol period: one direct ping per period
	// regardless of cluster size (default 50ms).
	Interval time.Duration
	// SuspectAfter is the minimum silence before suspicion; the
	// phi-accrual score decides within it (default 4 × Interval).
	SuspectAfter time.Duration
	// DeadAfter is how long an unrefuted Suspect takes to be declared
	// Dead (default 2 × SuspectAfter).
	DeadAfter time.Duration
	// PhiThreshold is the suspicion score that convicts (default 8).
	PhiThreshold float64
	// IndirectProbes is the ping-req fanout (default 2).
	IndirectProbes int
	// Seed fixes the protocol's randomness for deterministic drills.
	Seed uint64
	// OnEvent observes every membership transition, after the node
	// has applied it to the reliable layer.
	OnEvent func(membership.Event)
}

// AttachMembership starts a gossip membership agent on this node and
// wires its verdicts into the reliable delivery layer: Suspect and
// Dead mark the peer down (fail-fast sends, parked frames), a
// refutation or rejoin marks it back up (parked frames flush). The
// agent's incarnation is the node's epoch, so a restarted node
// outranks its predecessor's Dead record. Gossip probes travel
// best-effort (their loss is the detector's signal); membership
// updates additionally piggyback on outbound data batches, and every
// received data envelope counts as proof of life — busy links keep
// their phi windows tight without extra probes.
func (n *Node) AttachMembership(cfg MembershipConfig) *membership.M {
	inc := uint64(n.cfg.Epoch)
	if inc == 0 {
		inc = 1
	}
	m := membership.New(membership.Config{
		Self:           n.cfg.ID,
		Peers:          cfg.Peers,
		Incarnation:    inc,
		ProbeInterval:  cfg.Interval,
		SuspectAfter:   cfg.SuspectAfter,
		DeadAfter:      cfg.DeadAfter,
		PhiThreshold:   cfg.PhiThreshold,
		IndirectProbes: cfg.IndirectProbes,
		Seed:           cfg.Seed,
		Send: func(dst uint32, payload []byte) error {
			return n.SendControl(wire.FGossip, dst, payload)
		},
		OnEvent: func(e membership.Event) {
			n.applyMembership(e)
			if cfg.OnEvent != nil {
				cfg.OnEvent(e)
			}
		},
	})
	// Chain FGossip ingestion onto the control handler: other control
	// frames still reach whatever handler was installed before.
	prev := n.control()
	h := func(t wire.FrameType, src uint32, payload []byte) {
		if t == wire.FGossip {
			m.Observe(src, payload)
			return
		}
		if prev != nil {
			prev(t, src, payload)
		}
	}
	n.onControl.Store(&h)
	n.mem.Store(m)
	m.Start()
	return m
}

// Membership returns the node's membership agent (nil when not
// attached).
func (n *Node) Membership() *membership.M { return n.mem.Load() }

// applyMembership feeds a membership transition into the reliable
// layer. Leaving/Left peers stay transport-reachable on purpose: a
// draining node must keep receiving (and forwarding) stragglers, so
// departure must not trip the fail-fast peer-down machinery.
func (n *Node) applyMembership(e membership.Event) {
	switch e.State {
	case membership.StateSuspect, membership.StateDead:
		n.suspectMu.Lock()
		if n.suspectSince == nil {
			n.suspectSince = map[uint32]time.Time{}
		}
		if _, ok := n.suspectSince[e.Node]; !ok {
			n.suspectSince[e.Node] = e.At
		}
		n.suspectMu.Unlock()
		if n.rel != nil && e.Prev != membership.StateSuspect && e.Prev != membership.StateDead {
			n.rel.SetPeerDown(e.Node)
		}
	case membership.StateAlive:
		n.suspectMu.Lock()
		delete(n.suspectSince, e.Node)
		n.suspectMu.Unlock()
		if n.rel != nil && (e.Prev == membership.StateSuspect || e.Prev == membership.StateDead) {
			n.rel.SetPeerUp(e.Node)
		}
	}
}

// SuspectSince snapshots when each currently suspected (or dead) peer
// entered suspicion, per the membership agent. The stall detector
// merges this with the reliable layer's down map so a jittery peer in
// the suspect-but-not-yet-dead state suppresses stall reports too.
func (n *Node) SuspectSince() map[uint32]time.Time {
	n.suspectMu.Lock()
	defer n.suspectMu.Unlock()
	if len(n.suspectSince) == 0 {
		return nil
	}
	out := make(map[uint32]time.Time, len(n.suspectSince))
	for k, v := range n.suspectSince {
		out[k] = v
	}
	return out
}
