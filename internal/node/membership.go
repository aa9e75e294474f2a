package node

import (
	"repro/internal/membership"
	"repro/internal/wire"
)

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
//
// The node fills cfg's Self, Incarnation and Send, and wraps OnEvent:
// the caller's OnEvent observes each transition after the node has
// applied it to the reliable layer. The caller supplies Peers and the
// timing.
func (n *Node) AttachMembership(cfg membership.Config) *membership.M {
	cfg.Self = n.cfg.ID
	cfg.Incarnation = uint64(n.cfg.Epoch)
	cfg.Send = func(dst uint32, payload []byte) error {
		return n.SendControl(wire.FGossip, dst, payload)
	}
	onEvent := cfg.OnEvent
	cfg.OnEvent = func(e membership.Event) {
		n.applyMembership(e)
		if onEvent != nil {
			onEvent(e)
		}
	}
	m := membership.New(cfg)
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
	if n.rel == nil {
		return
	}
	wasDown := e.Prev == membership.StateSuspect || e.Prev == membership.StateDead
	switch e.State {
	case membership.StateSuspect, membership.StateDead:
		if !wasDown {
			n.rel.SetPeerDown(e.Node)
		}
	case membership.StateAlive:
		if wasDown {
			n.rel.SetPeerUp(e.Node)
		}
	}
}
