package node

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/site"
	"repro/internal/wire"
)

// Evacuee is one site released by Drain: its journal handle carries
// the full recoverable state (program, checkpoint, accepted ops), and
// Target is the node chosen to adopt it.
type Evacuee struct {
	Name    string
	ID      uint32
	Target  uint32
	Journal *site.Journal
}

// Draining reports whether the node is (or has finished) draining.
func (n *Node) Draining() bool { return n.draining.Load() }

// Drain gracefully retires the node (DESIGN.md §13): announce Leaving
// via gossip, refuse new sites, stop the running ones at a clean
// point, flush every coalesced batch and wait until all reliable
// sends are acknowledged — so everything this node ever sent is
// journaled at its receiver — then release each site's journal for
// adoption elsewhere and install forwards for stragglers that still
// resolve here. pick chooses the adopting node per site, from the
// caller's cluster view. The node stays up afterwards: Left, not
// Dead, so in-flight references to evacuated sites keep working via
// forwarding until every remote heap has re-resolved.
//
// Exactly-once: a site's state moves as its journal handle, never as
// live state, so adoption is a replay — the same (site, id) op dedup
// that makes crash recovery exactly-once makes drain exactly-once.
// Stragglers accepted mid-drain are journaled before their ack and
// replayed by the adopter; stragglers after release are forwarded and
// journaled (before the forwarded ack) by the adopter's own accept
// hook.
func (n *Node) Drain(ctx context.Context, pick func(name string, id uint32) (uint32, error)) ([]Evacuee, error) {
	if !n.draining.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("node %d: already draining", n.cfg.ID)
	}
	if m := n.mem.Load(); m != nil {
		m.AnnounceLeaving()
	}
	sites := n.Sites()
	if len(sites) > 0 && n.cfg.Journals == nil {
		return nil, fmt.Errorf("node %d: drain needs journaled sites", n.cfg.ID)
	}
	for _, s := range sites {
		s.Stop()
	}
	for _, s := range sites {
		select {
		case <-s.Done():
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// Quiesce outbound: flush the coalescer and wait until the reliable
	// layer holds no unacknowledged frame. After this point every send
	// the evacuated sites made is journaled at its destination.
	if err := n.quiesceOutbound(ctx); err != nil {
		return nil, err
	}
	// Release: hand each journal over and forward the site id.
	n.mu.Lock()
	evs := make([]Evacuee, 0, len(n.byName))
	for name, s := range n.byName {
		id := s.ID()
		jl := n.journalFor(id)
		if jl == nil {
			n.mu.Unlock()
			return nil, fmt.Errorf("node %d: site %q has no journal to evacuate", n.cfg.ID, name)
		}
		evs = append(evs, Evacuee{Name: name, ID: id, Journal: jl})
	}
	n.mu.Unlock()
	for i := range evs {
		target, err := pick(evs[i].Name, evs[i].ID)
		if err != nil {
			return nil, fmt.Errorf("node %d: place site %q: %w", n.cfg.ID, evs[i].Name, err)
		}
		evs[i].Target = target
	}
	n.mu.Lock()
	if n.forwards == nil {
		n.forwards = map[uint32]uint32{}
	}
	for _, ev := range evs {
		// The journal handle leaves this node's books with the site:
		// its Stop must not close a log the adopter now owns.
		n.dir.store(ev.ID, nil)
		delete(n.byName, ev.Name)
		n.forwards[ev.ID] = ev.Target
	}
	n.fwdCount.Store(int32(len(n.forwards)))
	n.mu.Unlock()
	if m := n.mem.Load(); m != nil {
		m.AnnounceLeft()
	}
	return evs, nil
}

// quiesceOutbound flushes coalesced batches and waits until the
// reliable layer has no frame awaiting acknowledgement.
func (n *Node) quiesceOutbound(ctx context.Context) error {
	for {
		n.coal.flushAll()
		if n.coal.pending() == 0 && (n.rel == nil || n.rel.Unacked() == 0) {
			return nil
		}
		select {
		case <-time.After(time.Millisecond):
		case <-ctx.Done():
			return fmt.Errorf("node %d: drain quiesce: %w", n.cfg.ID, ctx.Err())
		}
	}
}

// forwardFor reports the adopting node for an evacuated site id.
func (n *Node) forwardFor(siteID uint32) (uint32, bool) {
	if n.fwdCount.Load() == 0 {
		return 0, false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	t, ok := n.forwards[siteID]
	return t, ok
}

// forwardEnvelope re-ships a straggler to the adopting node, source
// preserved — the adopter journals and delivers it as if it had
// arrived directly.
func (n *Node) forwardEnvelope(env *wire.Envelope, target uint32) error {
	if n.tel != nil && env.Trace != 0 {
		// A forward is a routing decision: the trace checker pairs a
		// deliver with a ship bound for the delivering node.
		if op, _, err := wire.PeekOp(env.Payload); err == nil {
			n.tel.Ship(env.Trace, env.Type, op, target)
		}
	}
	fwd := wire.Envelope{Type: env.Type, SrcNode: env.SrcNode, DstNode: target, Trace: env.Trace, Payload: env.Payload}
	return n.send(target, fwd.Encode())
}

// AdoptSite takes over an evacuated site from its journal handle:
// replay under an incremented epoch re-registers every export with
// this node's id at the higher epoch, which supersedes the drained
// node's nameservice leases — the drain counterpart of RecoverSite.
// The site keeps its network-wide id, so references held by remote
// heaps stay valid (resolving to the drained node, which forwards,
// until re-resolution).
func (n *Node) AdoptSite(siteName string, jl *site.Journal, out io.Writer, opts ...SiteOption) (*site.Site, error) {
	if n.draining.Load() {
		return nil, fmt.Errorf("node %d: draining, cannot adopt %q", n.cfg.ID, siteName)
	}
	if _, dup := n.SiteByName(siteName); dup {
		return nil, fmt.Errorf("node %d: site %q already running", n.cfg.ID, siteName)
	}
	s, ss, err := n.restoreSite(siteName, jl, out, opts)
	if err != nil {
		return nil, fmt.Errorf("node %d: adopt %q: %w", n.cfg.ID, siteName, err)
	}
	n.mu.Lock()
	n.register(siteName, s, jl)
	n.mu.Unlock()
	n.sched.start(ss)
	if n.cfg.Supervise {
		go n.supervise(s, siteName, out, opts...)
	}
	return s, nil
}
