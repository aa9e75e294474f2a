package node

import (
	"slices"

	"repro/internal/asm"
	"repro/internal/site"
	"repro/internal/vm"
	"repro/internal/wire"
)

// The node is the Router for its sites: outgoing-queue items either
// take the local fast path (same node) or are packaged into envelopes
// for the transport — the three-step remote interaction of paper
// section 5. Every mobility operation carries the sender's OpRef so
// receivers can deduplicate replays and fence dead incarnations.
//
// Remote routes stream their payload straight into the destination
// peer's coalesced batch (one pooled wire.Writer per peer, no
// intermediate per-message buffer); the coalescer decides when the
// accumulated frame actually hits the transport.
//
// Every route also reads the sending site's current mobility trace
// (telemetry fabric) — safe without locks because Route* calls happen
// synchronously on the site goroutine — stamps it on the envelope or
// delivery, and records a ship event.

var _ site.Router = (*Node)(nil)

// RouteMsg implements site.Router.
func (n *Node) RouteMsg(from *site.Site, op wire.OpRef, ref vm.NetRef, label string, args []site.WireVal) error {
	trace := from.CurrentTrace()
	deadline := from.CurrentDeadline()
	m := wire.Msg{Op: op, To: ref, Label: label, Args: args}
	n.tel.Ship(trace, wire.FMsg, op, ref.Node)
	if ref.Node == n.cfg.ID {
		// The delivery outlives the call and args does not: copy.
		m.Args = slices.Clone(args)
		d := site.Delivery{Op: op, Trace: trace, Deadline: deadline, Msg: &site.MsgDelivery{Heap: ref.Heap, Label: label, Args: m.Args}}
		return n.toLocal(ref.Site, d, wire.FMsg, m.Encode, true)
	}
	// enqueue encodes the payload before it returns.
	return n.coal.enqueue(ref.Node, wire.FMsg, trace, deadline, m.AppendPayload)
}

// RouteObj implements site.Router.
func (n *Node) RouteObj(from *site.Site, op wire.OpRef, ref vm.NetRef, unit *asm.Unit, table int, frame []site.WireVal) error {
	trace := from.CurrentTrace()
	deadline := from.CurrentDeadline()
	// The sending site encoded the unit once, when it first extracted
	// it (unit.Encoded); every ship of it reuses those bytes, and the
	// same-node path hands them over as they are.
	o := wire.Obj{Op: op, To: ref, Unit: unit.Encoded, Table: table, Frame: frame}
	n.tel.Ship(trace, wire.FObj, op, ref.Node)
	if ref.Node == n.cfg.ID {
		d := site.Delivery{Op: op, Trace: trace, Deadline: deadline, Obj: &site.ObjDelivery{Heap: ref.Heap, Code: unit.Encoded, Table: table, Frame: frame}}
		return n.toLocal(ref.Site, d, wire.FObj, o.Encode, true)
	}
	return n.coal.enqueue(ref.Node, wire.FObj, trace, deadline, o.AppendPayload)
}

// RouteFetch implements site.Router.
func (n *Node) RouteFetch(from *site.Site, op wire.OpRef, owner site.Addr, class string, reqID uint64) error {
	trace := from.CurrentTrace()
	f := wire.FetchReq{
		Op: op, Class: class, OwnerSite: owner.Site, ReqID: reqID,
		ReplySite: from.ID(), ReplyNode: n.cfg.ID,
	}
	n.tel.Ship(trace, wire.FFetchReq, op, owner.Node)
	if owner.Node == n.cfg.ID {
		d := site.Delivery{Op: op, Trace: trace, Fetch: &site.FetchDelivery{Class: class, ReqID: reqID, Reply: from.Addr()}}
		return n.toLocal(owner.Site, d, wire.FFetchReq, f.Encode, false)
	}
	// Fetch traffic deliberately carries no deadline: shedding a
	// request or its reply would strand the requester's parked
	// instantiations, and overload pushback (serveFetch) already
	// bounds the owner's work.
	return n.coal.enqueue(owner.Node, wire.FFetchReq, trace, 0, f.AppendPayload)
}

// RouteFetchRep implements site.Router.
func (n *Node) RouteFetchRep(from *site.Site, op wire.OpRef, to site.Addr, rep *site.FetchRepDelivery) error {
	trace := from.CurrentTrace()
	var unitBytes []byte
	if rep.Unit != nil && to.Node != n.cfg.ID {
		unitBytes = asm.Encode(rep.Unit)
	}
	f := wire.FetchRep{
		Op: op, ReqID: rep.ReqID, DstSite: to.Site, Err: rep.Err, Class: rep.Class,
		Unit: unitBytes, Group: rep.Group, Index: rep.Index, Captured: rep.Captured,
	}
	n.tel.Ship(trace, wire.FFetchRep, op, to.Node)
	if to.Node == n.cfg.ID {
		payload := func() []byte {
			var ub []byte
			if rep.Unit != nil {
				ub = asm.Encode(rep.Unit)
			}
			f.Unit = ub
			return f.Encode()
		}
		return n.toLocal(to.Site, site.Delivery{Op: op, Trace: trace, FetchRep: rep}, wire.FFetchRep, payload, false)
	}
	return n.coal.enqueue(to.Node, wire.FFetchRep, trace, 0, f.AppendPayload)
}
