package site

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/wire"
)

// PayloadDelivery queues a mobility payload in the form it arrived in:
// the operation header is read now (deduplication and routing need
// it), the body when the site applies the delivery. It returns the
// destination site id alongside. The TyCOd, journal replay and the
// marshalling ablation build their deliveries with it.
func PayloadDelivery(t wire.FrameType, srcNode uint32, payload []byte) (Delivery, uint32, error) {
	switch t {
	case wire.FMsg, wire.FObj, wire.FFetchReq, wire.FFetchRep:
	default:
		return Delivery{}, 0, fmt.Errorf("site: payload of frame type %s", t)
	}
	op, dst, err := wire.PeekOp(payload)
	if err != nil {
		return Delivery{}, 0, err
	}
	return Delivery{Src: srcNode, Op: op, Type: t, Payload: payload}, dst, nil
}

// payloadBody is a payload delivery's body, decoded when the site
// handles it (site goroutine only). Messages and objects decode into
// reused scratch: the argument and frame arrays stay from one delivery
// to the next, while the label and the code sub-slice the payload. So
// a remote call decodes without allocating, and reset after every
// apply leaves nothing that pins a received frame.
type payloadBody struct {
	msg   wire.MsgView
	obj   wire.Obj
	fetch FetchDelivery
	rep   FetchRepDelivery
}

// decode parses the body of a payload of type t: the one receive-side
// decoder of remote mobility traffic.
func (b *payloadBody) decode(t wire.FrameType, payload []byte) error {
	switch t {
	case wire.FMsg:
		return b.msg.Decode(payload)
	case wire.FObj:
		return wire.DecodeObjInto(&b.obj, payload)
	case wire.FFetchReq:
		f, err := wire.DecodeFetchReq(payload)
		if err != nil {
			return err
		}
		b.fetch = FetchDelivery{Class: f.Class, ReqID: f.ReqID, Reply: Addr{Site: f.ReplySite, Node: f.ReplyNode}}
		return nil
	case wire.FFetchRep:
		f, err := wire.DecodeFetchRep(payload)
		if err != nil {
			return err
		}
		var u *asm.Unit
		if f.Err == "" {
			if u, err = asm.Decode(f.Unit); err != nil {
				return fmt.Errorf("fetched class: %w", err)
			}
		}
		b.rep = FetchRepDelivery{
			ReqID: f.ReqID, Err: f.Err, Class: f.Class,
			Unit: u, Group: f.Group, Index: f.Index, Captured: f.Captured,
		}
		return nil
	default:
		return fmt.Errorf("site: payload of frame type %s", t)
	}
}

// reset drops what the last decode left, keeping the scratch arrays.
func (b *payloadBody) reset() {
	clear(b.msg.Args)
	b.msg.Label = nil
	clear(b.obj.Frame)
	b.obj.Unit = nil
	b.fetch = FetchDelivery{}
	b.rep = FetchRepDelivery{}
}

// applyBody applies the payload delivery of type t whose body handle
// decoded into s.body.
func (s *Site) applyBody(t wire.FrameType) error {
	b := s.body
	switch t {
	case wire.FMsg:
		return s.applyMsg(b.msg.To.Heap, s.prog.LabelIndexBytes(b.msg.Label), b.msg.Args)
	case wire.FObj:
		return s.applyObj(b.obj.To.Heap, b.obj.Unit, b.obj.Table, b.obj.Frame)
	case wire.FFetchReq:
		return s.serveFetch(&b.fetch)
	default: // wire.FFetchRep: decode admits no other type
		return s.handleFetchRep(&b.rep)
	}
}
