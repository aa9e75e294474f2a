package wire

import "fmt"

// OpRef identifies one mobility operation (SHIPM, SHIPO, FETCH request
// or reply) for the crash-recovery subsystem. Site is the originating
// site, Epoch the site's incarnation counter (bumped on every
// supervised restart), and ID a counter monotone per originating site
// and destination site: a receiver sees one sender's operations
// numbered 1, 2, 3 …. The pair (Site, ID) is stable across replay — a
// recovered site reproduces its pre-crash operations with the same IDs
// under a higher epoch, so receivers deduplicate by (Site, ID) and
// fence lower-epoch traffic from stale pre-crash incarnations.
type OpRef struct {
	Site  uint32
	Epoch uint32
	ID    uint64
}

// IsZero reports whether the ref is unset (control traffic and
// resolver-internal deliveries carry no op identity).
func (o OpRef) IsZero() bool { return o.ID == 0 }

func (o OpRef) String() string {
	return fmt.Sprintf("op(%d.%d#%d)", o.Site, o.Epoch, o.ID)
}

// encodeOpHdr writes the operation header that prefixes every mobility
// payload: the op ref plus the destination site, so routers and
// journals can classify a payload without a full decode.
func encodeOpHdr(w *Writer, op OpRef, dstSite uint32) {
	w.U(uint64(op.Site))
	w.U(uint64(op.Epoch))
	w.U(op.ID)
	w.U(uint64(dstSite))
}

// decodeOpHdr reads the operation header.
func decodeOpHdr(r *Reader) (OpRef, uint32, error) {
	s, err := r.U()
	if err != nil {
		return OpRef{}, 0, err
	}
	e, err := r.U()
	if err != nil {
		return OpRef{}, 0, err
	}
	id, err := r.U()
	if err != nil {
		return OpRef{}, 0, err
	}
	dst, err := r.U()
	if err != nil {
		return OpRef{}, 0, err
	}
	return OpRef{Site: uint32(s), Epoch: uint32(e), ID: id}, uint32(dst), nil
}

// PeekOp reads the operation header off the front of an encoded
// mobility payload (Msg, Obj, FetchReq or FetchRep) without decoding
// the rest, returning the op ref and the destination site id.
func PeekOp(payload []byte) (OpRef, uint32, error) {
	r := NewReader(payload)
	return decodeOpHdr(r)
}
