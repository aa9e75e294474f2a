package wire

import (
	"fmt"

	"repro/internal/vm"
)

// FrameType discriminates the payloads exchanged between TyCOd
// daemons.
type FrameType uint8

// Frame types.
const (
	// FMsg delivers a remote method invocation (rule SHIPM).
	FMsg FrameType = iota + 1
	// FObj migrates an object: code unit + captured frame (SHIPO).
	FObj
	// FFetchReq asks the owning site for a class's byte-code (FETCH).
	FFetchReq
	// FFetchRep answers a fetch request.
	FFetchRep
	// FTerm carries a termination-detection control payload.
	FTerm
	// 6 is reserved (a retired type), so the types below keep their
	// bytes.
	_

	// The following types never appear in an Envelope: they are the
	// packet headers of the reliable delivery layer
	// (transport.Reliable), which wraps encoded envelopes below the
	// TyCOd router. See Packet.

	// FData is a sequenced payload requiring acknowledgement.
	FData
	// FAck acknowledges one received FData sequence number.
	FAck
	// FRaw is a best-effort payload outside the sequence space
	// (gossip probes: their loss is the failure detector's signal).
	FRaw

	// FBatch packs several envelopes coalesced for one peer into a
	// single transport frame (see BatchBuilder). It rides the same
	// path as a plain envelope — through Reliable as one FData
	// packet — and is unpacked by the receiving TyCOd.
	FBatch

	// FGossip carries a SWIM membership payload (ping / ack /
	// ping-req / piggybacked state updates, internal/membership).
	// Dedicated gossip probes travel best-effort (FRaw) — their loss
	// is the phi-accrual detector's signal — while piggybacked updates
	// ride inside coalesced batches.
	FGossip

	// FRoom marks a buffer from BatchBuilder.TakeFramed: Headroom free
	// bytes, then the frame. It never reaches the wire (see
	// SplitHeadroom).
	FRoom
)

func (t FrameType) String() string {
	switch t {
	case FMsg:
		return "msg"
	case FObj:
		return "obj"
	case FFetchReq:
		return "fetchreq"
	case FFetchRep:
		return "fetchrep"
	case FTerm:
		return "term"
	case FData:
		return "data"
	case FAck:
		return "ack"
	case FRaw:
		return "raw"
	case FBatch:
		return "batch"
	case FGossip:
		return "gossip"
	case FRoom:
		return "room"
	default:
		return fmt.Sprintf("frame(%d)", uint8(t))
	}
}

// Envelope is the unit handed to the transport: a typed payload
// routed between nodes by the TyCOd daemons.
type Envelope struct {
	Type    FrameType
	SrcNode uint32
	DstNode uint32
	// Trace is the causal mobility trace carried by the payload
	// (telemetry fabric, DESIGN.md §11). 0 means untraced and costs
	// nothing on the wire: the trace varint follows the header only
	// when the envTraced bit is set in the type byte, so untraced
	// envelopes keep the exact pre-telemetry byte format. The ID
	// itself is opaque to the wire layer.
	Trace uint64
	// Deadline is the absolute expiry of the payload in Unix
	// microseconds (overload-protection plane, DESIGN.md §14). 0 means
	// no deadline and, like Trace, costs nothing on the wire: the
	// varint follows the header only when the envDeadline bit is set
	// in the type byte. Receivers shed expired envelopes instead of
	// queueing them; the reliable layer stops retransmitting them.
	Deadline uint64
	Payload  []byte
}

// envTraced marks a traced envelope in the type byte. E12 measured
// the alternative — an unconditional trace varint — at several
// percent of fastether throughput for a single byte, because mobility
// envelopes are tiny and the link charges per byte.
const envTraced = 0x80

// envDeadline marks a deadlined envelope in the type byte: the
// deadline varint follows the header (after the trace varint, when
// both bits are set). Undeadlined envelopes keep the exact prior byte
// format, for the same per-byte cost reason as envTraced.
const envDeadline = 0x40

// envFlags masks both optional-field bits off the type byte.
const envFlags = envTraced | envDeadline

// AppendEnvelopeHdr writes an envelope header; the payload is whatever
// the caller appends afterwards (it runs to the end of the frame, so
// encoders can stream into the writer with no inner length prefix).
func AppendEnvelopeHdr(w *Writer, t FrameType, src, dst uint32, trace, deadline uint64) {
	b := byte(t)
	if trace != 0 {
		b |= envTraced
	}
	if deadline != 0 {
		b |= envDeadline
	}
	w.Byte(b)
	w.U(uint64(src))
	w.U(uint64(dst))
	if trace != 0 {
		w.U(trace)
	}
	if deadline != 0 {
		w.U(deadline)
	}
}

// AppendTo appends the envelope's encoding to w.
func (e *Envelope) AppendTo(w *Writer) {
	AppendEnvelopeHdr(w, e.Type, e.SrcNode, e.DstNode, e.Trace, e.Deadline)
	w.Raw(e.Payload)
}

// Encode serializes the envelope.
func (e *Envelope) Encode() []byte {
	w := GetWriter()
	e.AppendTo(w)
	out := w.Detach()
	PutWriter(w)
	return out
}

// DecodeEnvelopeInto parses an envelope into env. The payload
// sub-slices data (no copy).
func DecodeEnvelopeInto(env *Envelope, data []byte) error {
	if len(data) > MaxFrame {
		return fmt.Errorf("wire: envelope of %d bytes exceeds limit", len(data))
	}
	r := NewReader(data)
	t, err := r.Byte()
	if err != nil {
		return err
	}
	src, err := r.U()
	if err != nil {
		return err
	}
	dst, err := r.U()
	if err != nil {
		return err
	}
	var trace, deadline uint64
	if t&envTraced != 0 {
		if trace, err = r.U(); err != nil {
			return err
		}
	}
	if t&envDeadline != 0 {
		if deadline, err = r.U(); err != nil {
			return err
		}
	}
	env.Type = FrameType(t &^ envFlags)
	env.SrcNode = uint32(src)
	env.DstNode = uint32(dst)
	env.Trace = trace
	env.Deadline = deadline
	env.Payload = r.Rest()
	return nil
}

// DecodeEnvelope parses an envelope.
func DecodeEnvelope(data []byte) (*Envelope, error) {
	env := new(Envelope)
	if err := DecodeEnvelopeInto(env, data); err != nil {
		return nil, err
	}
	return env, nil
}

// Msg is a packaged remote method invocation.
type Msg struct {
	Op    OpRef
	To    vm.NetRef // destination channel (its site resolves the heap id)
	Label string
	Args  []Value
}

// AppendPayload appends the message payload to w.
func (m *Msg) AppendPayload(w *Writer) {
	encodeOpHdr(w, m.Op, m.To.Site)
	w.U(uint64(m.To.Heap))
	w.U(uint64(m.To.Site))
	w.U(uint64(m.To.Node))
	w.S(m.Label)
	EncodeValues(w, m.Args)
}

// Encode serializes the message payload.
func (m *Msg) Encode() []byte {
	w := GetWriter()
	m.AppendPayload(w)
	out := w.Detach()
	PutWriter(w)
	return out
}

// DecodeMsg parses a message payload.
func DecodeMsg(data []byte) (*Msg, error) {
	m := new(Msg)
	if err := DecodeMsgInto(m, data); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeMsgInto parses a message payload into m: the label and the
// argument list are the only allocations.
func DecodeMsgInto(m *Msg, data []byte) error {
	var v MsgView
	if err := v.Decode(data); err != nil {
		return err
	}
	*m = Msg{Op: v.Op, To: v.To, Label: string(v.Label), Args: v.Args}
	return nil
}

// MsgView is a message payload decoded for a receiver that consumes it
// at once: Label sub-slices the payload, and Args reuses its array from
// one Decode to the next. A warm view decodes a call whose arguments
// carry no strings or classes without allocating.
type MsgView struct {
	Op    OpRef
	To    vm.NetRef
	Label []byte
	Args  []Value
}

// Decode parses a message payload into v.
func (v *MsgView) Decode(data []byte) error {
	r := Reader{data: data}
	var err error
	if v.Op, _, err = decodeOpHdr(&r); err != nil {
		return err
	}
	if v.To, err = decodeNetRef(&r); err != nil {
		return err
	}
	if v.Label, err = r.B(); err != nil {
		return err
	}
	v.Args, err = DecodeValuesInto(&r, v.Args, 0)
	return err
}

// decodeNetRef reads the destination reference of a message or object.
func decodeNetRef(r *Reader) (vm.NetRef, error) {
	var to [3]uint64
	for i := range to {
		var err error
		if to[i], err = r.U(); err != nil {
			return vm.NetRef{}, err
		}
	}
	return vm.NetRef{Heap: uint32(to[0]), Site: uint32(to[1]), Node: uint32(to[2])}, nil
}

// Obj is a migrating object: the byte-code unit containing its method
// suite (and everything reachable), the table index within that unit,
// and the σ-translated captured frame.
type Obj struct {
	Op    OpRef
	To    vm.NetRef
	Unit  []byte // asm.Encode of the extracted unit
	Table int
	Frame []Value
}

// AppendPayload appends the object payload to w.
func (o *Obj) AppendPayload(w *Writer) {
	encodeOpHdr(w, o.Op, o.To.Site)
	w.U(uint64(o.To.Heap))
	w.U(uint64(o.To.Site))
	w.U(uint64(o.To.Node))
	w.B(o.Unit)
	w.U(uint64(o.Table))
	EncodeValues(w, o.Frame)
}

// Encode serializes the object payload.
func (o *Obj) Encode() []byte {
	w := GetWriter()
	o.AppendPayload(w)
	out := w.Detach()
	PutWriter(w)
	return out
}

// DecodeObjInto parses an object payload into o. o.Unit sub-slices
// data (no copy), and the frame reuses o.Frame's array when it has
// room, so a receiver that keeps one Obj allocates only for string and
// class values.
func DecodeObjInto(o *Obj, data []byte) error {
	r := Reader{data: data}
	var err error
	if o.Op, _, err = decodeOpHdr(&r); err != nil {
		return err
	}
	if o.To, err = decodeNetRef(&r); err != nil {
		return err
	}
	if o.Unit, err = r.B(); err != nil {
		return err
	}
	if o.Table, err = r.Index("table"); err != nil {
		return err
	}
	o.Frame, err = DecodeValuesInto(&r, o.Frame, 0)
	return err
}

// FetchReq asks the class's owning site for its byte-code.
type FetchReq struct {
	Op        OpRef
	Class     string
	OwnerSite uint32
	ReqID     uint64
	ReplySite uint32
	ReplyNode uint32
}

// AppendPayload appends the fetch request payload to w.
func (f *FetchReq) AppendPayload(w *Writer) {
	encodeOpHdr(w, f.Op, f.OwnerSite)
	w.S(f.Class)
	w.U(uint64(f.OwnerSite))
	w.U(f.ReqID)
	w.U(uint64(f.ReplySite))
	w.U(uint64(f.ReplyNode))
}

// Encode serializes the fetch request.
func (f *FetchReq) Encode() []byte {
	w := GetWriter()
	f.AppendPayload(w)
	out := w.Detach()
	PutWriter(w)
	return out
}

// DecodeFetchReq parses a fetch request.
func DecodeFetchReq(data []byte) (*FetchReq, error) {
	r := NewReader(data)
	op, _, err := decodeOpHdr(r)
	if err != nil {
		return nil, err
	}
	class, err := r.S()
	if err != nil {
		return nil, err
	}
	owner, err := r.U()
	if err != nil {
		return nil, err
	}
	id, err := r.U()
	if err != nil {
		return nil, err
	}
	rs, err := r.U()
	if err != nil {
		return nil, err
	}
	rn, err := r.U()
	if err != nil {
		return nil, err
	}
	return &FetchReq{Op: op, Class: class, OwnerSite: uint32(owner), ReqID: id, ReplySite: uint32(rs), ReplyNode: uint32(rn)}, nil
}

// FetchRep answers a fetch: the code unit plus the class's identity
// within it and its σ-translated captured values.
type FetchRep struct {
	Op       OpRef
	ReqID    uint64
	DstSite  uint32 // requesting site (routing key at the destination node)
	Err      string // non-empty on failure
	Class    string
	Unit     []byte
	Group    int
	Index    int // class index within the group
	Captured []Value
}

// AppendPayload appends the fetch reply payload to w.
func (f *FetchRep) AppendPayload(w *Writer) {
	encodeOpHdr(w, f.Op, f.DstSite)
	w.U(f.ReqID)
	w.U(uint64(f.DstSite))
	w.S(f.Err)
	w.S(f.Class)
	w.B(f.Unit)
	w.U(uint64(f.Group))
	w.U(uint64(f.Index))
	EncodeValues(w, f.Captured)
}

// Encode serializes the fetch reply.
func (f *FetchRep) Encode() []byte {
	w := GetWriter()
	f.AppendPayload(w)
	out := w.Detach()
	PutWriter(w)
	return out
}

// DecodeFetchRep parses a fetch reply.
func DecodeFetchRep(data []byte) (*FetchRep, error) {
	r := NewReader(data)
	op, _, err := decodeOpHdr(r)
	if err != nil {
		return nil, err
	}
	id, err := r.U()
	if err != nil {
		return nil, err
	}
	dst, err := r.U()
	if err != nil {
		return nil, err
	}
	errs, err := r.S()
	if err != nil {
		return nil, err
	}
	class, err := r.S()
	if err != nil {
		return nil, err
	}
	unit, err := r.B()
	if err != nil {
		return nil, err
	}
	g, err := r.Index("group")
	if err != nil {
		return nil, err
	}
	ix, err := r.Index("class")
	if err != nil {
		return nil, err
	}
	captured, err := DecodeValues(r, 0)
	if err != nil {
		return nil, err
	}
	return &FetchRep{Op: op, ReqID: id, DstSite: uint32(dst), Err: errs, Class: class, Unit: unit, Group: g, Index: ix, Captured: captured}, nil
}
