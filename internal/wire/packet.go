package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Packet is the unit exchanged by the reliable delivery layer
// (transport.Reliable). It sits below Envelope: a data packet's payload
// is a full encoded envelope (or an FBatch of them); the receiving
// reliable layer unwraps it before the TyCOd ever sees the frame.
//
//	FData: Src is the sender node, Seq its per-(sender,receiver)
//	       monotone sequence number, Payload the wrapped frame.
//	FAck:  Src is the acknowledging node; Seq is unused. The ack
//	       fields below carry the cumulative + selective state.
//	FRaw:  Src is the sender node; Seq is unused; Payload is the
//	       wrapped frame, delivered best-effort with no dedup.
//
// Epoch is the sender's incarnation number: a supervised restart of a
// node comes back with a higher epoch and a fresh sequence space, so
// receivers key their dedup window by it (see transport.Reliable).
//
// Every packet also carries reverse-direction acknowledgement state
// (ack piggybacking): AckEpoch is the epoch of the peer's data stream
// being acknowledged, AckFloor the cumulative floor (every seq ≤ floor
// is delivered), and AckSeqs selectively acknowledged seqs above the
// floor. A packet with AckFloor == 0 and no AckSeqs carries no ack
// information — seqs start at 1, so a zero floor clears nothing.
type Packet struct {
	Type     FrameType
	Src      uint32
	Epoch    uint32
	Seq      uint64
	AckEpoch uint32
	AckFloor uint64
	AckSeqs  []uint64 // ascending, each > AckFloor
	Payload  []byte
}

// maxAckSeqs bounds the selective-ack list on decode.
const maxAckSeqs = 1 << 12

// hdrLen is the length of the packet's encoding before its payload.
func (p *Packet) hdrLen() int {
	n := 1 + uvarintLen(uint64(p.Src)) + uvarintLen(uint64(p.Epoch)) + uvarintLen(p.Seq) +
		uvarintLen(uint64(p.AckEpoch)) + uvarintLen(p.AckFloor) + uvarintLen(uint64(len(p.AckSeqs)))
	prev := p.AckFloor
	for _, s := range p.AckSeqs {
		n += uvarintLen(s - prev)
		prev = s
	}
	return n
}

// putHdr writes the header into dst, which is hdrLen bytes long.
func (p *Packet) putHdr(dst []byte) {
	dst[0] = byte(p.Type)
	i := 1
	i += binary.PutUvarint(dst[i:], uint64(p.Src))
	i += binary.PutUvarint(dst[i:], uint64(p.Epoch))
	i += binary.PutUvarint(dst[i:], p.Seq)
	i += binary.PutUvarint(dst[i:], uint64(p.AckEpoch))
	i += binary.PutUvarint(dst[i:], p.AckFloor)
	i += binary.PutUvarint(dst[i:], uint64(len(p.AckSeqs)))
	prev := p.AckFloor
	for _, s := range p.AckSeqs {
		i += binary.PutUvarint(dst[i:], s-prev) // ascending: delta-encode
		prev = s
	}
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Encode serializes the packet into one right-sized slice.
func (p *Packet) Encode() []byte {
	h := p.hdrLen()
	out := make([]byte, h+len(p.Payload))
	p.putHdr(out[:h])
	copy(out[h:], p.Payload)
	return out
}

// EncodeIn encodes the packet whose payload is buf[room:] (p.Payload
// is ignored). When the header fits the room bytes in front of the
// payload it is written there, right-aligned, and the packet is a
// sub-slice of buf: the payload is not copied. A longer header (a long
// selective-ack list) falls back to Encode's copy. Either way the bytes
// are Encode's.
func (p *Packet) EncodeIn(buf []byte, room int) []byte {
	h := p.hdrLen()
	if h > room {
		q := *p
		q.Payload = buf[room:]
		return q.Encode()
	}
	p.putHdr(buf[room-h : room])
	return buf[room-h:]
}

// DecodePacketInto parses a reliable-layer packet into a caller-owned
// packet, reusing its AckSeqs array: a receive loop decodes every
// packet into one scratch value. The payload sub-slices data (no
// copy). On error *p is unspecified.
func DecodePacketInto(p *Packet, data []byte) error {
	r := NewReader(data)
	t, err := r.Byte()
	if err != nil {
		return err
	}
	switch FrameType(t) {
	case FData, FAck, FRaw:
	default:
		return fmt.Errorf("wire: frame type %s is not a reliable-layer packet", FrameType(t))
	}
	var f [6]uint64 // src, epoch, seq, ack epoch, ack floor, ack count
	for i := range f {
		if f[i], err = r.U(); err != nil {
			return err
		}
	}
	nAck := f[5]
	if nAck > maxAckSeqs {
		return fmt.Errorf("wire: ack list of %d too large", nAck)
	}
	ackSeqs := p.AckSeqs[:0]
	prev := f[4]
	for i := uint64(0); i < nAck; i++ {
		d, err := r.U()
		if err != nil {
			return err
		}
		prev += d
		ackSeqs = append(ackSeqs, prev)
	}
	*p = Packet{
		Type:     FrameType(t),
		Src:      uint32(f[0]),
		Epoch:    uint32(f[1]),
		Seq:      f[2],
		AckEpoch: uint32(f[3]),
		AckFloor: f[4],
		AckSeqs:  ackSeqs,
		Payload:  r.Rest(),
	}
	return nil
}
