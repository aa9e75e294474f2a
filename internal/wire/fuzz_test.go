package wire

import (
	"bytes"
	"testing"
)

// FuzzDecodeEnvelope feeds arbitrary bytes to the envelope decoder.
// It must never panic, and anything it accepts must re-encode to a
// decode-stable form (the bytes may differ — varints are not
// canonical — but the decoded fields must be).
func FuzzDecodeEnvelope(f *testing.F) {
	f.Add((&Envelope{Type: FMsg, SrcNode: 1, DstNode: 2, Payload: []byte("payload")}).Encode())
	f.Add((&Envelope{Type: FObj, SrcNode: 300, DstNode: 4, Trace: 1<<13 - 1, Payload: []byte("traced")}).Encode())
	f.Add((&Envelope{Type: FFetchReq, SrcNode: 0, DstNode: 0, Trace: 1<<63 | 42}).Encode())
	f.Add((&Envelope{Type: FMsg, SrcNode: 1, DstNode: 2, Deadline: 1_700_000_000_000_000, Payload: []byte("deadlined")}).Encode())
	f.Add((&Envelope{Type: FObj, SrcNode: 5, DstNode: 6, Trace: 77, Deadline: 1<<62 | 3, Payload: []byte("both")}).Encode())
	f.Add([]byte{byte(FMsg)})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeEnvelope(data)
		if err != nil {
			return
		}
		again, err := DecodeEnvelope(env.Encode())
		if err != nil {
			t.Fatalf("re-decode of accepted envelope failed: %v", err)
		}
		if again.Type != env.Type || again.SrcNode != env.SrcNode ||
			again.DstNode != env.DstNode || again.Trace != env.Trace ||
			again.Deadline != env.Deadline ||
			!bytes.Equal(again.Payload, env.Payload) {
			t.Fatalf("unstable round trip: %+v -> %+v", env, again)
		}
	})
}

// FuzzDecodePacket does the same for the reliable-layer packet
// decoder, including the delta-encoded selective-ack list.
func FuzzDecodePacket(f *testing.F) {
	f.Add((&Packet{Type: FData, Src: 3, Epoch: 1, Seq: 41, Payload: []byte("envelope bytes")}).Encode())
	f.Add((&Packet{Type: FAck, Src: 7, AckEpoch: 2, AckFloor: 10, AckSeqs: []uint64{12, 15, 40}}).Encode())
	f.Add((&Packet{Type: FRaw, Src: 1, Payload: []byte{0xde, 0xad}}).Encode())
	f.Add([]byte{byte(FData)})
	f.Add([]byte{})
	f.Add((&Packet{Type: FData, Src: 2, Epoch: 3, Seq: 1 << 20, AckEpoch: 1, AckFloor: 1 << 30,
		AckSeqs: []uint64{1<<30 + 2, 1<<30 + 9, 1<<30 + 300, 1 << 40}, Payload: []byte("long header")}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		var p, again Packet
		if err := DecodePacketInto(&p, data); err != nil {
			return
		}
		if err := DecodePacketInto(&again, p.Encode()); err != nil {
			t.Fatalf("re-decode of accepted packet failed: %v", err)
		}
		if again.Type != p.Type || again.Src != p.Src || again.Epoch != p.Epoch ||
			again.Seq != p.Seq || again.AckEpoch != p.AckEpoch || again.AckFloor != p.AckFloor ||
			len(again.AckSeqs) != len(p.AckSeqs) || !bytes.Equal(again.Payload, p.Payload) {
			t.Fatalf("unstable round trip: %+v -> %+v", p, again)
		}
		for i := range p.AckSeqs {
			if again.AckSeqs[i] != p.AckSeqs[i] {
				t.Fatalf("ack seq %d: %d -> %d", i, p.AckSeqs[i], again.AckSeqs[i])
			}
		}
		// The in-place encoding, behind every headroom a caller may
		// leave, is Encode's bytes; a header longer than the room takes
		// the copying fallback.
		want := p.Encode()
		hdr := len(want) - len(p.Payload)
		for room := 0; room <= Headroom; room++ {
			buf := make([]byte, room+len(p.Payload))
			copy(buf[room:], p.Payload)
			got := p.EncodeIn(buf, room)
			if !bytes.Equal(got, want) {
				t.Fatalf("room %d: in-place encoding %x, Encode %x", room, got, want)
			}
			inPlace := len(buf) > 0 && &got[len(got)-1] == &buf[len(buf)-1]
			if fits := hdr <= room; inPlace != fits && len(buf) > 0 {
				t.Fatalf("room %d, header %d bytes: in place = %v", room, hdr, inPlace)
			}
			var back Packet
			if err := DecodePacketInto(&back, got); err != nil || back.Seq != p.Seq || !bytes.Equal(back.Payload, p.Payload) {
				t.Fatalf("room %d: round trip failed: %v", room, err)
			}
		}
	})
}
