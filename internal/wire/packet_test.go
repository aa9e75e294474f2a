package wire

import (
	"bytes"
	"testing"
)

func TestPacketRoundTrip(t *testing.T) {
	for _, p := range []Packet{
		{Type: FData, Src: 3, Seq: 41, Payload: []byte("envelope bytes")},
		{Type: FAck, Src: 7, Seq: 1 << 40},
		{Type: FRaw, Src: 1, Payload: []byte{0xde, 0xad}},
	} {
		var got Packet
		if err := DecodePacketInto(&got, p.Encode()); err != nil {
			t.Fatalf("%s: %v", p.Type, err)
		}
		if got.Type != p.Type || got.Src != p.Src || got.Seq != p.Seq || !bytes.Equal(got.Payload, p.Payload) {
			t.Fatalf("round trip %+v -> %+v", p, got)
		}
	}
}

func TestPacketRejectsEnvelopeTypes(t *testing.T) {
	env := &Envelope{Type: FMsg, SrcNode: 1, DstNode: 2, Payload: []byte("x")}
	var p Packet
	if err := DecodePacketInto(&p, env.Encode()); err == nil {
		t.Fatal("envelope decoded as reliable-layer packet")
	}
	if err := DecodePacketInto(&p, []byte{byte(FData)}); err == nil {
		t.Fatal("truncated packet accepted")
	}
}
