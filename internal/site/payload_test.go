package site

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/vm"
	"repro/internal/wire"
)

// FuzzApplyPayload feeds arbitrary (frame type, payload) pairs to the
// decoder a site runs on every remote delivery it applies. It must never
// panic, decoding into warm scratch must read what a cold decode reads,
// and a message it accepts must equal what wire.DecodeMsg returns.
func FuzzApplyPayload(f *testing.F) {
	op := wire.OpRef{Site: 2 << 20, Epoch: 1, ID: 7}
	to := vm.NetRef{Heap: 3, Site: 1 << 20, Node: 1}
	args := []wire.Value{
		{Kind: wire.WInt, I: -5},
		{Kind: wire.WStr, S: "s"},
		{Kind: wire.WNet, Net: vm.NetRef{Heap: 9, Site: 2, Node: 2}},
		{Kind: wire.WClass, Group: 1, Class: 0, Captured: []wire.Value{{Kind: wire.WBool, I: 1}}},
	}
	for _, seed := range []struct {
		t       wire.FrameType
		payload []byte
	}{
		{wire.FMsg, (&wire.Msg{Op: op, To: to, Label: "val", Args: args}).Encode()},
		{wire.FMsg, (&wire.Msg{Op: op, To: to, Label: "val"}).Encode()},
		{wire.FObj, (&wire.Obj{Op: op, To: to, Unit: []byte{1, 2, 3}, Table: 2, Frame: args}).Encode()},
		{wire.FFetchReq, (&wire.FetchReq{Op: op, Class: "C", OwnerSite: 1, ReqID: 4, ReplySite: 2, ReplyNode: 2}).Encode()},
		{wire.FFetchRep, (&wire.FetchRep{Op: op, ReqID: 4, DstSite: 2, Err: "no such class"}).Encode()},
		{wire.FFetchRep, (&wire.FetchRep{Op: op, ReqID: 4, DstSite: 2, Class: "C", Unit: []byte{0}, Captured: args}).Encode()},
	} {
		f.Add(byte(seed.t), seed.payload)
		f.Add(byte(seed.t), seed.payload[:len(seed.payload)-1])
	}
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		ft := wire.FrameType(typ)
		var b payloadBody
		cold := b.decode(ft, payload)
		var first payloadBody
		if cold == nil {
			first = b
			first.msg.Args = slices.Clone(b.msg.Args)
			first.obj.Frame = slices.Clone(b.obj.Frame)
		}
		b.reset()
		warm := b.decode(ft, payload)
		if (cold == nil) != (warm == nil) {
			t.Fatalf("cold decode returned %v, warm decode %v", cold, warm)
		}
		if cold == nil && !reflect.DeepEqual(first, b) {
			t.Fatalf("warm decode %+v differs from cold decode %+v", b, first)
		}
		if ft == wire.FMsg {
			m, err := wire.DecodeMsg(payload)
			if (err == nil) != (warm == nil) {
				t.Fatalf("site decode returned %v, wire.DecodeMsg %v", warm, err)
			}
			if err == nil && (b.msg.Op != m.Op || b.msg.To != m.To || string(b.msg.Label) != m.Label || !reflect.DeepEqual(b.msg.Args, m.Args)) {
				t.Fatalf("site decode %+v, wire.DecodeMsg %+v", b.msg, *m)
			}
		}
		b.reset()
	})
}
