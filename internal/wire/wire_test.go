package wire_test

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/testutil"
	"repro/internal/vm"
	"repro/internal/wire"
)

func randValue(r *rand.Rand, depth int) wire.Value {
	k := r.Intn(7)
	if depth > 2 && k == 6 {
		k = r.Intn(6)
	}
	switch k {
	case 0:
		return wire.Value{Kind: wire.WInt, I: r.Int63() - r.Int63()}
	case 1:
		return wire.Value{Kind: wire.WFloat, F: r.NormFloat64() * 1e6}
	case 2:
		return wire.Value{Kind: wire.WBool, I: int64(r.Intn(2))}
	case 3:
		return wire.Value{Kind: wire.WStr, S: string(rune('a'+r.Intn(26))) + "payload"}
	case 4:
		return wire.Value{Kind: wire.WNet, Net: vm.NetRef{Heap: r.Uint32(), Site: r.Uint32(), Node: r.Uint32()}}
	case 5:
		return wire.Value{Kind: wire.WNetClass, S: "Klass", Net: vm.NetRef{Site: r.Uint32(), Node: r.Uint32()}}
	default:
		n := r.Intn(3)
		capt := make([]wire.Value, n)
		for i := range capt {
			capt[i] = randValue(r, depth+1)
		}
		return wire.Value{Kind: wire.WClass, Group: r.Intn(10), Class: r.Intn(4), Captured: capt}
	}
}

func randValues(r *rand.Rand, n int) []wire.Value {
	out := make([]wire.Value, n)
	for i := range out {
		out[i] = randValue(r, 0)
	}
	return out
}

// normalizeNilSlices makes empty and nil Captured compare equal.
func normalizeNilSlices(vs []wire.Value) {
	for i := range vs {
		if len(vs[i].Captured) == 0 {
			vs[i].Captured = nil
		} else {
			normalizeNilSlices(vs[i].Captured)
		}
	}
}

func TestValueRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for i := 0; i < 500; i++ {
		vals := randValues(r, r.Intn(8))
		var w wire.Writer
		wire.EncodeValues(&w, vals)
		got, err := wire.DecodeValues(wire.NewReader(w.Bytes()), 0)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		normalizeNilSlices(vals)
		normalizeNilSlices(got)
		if len(got) == 0 && len(vals) == 0 {
			continue
		}
		if !reflect.DeepEqual(vals, got) {
			t.Fatalf("round trip changed values:\nin:  %v\nout: %v", vals, got)
		}
	}
}

func TestMsgRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for i := 0; i < 200; i++ {
		m := &wire.Msg{
			To:    vm.NetRef{Heap: r.Uint32(), Site: r.Uint32(), Node: r.Uint32()},
			Label: "work",
			Args:  randValues(r, r.Intn(5)),
		}
		got, err := wire.DecodeMsg(m.Encode())
		if err != nil {
			t.Fatal(err)
		}
		normalizeNilSlices(m.Args)
		normalizeNilSlices(got.Args)
		if got.To != m.To || got.Label != m.Label || !reflect.DeepEqual(nonNil(got.Args), nonNil(m.Args)) {
			t.Fatalf("msg round trip: %+v vs %+v", m, got)
		}
	}
}

func nonNil(v []wire.Value) []wire.Value {
	if v == nil {
		return []wire.Value{}
	}
	return v
}

func TestObjRoundTrip(t *testing.T) {
	o := &wire.Obj{
		To:    vm.NetRef{Heap: 3, Site: 2, Node: 1},
		Unit:  []byte{1, 2, 3, 4, 5},
		Table: 7,
		Frame: []wire.Value{{Kind: wire.WInt, I: 42}},
	}
	var got wire.Obj
	if err := wire.DecodeObjInto(&got, o.Encode()); err != nil {
		t.Fatal(err)
	}
	if got.To != o.To || got.Table != o.Table || string(got.Unit) != string(o.Unit) || got.Frame[0].I != 42 {
		t.Fatalf("obj round trip: %+v", got)
	}
}

func TestFetchFramesRoundTrip(t *testing.T) {
	req := &wire.FetchReq{Class: "Applet", OwnerSite: 9, ReqID: 77, ReplySite: 5, ReplyNode: 4}
	gotReq, err := wire.DecodeFetchReq(req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if *gotReq != *req {
		t.Fatalf("fetchreq: %+v vs %+v", req, gotReq)
	}
	rep := &wire.FetchRep{ReqID: 77, DstSite: 5, Class: "Applet", Unit: []byte{9, 9},
		Group: 1, Index: 2, Captured: []wire.Value{{Kind: wire.WStr, S: "cap"}}}
	gotRep, err := wire.DecodeFetchRep(rep.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if gotRep.ReqID != 77 || gotRep.DstSite != 5 || gotRep.Group != 1 || gotRep.Index != 2 ||
		gotRep.Captured[0].S != "cap" || string(gotRep.Unit) != string(rep.Unit) {
		t.Fatalf("fetchrep: %+v", gotRep)
	}
	repErr := &wire.FetchRep{ReqID: 1, DstSite: 2, Err: "no such class"}
	gotErr, err := wire.DecodeFetchRep(repErr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if gotErr.Err != "no such class" {
		t.Fatalf("error reply lost: %+v", gotErr)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	e := &wire.Envelope{Type: wire.FObj, SrcNode: 3, DstNode: 9, Payload: []byte("payload")}
	got, err := wire.DecodeEnvelope(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != wire.FObj || got.SrcNode != 3 || got.DstNode != 9 || string(got.Payload) != "payload" {
		t.Fatalf("envelope: %+v", got)
	}
}

func TestDecodeCorruptionIsSafe(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	m := &wire.Msg{To: vm.NetRef{Heap: 1, Site: 2, Node: 3}, Label: "l",
		Args: []wire.Value{{Kind: wire.WClass, Group: 1, Captured: []wire.Value{{Kind: wire.WInt, I: 5}}}}}
	data := m.Encode()
	for i := 0; i < 2000; i++ {
		mut := append([]byte(nil), data...)
		switch r.Intn(3) {
		case 0:
			mut[r.Intn(len(mut))] ^= byte(1 + r.Intn(255))
		case 1:
			mut = mut[:r.Intn(len(mut))]
		case 2:
			mut = append(mut, byte(r.Intn(256)))
		}
		_, _ = wire.DecodeMsg(mut)      // must not panic
		_, _ = wire.DecodeEnvelope(mut) // must not panic
	}
	// Hostile counts: a few bytes declaring a huge list must fail before
	// anything is allocated for the list.
	noArgs := (&wire.Msg{To: m.To, Label: "l"}).Encode() // ends in the argument count, 0
	for _, c := range []struct {
		name   string
		data   []byte
		decode func([]byte) error
	}{
		{"1M values", binary.AppendUvarint(nil, 1<<20), func(b []byte) error {
			_, err := wire.DecodeValues(wire.NewReader(b), 0)
			return err
		}},
		{"64M values", binary.AppendUvarint(nil, wire.MaxFrame), func(b []byte) error {
			_, err := wire.DecodeValues(wire.NewReader(b), 0)
			return err
		}},
		{"message declaring 64M args", binary.AppendUvarint(noArgs[:len(noArgs)-1], wire.MaxFrame), func(b []byte) error {
			_, err := wire.DecodeMsg(b)
			return err
		}},
	} {
		var err error
		n := testutil.AllocBytes(func() { err = c.decode(c.data) })
		if err == nil {
			t.Errorf("%s: %d bytes decoded without error", c.name, len(c.data))
		}
		if !testutil.Race && n >= 1<<20 {
			t.Errorf("%s: decoding %d bytes allocated %d bytes before failing", c.name, len(c.data), n)
		}
	}
}

func TestValueNestingDepthLimit(t *testing.T) {
	// A maliciously deep class-capture chain must be rejected.
	v := wire.Value{Kind: wire.WClass}
	for i := 0; i < 100; i++ {
		v = wire.Value{Kind: wire.WClass, Captured: []wire.Value{v}}
	}
	var w wire.Writer
	wire.EncodeValue(&w, v)
	if _, err := wire.DecodeValue(wire.NewReader(w.Bytes()), 0); err == nil {
		t.Fatal("unbounded nesting accepted")
	}
}

func TestReaderPrimitives(t *testing.T) {
	var w wire.Writer
	w.U(300)
	w.V(-5)
	w.S("hello")
	w.B([]byte{1, 2})
	w.Byte(0xFF)
	r := wire.NewReader(w.Bytes())
	if u, _ := r.U(); u != 300 {
		t.Fatal("U")
	}
	if v, _ := r.V(); v != -5 {
		t.Fatal("V")
	}
	if s, _ := r.S(); s != "hello" {
		t.Fatal("S")
	}
	if b, _ := r.B(); len(b) != 2 || b[1] != 2 {
		t.Fatal("B")
	}
	if by, _ := r.Byte(); by != 0xFF {
		t.Fatal("Byte")
	}
	if !r.Done() {
		t.Fatal("Done")
	}
	if _, err := r.Byte(); err == nil {
		t.Fatal("read past end should error")
	}
}

// callMsg is the request of a one-integer call: the argument and the
// reply channel.
func callMsg() *wire.Msg {
	return &wire.Msg{
		Op:    wire.OpRef{Site: 2, Epoch: 1, ID: 7},
		To:    vm.NetRef{Heap: 1, Site: 1, Node: 1},
		Label: "val",
		Args: []wire.Value{
			{Kind: wire.WInt, I: 123456},
			{Kind: wire.WNet, Net: vm.NetRef{Heap: 9, Site: 2, Node: 2}},
		},
	}
}

// msgRoundTrip encodes m the way a producer does (pooled writer,
// detached payload) and decodes it the way the receive path does.
func msgRoundTrip(tb testing.TB, m *wire.Msg) wire.Msg {
	w := wire.GetWriter()
	m.AppendPayload(w)
	payload := w.Detach()
	wire.PutWriter(w)
	var got wire.Msg
	if err := wire.DecodeMsgInto(&got, payload); err != nil {
		tb.Fatal(err)
	}
	return got
}

// TestMsgAllocBudget pins the wire cost of a one-integer call: the
// detached payload on the way out; the label and the argument list on
// the way in.
func TestMsgAllocBudget(t *testing.T) {
	m := callMsg()
	if got := msgRoundTrip(t, m); !reflect.DeepEqual(&got, m) {
		t.Fatalf("round trip: got %+v, want %+v", got, *m)
	}
	testutil.CheckAllocs(t, "encode + decode of a one-integer call", 3, 1000, func() {
		msgRoundTrip(t, m)
	})
}

func BenchmarkMsgRoundTrip(b *testing.B) {
	m := callMsg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		msgRoundTrip(b, m)
	}
}
