package node

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/nameservice"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/vm"
	"repro/internal/wire"
)

// TestBadBodyDropsOneDelivery: a message whose operation header reads
// but whose body does not decode passes dispatch — the TyCOd reads only
// the header — and the site drops that delivery alone when it applies
// it. The node reports no error, the site counts one bad drop and keeps
// running, and the next call is answered.
func TestBadBodyDropsOneDelivery(t *testing.T) {
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	fabric := transport.NewFabric(transport.Ideal)
	defer fabric.Close()
	tr, err := fabric.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	n := New(Config{ID: 1, NS: ns, Transport: tr})
	defer n.Stop()
	prog, err := CompileSubmission("server", `def S(c) = c?(v) = (println("got", v) | S[c]) in export new chat S[chat]`)
	if err != nil {
		t.Fatal(err)
	}
	var out testutil.Buf
	s, err := n.Spawn("server", prog, &out)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ref, _, err := ns.LookupName(ctx, "server", "chat")
	if err != nil {
		t.Fatal(err)
	}

	frame := func(id uint64, v int64, cut int) []byte {
		m := wire.Msg{
			Op: wire.OpRef{Site: 2 << 20, Epoch: 1, ID: id}, To: vm.NetRef{Heap: ref.Heap, Site: ref.Site, Node: 1},
			Label: "val", Args: []wire.Value{{Kind: wire.WInt, I: v}},
		}
		payload := m.Encode()
		env := wire.Envelope{Type: wire.FMsg, SrcNode: 2, DstNode: 1, Payload: payload[:len(payload)-cut]}
		return env.Encode()
	}
	if err := n.dispatch(frame(1, 41, 2)); err != nil { // the argument list cut short
		t.Fatalf("dispatch of a truncated body: %v", err)
	}
	if err := n.dispatch(frame(2, 42, 0)); err != nil {
		t.Fatal(err)
	}
	if !testutil.Eventually(func() bool { return strings.Contains(out.String(), "got 42") }, 10*time.Second) {
		t.Fatalf("the call after the bad body was not answered (out=%q, site err %v)", out.String(), s.Err())
	}
	n.Stop() // the site's counters are its own until it has stopped
	if err := n.Err(); err != nil {
		t.Errorf("node error: %v", err)
	}
	if err := s.Err(); err != nil {
		t.Errorf("site error: %v", err)
	}
	if s.BadDrops != 1 {
		t.Errorf("BadDrops = %d, want 1", s.BadDrops)
	}
	if strings.Contains(out.String(), "got 41") {
		t.Errorf("the truncated message was applied (out=%q)", out.String())
	}
	if _, recv, _ := s.ControlState(); recv != 2 {
		t.Errorf("%d deliveries counted received, want both", recv)
	}
}
