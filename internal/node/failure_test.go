package node_test

import (
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/nameservice"
	"repro/internal/node"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestNodeFailureDetection stops a node and checks that its peer's
// membership agent suspects it over the gossip control channel, and
// that the verdict has reached the reliable layer by the time the
// event is observed: sends to the stopped peer fail fast.
func TestNodeFailureDetection(t *testing.T) {
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	fabric := transport.NewFabric(transport.Ideal)
	t1, _ := fabric.Attach(1)
	t2, _ := fabric.Attach(2)
	rel := &transport.ReliableConfig{}
	n1 := node.New(node.Config{ID: 1, NS: ns, Transport: t1, Reliability: rel})
	n2 := node.New(node.Config{ID: 2, NS: ns, Transport: t2, Reliability: rel})
	defer func() { n1.Stop(); fabric.Close() }()

	events := make(chan membership.Event, 64)
	peers := []uint32{1, 2}
	n1.AttachMembership(membership.Config{Peers: peers, ProbeInterval: 2 * time.Millisecond,
		OnEvent: func(e membership.Event) { events <- e }})
	n2.AttachMembership(membership.Config{Peers: peers, ProbeInterval: 2 * time.Millisecond})

	// Stopping the node stops its agent too: node 2 falls silent.
	stopped := time.Now()
	n2.Stop()

	deadline := time.After(10 * time.Second)
	for {
		select {
		case e := <-events:
			down := e.State == membership.StateSuspect || e.State == membership.StateDead
			if e.Node == 2 && down && !e.At.Before(stopped) {
				if !n1.Reliable().PeerDown(2) {
					t.Fatalf("%v of node 2 observed, but the reliable layer still has it up", e.State)
				}
				return
			}
		case <-deadline:
			t.Fatal("stopped node never suspected")
		}
	}
}

// TestNodeFailureDetectorCoexistsWithControl verifies handler
// chaining: gossip frames are consumed by the membership agent while
// other control frames still reach the original handler.
func TestNodeFailureDetectorCoexistsWithControl(t *testing.T) {
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	fabric := transport.NewFabric(transport.Ideal)
	t1, _ := fabric.Attach(1)
	t2, _ := fabric.Attach(2)
	defer fabric.Close()
	got := make(chan string, 4)
	n1 := node.New(node.Config{ID: 1, NS: ns, Transport: t1,
		OnControl: func(ft wire.FrameType, src uint32, payload []byte) {
			got <- string(payload)
		}})
	n2 := node.New(node.Config{ID: 2, NS: ns, Transport: t2})
	defer n1.Stop()
	defer n2.Stop()
	peers := []uint32{1, 2}
	m1 := n1.AttachMembership(membership.Config{Peers: peers, ProbeInterval: time.Millisecond})
	n2.AttachMembership(membership.Config{Peers: peers, ProbeInterval: time.Millisecond})
	// Node 1 has answered a ping from node 2: gossip reaches it.
	waitFor(t, func() bool { return m1.Stats().AcksSent > 0 })

	if err := n2.SendControl(wire.FTerm, 1, []byte("term-frame")); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case p := <-got:
			if p == "term-frame" {
				return // FTerm passed through the chained handler
			}
			t.Fatalf("unexpected payload %q (gossip must not leak through)", p)
		case <-deadline:
			t.Fatal("FTerm frame swallowed by the membership chain")
		}
	}
}
