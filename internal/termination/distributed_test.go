package termination_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/nameservice"
	"repro/internal/node"
	"repro/internal/termination"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestCoordinatorPureWiring exercises the protocol over direct
// function calls: one coordinator, two participant nodes.
func TestCoordinatorPureWiring(t *testing.T) {
	var mu sync.Mutex
	busy := true
	localA := func() []termination.Probe {
		mu.Lock()
		defer mu.Unlock()
		return []termination.Probe{{Sent: 5, Recv: 5, Idle: !busy}}
	}
	localB := func() []termination.Probe {
		return []termination.Probe{{Sent: 2, Recv: 2, Idle: true}}
	}

	var coord *termination.Coordinator
	var partB *termination.Coordinator
	send := func(from uint32) func(dst uint32, payload []byte) error {
		return func(dst uint32, payload []byte) error {
			// Route synchronously in a fresh goroutine (as TyCOd would).
			go func() {
				switch dst {
				case 1:
					coord.HandleControl(from, payload)
				case 2:
					partB.HandleControl(from, payload)
				}
			}()
			return nil
		}
	}
	coord = termination.NewCoordinator(1, []uint32{1, 2}, send(1), localA)
	coord.Interval = time.Millisecond
	partB = termination.NewCoordinator(2, []uint32{1, 2}, send(2), localB)

	// While node 1 is busy, Wait must not fire.
	ctx1, cancel1 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel1()
	if err := coord.Wait(ctx1); err == nil {
		t.Fatal("declared termination while a site was busy")
	}
	// Quiesce and try again.
	mu.Lock()
	busy = false
	mu.Unlock()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := coord.Wait(ctx2); err != nil {
		t.Fatalf("termination never detected: %v", err)
	}
}

// TestCoordinatorOverNodes runs the distributed protocol over real
// nodes and the in-memory fabric, with actual DiTyCO sites doing work.
func TestCoordinatorOverNodes(t *testing.T) {
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	fabric := transport.NewFabric(transport.Ideal)
	t1, _ := fabric.Attach(1)
	t2, _ := fabric.Attach(2)

	var coord *termination.Coordinator
	var part *termination.Coordinator
	var n1, n2 *node.Node
	n1 = node.New(node.Config{ID: 1, NS: ns, Transport: t1,
		OnControl: func(ft wire.FrameType, src uint32, payload []byte) {
			if ft == wire.FTerm && coord != nil {
				coord.HandleControl(src, payload)
			}
		}})
	n2 = node.New(node.Config{ID: 2, NS: ns, Transport: t2,
		OnControl: func(ft wire.FrameType, src uint32, payload []byte) {
			if ft == wire.FTerm && part != nil {
				part.HandleControl(src, payload)
			}
		}})
	defer func() { n1.Stop(); n2.Stop(); fabric.Close() }()

	probes := func(n *node.Node) func() []termination.Probe {
		return func() []termination.Probe {
			var out []termination.Probe
			for _, s := range n.Sites() {
				sent, recv, idle := s.ControlState()
				out = append(out, termination.Probe{Sent: sent, Recv: recv, Idle: idle})
			}
			return out
		}
	}
	coord = termination.NewCoordinator(1, []uint32{1, 2},
		func(dst uint32, payload []byte) error { return n1.SendControl(wire.FTerm, dst, payload) },
		probes(n1))
	coord.Interval = time.Millisecond
	part = termination.NewCoordinator(2, []uint32{1, 2},
		func(dst uint32, payload []byte) error { return n2.SendControl(wire.FTerm, dst, payload) },
		probes(n2))

	var out testutil.Buf
	srv, err := node.CompileSubmission("server", `export new chat (chat?(v) = println("got", v))`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n1.Spawn("server", srv, &out); err != nil {
		t.Fatal(err)
	}
	cli, err := node.CompileSubmission("client", `import chat from server in chat![5]`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n2.Spawn("client", cli, nil); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := coord.Wait(ctx); err != nil {
		t.Fatalf("distributed termination never detected: %v", err)
	}
	if out.String() != "got 5\n" {
		t.Fatalf("termination fired before the work completed: out = %q", out.String())
	}
}
