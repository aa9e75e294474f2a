// Faults: the paper's future-work facilities in action (§7): "We want
// to be able to detect site failures, reconfigure the computation
// topology and to try to terminate computations cleanly."
//
// Three nodes run gossip membership agents over the control channel,
// a distributed termination coordinator watches a worker computation
// finish, a transient partition cuts node 2 off (suspicion rises, then
// clears when the link heals), and finally node 3 "crashes" — the
// survivors suspect it and reconfigure their view of the cluster.
//
//	go run ./examples/faults
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/membership"
	"repro/internal/nameservice"
	"repro/internal/node"
	"repro/internal/termination"
	"repro/internal/transport"
	"repro/internal/wire"
)

func main() {
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	fabric := transport.NewFabric(transport.Myrinet)
	defer fabric.Close()
	// A fault controller on every link (no background faults — it is
	// driven explicitly for the partition phase below).
	chaos := transport.NewChaos(transport.ChaosConfig{Seed: 7})
	defer chaos.Close()

	ids := []uint32{1, 2, 3}
	nodes := map[uint32]*node.Node{}
	coords := map[uint32]*termination.Coordinator{}
	for _, id := range ids {
		id := id
		tr, err := fabric.Attach(id)
		if err != nil {
			fail(err)
		}
		nodes[id] = node.New(node.Config{
			ID: id, NS: ns, Transport: chaos.Wrap(tr), Out: os.Stdout,
			OnControl: func(ft wire.FrameType, src uint32, payload []byte) {
				if ft == wire.FTerm {
					if c := coords[id]; c != nil {
						c.HandleControl(src, payload)
					}
				}
			},
		})
	}
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
	for _, id := range ids {
		id := id
		coords[id] = termination.NewCoordinator(id, ids,
			func(dst uint32, payload []byte) error {
				return nodes[id].SendControl(wire.FTerm, dst, payload)
			}, probes(nodes[id]))
		coords[id].Interval = time.Millisecond
	}

	// Membership agents with a reconfiguration hook.
	agents := map[uint32]*membership.M{}
	for _, id := range ids {
		id := id
		agents[id] = nodes[id].AttachMembership(membership.Config{
			Peers:         ids,
			ProbeInterval: 5 * time.Millisecond,
			OnEvent: func(e membership.Event) {
				switch {
				case down(e.State):
					fmt.Printf("node %d: node %d is %s — reconfiguring\n", id, e.Node, e.State)
				case down(e.Prev):
					fmt.Printf("node %d trusts node %d again\n", id, e.Node)
				}
			},
		})
	}
	sees := func(observer, peer uint32) membership.State {
		st, _ := agents[observer].State(peer)
		return st
	}

	// Phase 1: run a small distributed computation and detect its
	// termination with the distributed coordinator on node 1.
	submit := func(id uint32, site, src string) {
		prog, err := node.CompileSubmission(site, src)
		if err != nil {
			fail(err)
		}
		if _, err := nodes[id].Spawn(site, prog, os.Stdout); err != nil {
			fail(err)
		}
	}
	submit(1, "server", `def Serve(p) = p?(x, r) = (r![x * 2] | Serve[p]) in export new p Serve[p]`)
	submit(2, "clienta", `import p from server in let v = p![10] in println("clienta got", v)`)
	submit(3, "clientb", `import p from server in let v = p![20] in println("clientb got", v)`)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	if err := coords[1].Wait(ctx); err != nil {
		fail(fmt.Errorf("termination detection: %w", err))
	}
	fmt.Printf("-- distributed termination detected by node 1 after %v\n",
		time.Since(start).Round(time.Millisecond))

	// Phase 2: a transient partition — node 2 drops off the network,
	// the others suspect it, the link heals, trust returns. Nothing
	// died; suspicion is a view of connectivity, not a verdict.
	fmt.Println("-- partitioning node 2 from nodes 1 and 3")
	chaos.Partition(1, 2)
	chaos.Partition(2, 3)
	waitFor := func(what string, cond func() bool) {
		deadline := time.After(10 * time.Second)
		for !cond() {
			select {
			case <-deadline:
				fail(fmt.Errorf("timed out waiting for %s", what))
			case <-time.After(time.Millisecond):
			}
		}
	}
	waitFor("suspicion of node 2", func() bool {
		return down(sees(1, 2)) && down(sees(3, 2))
	})
	fmt.Println("-- healing the partition")
	chaos.Heal(1, 2)
	chaos.Heal(2, 3)
	waitFor("trust in node 2", func() bool {
		return sees(1, 2) == membership.StateAlive && sees(3, 2) == membership.StateAlive
	})

	// Phase 3: crash node 3 (its agent stops with it) and watch the
	// survivors notice.
	fmt.Println("-- crashing node 3")
	nodes[3].Stop()
	waitFor("suspicion of node 3", func() bool {
		return down(sees(1, 3)) && down(sees(2, 3))
	})
	fmt.Printf("-- node 1 sees alive: %v; node 2 sees alive: %v\n",
		agents[1].AliveNodes(), agents[2].AliveNodes())
	for _, id := range []uint32{1, 2} {
		nodes[id].Stop()
	}
}

// down reports whether a membership verdict counts a peer as failed.
func down(s membership.State) bool {
	return s == membership.StateSuspect || s == membership.StateDead
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "faults:", err)
	os.Exit(1)
}
