package repro

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/transport"
)

// twoWayFloodSink prints a start line, then consumes n messages.
func twoWayFloodSink(n int) string {
	return fmt.Sprintf(`
def Sink(q, k) = if k == 0 then println("done") else q?(i, s) = Sink[q, k - 1]
in export new q (println("start") | Sink[q, %d])`, n)
}

// gateWriter holds every write until its gate closes: a site printing
// to it stops mid-turn, as a site blocked on any slow output does.
type gateWriter struct {
	gate chan struct{}
	lockedWriter
}

func (g *gateWriter) Write(p []byte) (int, error) {
	<-g.gate
	return g.lockedWriter.Write(p)
}

// TestTwoWayFloodDoesNotDeadlock: each node floods a sink on the other
// with 1 KiB messages, and node 1's flooder also pings node 0's flooder
// once per message; node 0's flooder reads its pings only after its own
// flood. Node 1's sink starts stalled on its output, so node 1's queue
// of delivered frames fills and node 1 holds node 0's frames unacked.
// Node 0's flooder then blocks mid-turn on its outbound ring, its inbox
// fills with pings, node 0's TyCOd waits on that inbox, and node 0's
// delivered queue fills too. Once node 0 is seen holding, the sink is
// released: node 1 drains and acks, and node 0's flooder moves only if
// node 0's receive loop applies those acks while its queue is still
// full. A loop that blocked on its consumer instead would hold nothing
// and apply no ack while full. A small window and ring make the cycle
// form with few messages.
func TestTwoWayFloodDoesNotDeadlock(t *testing.T) {
	const n, window = 8000, 8
	data := strings.Repeat("x", 1024)
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes:       2,
		Reliability: &transport.ReliableConfig{Window: window},
		Batch:       node.BatchConfig{MaxQueueBytes: 16 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	open := make(chan struct{})
	close(open)
	stalled := &gateWriter{gate: make(chan struct{})}
	outs := map[string]*gateWriter{}
	submit := func(nodeIdx int, name, src string, out *gateWriter) {
		t.Helper()
		outs[name] = out
		if _, err := cl.Submit(nodeIdx, name, src, out); err != nil {
			t.Fatal(err)
		}
	}
	submit(0, "sink0", twoWayFloodSink(n), &gateWriter{gate: open})
	submit(1, "sink1", twoWayFloodSink(n), stalled)
	submit(0, "flood0", fmt.Sprintf(`import q from sink1 in
def Flood(p, i, s) = if i == 0 then Drain[p, %d] else (q![i, s] | Flood[p, i - 1, s])
and Drain(p, k) = if k == 0 then println("done") else p?(x) = Drain[p, k - 1]
in export new p Flood[p, %d, "%s"]`, n, n, data), &gateWriter{gate: open})
	submit(1, "flood1", fmt.Sprintf(`import q from sink0 in
import p from flood0 in
def Flood(i, s) = if i == 0 then println("done") else (q![i, s] | p![i] | Flood[i - 1, s])
in Flood[%d, "%s"]`, n, data), &gateWriter{gate: open})

	start := time.Now()
	stats := func() (held, full [2]uint64) {
		for i := range held {
			s := cl.Node(i).Reliable().Stats()
			held[i], full[i] = s.Held, s.FullAcks
		}
		return held, full
	}
	// Node 0 has held a whole window of node 1's frames: node 1's
	// flooder is stalled behind node 0's full queue.
	for time.Since(start) < 5*time.Second {
		if held, _ := stats(); held[0] >= window {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stalled.gate)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cl.Wait(ctx); err != nil {
		held, full := stats()
		t.Fatalf("two-way flood stuck after %v: %v (held %v, acks applied while full %v, cluster: %v)",
			time.Since(start), err, held, full, cl.Err())
	}
	for name, out := range outs {
		if !strings.Contains(out.String(), "done") {
			t.Errorf("%s did not finish: %q", name, out.String())
		}
	}
	held, full := stats()
	t.Logf("done in %v: data packets held %v, dedicated acks applied while full %v", time.Since(start), held, full)
	if held[0] == 0 || held[1] == 0 {
		t.Errorf("held %v data packets: a node's delivered-frame queue never filled", held)
	}
	if full[0] == 0 {
		t.Error("node 0 applied no dedicated ack while its delivered-frame queue was full")
	}
}
