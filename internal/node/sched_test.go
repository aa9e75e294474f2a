package node_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/nameservice"
	"repro/internal/node"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// oneNode builds a single node on an in-memory fabric, with cfg free
// to adjust the node configuration before construction.
func oneNode(t testing.TB, cfg func(*node.Config)) (*node.Node, func()) {
	t.Helper()
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	fabric := transport.NewFabric(transport.Ideal)
	tr, err := fabric.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	c := node.Config{ID: 1, NS: ns, Transport: tr}
	if cfg != nil {
		cfg(&c)
	}
	n := node.New(c)
	return n, func() {
		n.Stop()
		fabric.Close()
	}
}

// The work-stealing scheduler must run every site to completion and
// expose its pool shape through Status().Sched: the configured worker
// count, one queue gauge per worker, and the steal counter.
func TestSchedulerRunsSitesAndReportsStats(t *testing.T) {
	n, stop := oneNode(t, func(c *node.Config) {
		c.Sched = node.SchedConfig{Workers: 4, Seed: 7}
	})
	defer stop()
	const sites = 8
	outs := make([]*testutil.Buf, sites)
	for i := range outs {
		outs[i] = &testutil.Buf{}
		submit(t, n, fmt.Sprintf("s%d", i), `println("done")`, outs[i])
	}
	for _, out := range outs {
		out := out
		waitFor(t, func() bool { return strings.Contains(out.String(), "done") })
	}
	st := n.Status()
	if st.Sched == nil {
		t.Fatal("Status().Sched is nil with the scheduler enabled")
	}
	if st.Sched.Workers != 4 {
		t.Fatalf("Workers = %d, want 4", st.Sched.Workers)
	}
	if len(st.Sched.Queues) != 4 {
		t.Fatalf("len(Queues) = %d, want 4", len(st.Sched.Queues))
	}
	// All sites terminated, so the ready backlog must drain to zero.
	waitFor(t, func() bool { return n.Status().Sched.RunQueueDepth() == 0 })
}

// Local cross-site traffic must work under the scheduler: the sender's
// worker hands the delivery to the receiver site via its inbox and
// wake hook, never by running the receiver inline.
func TestSchedulerLocalPingPong(t *testing.T) {
	n, stop := oneNode(t, func(c *node.Config) {
		c.Sched = node.SchedConfig{Workers: 2}
	})
	defer stop()
	out := &testutil.Buf{}
	submit(t, n, "server",
		`def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p]) in export new p Serve[p]`,
		&testutil.Buf{})
	submit(t, n, "client", `
import p from server in
def Call(n) = if n == 0 then println("sum done") else let y = p![n] in Call[n - 1]
in Call[50]`, out)
	waitFor(t, func() bool { return strings.Contains(out.String(), "sum done") })
}

// Regression for a lost-wakeup race in worker parking: a push racing a
// parking worker could read parked==0 (and skip the cond signal) while
// the worker's work re-check predated the push's depth increment — the
// site then sat queued with every worker parked, and a quiet node
// stalled permanently. Repeatedly let both pools go fully idle, then
// wake them from external goroutines (Spawn from the test goroutine,
// the reply frame from the transport receive path); with the race
// present a round eventually hangs and trips the waitFor deadline.
func TestSchedulerQuietNodeWake(t *testing.T) {
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	fabric := transport.NewFabric(transport.Ideal)
	t1, err := fabric.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := fabric.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	n1 := node.New(node.Config{ID: 1, NS: ns, Transport: t1, Sched: node.SchedConfig{Workers: 2}})
	n2 := node.New(node.Config{ID: 2, NS: ns, Transport: t2, Sched: node.SchedConfig{Workers: 2}})
	defer func() {
		n1.Stop()
		n2.Stop()
		fabric.Close()
	}()
	submit(t, n1, "server",
		`def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p]) in export new p Serve[p]`,
		&testutil.Buf{})
	rounds := 60
	if testing.Short() {
		rounds = 10
	}
	for i := 0; i < rounds; i++ {
		// A pause with no runnable site parks every worker on both
		// nodes before the next wake arrives.
		time.Sleep(2 * time.Millisecond)
		out := &testutil.Buf{}
		submit(t, n2, fmt.Sprintf("c%d", i),
			`import p from server in let y = p![1] in println("ok")`, out)
		waitFor(t, func() bool { return strings.Contains(out.String(), "ok") })
	}
}

// A one-byte MaxQueueBytes forces every producer after the first
// through the blocked-on-cap path: each enqueue waits for the flusher
// to drain the peer ring before appending. A client blasting
// pipelined requests must still get every reply — the cap applies
// backpressure without deadlocking or losing envelopes.
func TestBatchRingCapBackpressure(t *testing.T) {
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	fabric := transport.NewFabric(transport.Ideal)
	t1, err := fabric.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := fabric.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	tiny := node.BatchConfig{MaxQueueBytes: 1}
	n1 := node.New(node.Config{ID: 1, NS: ns, Transport: t1, Batch: tiny})
	n2 := node.New(node.Config{ID: 2, NS: ns, Transport: t2, Batch: tiny})
	defer func() {
		n1.Stop()
		n2.Stop()
		fabric.Close()
	}()
	submit(t, n2, "server",
		`def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p]) in export new p Serve[p]`,
		&testutil.Buf{})
	out := &testutil.Buf{}
	submit(t, n1, "client", `
import p from server in
def Collect(done, n) = if n == 0 then println("all replies") else (done?(y) = Collect[done, n - 1])
and Blast(done, n) = if n == 0 then inaction else (new r (p![n, r] | r?(y) = done![y]) | Blast[done, n - 1])
in new done (Collect[done, 100] | Blast[done, 100])`, out)
	waitFor(t, func() bool { return strings.Contains(out.String(), "all replies") })
}

// Worker count 0 defaults to GOMAXPROCS (at least one worker).
func TestSchedulerDefaultWorkerCount(t *testing.T) {
	n, stop := oneNode(t, nil)
	defer stop()
	st := n.Status()
	if st.Sched == nil {
		t.Fatal("Status().Sched is nil with the default config")
	}
	if st.Sched.Workers < 1 {
		t.Fatalf("Workers = %d, want >= 1", st.Sched.Workers)
	}
}
