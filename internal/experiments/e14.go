package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/membership"
	"repro/internal/transport"
)

// E14 — gossip membership: detection latency, false-positive rate,
// probe traffic scaling, and drain evacuation time (DESIGN.md §13),
// each against a fixed budget:
//
//  1. Detection latency: crash one node of n and time the first
//     surviving observer's suspicion. Gossip probes one random peer
//     per period, so the budget allows two full rounds of the
//     suspicion floor: ≤ 2 × (SuspectAfter + Period).
//  2. False positives: an idle cluster on a link whose delivery jitter
//     exceeds the suspicion threshold. A binary timeout convicts on
//     every unlucky gap; the phi estimator learns the variance, and
//     its first-hand suspicions must stay within
//     e14FalsePositiveBudget. Every view's Suspect transitions —
//     first-hand plus those learned by gossip — are reported too.
//  3. Probe traffic: per-node probe load must stay flat as n grows
//     4→64 (within ±10% of the smallest cluster's).
//  4. Drain: evacuating a live SETI server by journal handoff, timed.
func E14(o Options) (*Table, error) {
	sizes := []int{4, 16, 64}
	if o.Quick {
		sizes = []int{4, 8}
	}
	reps := o.scale(3, 2)
	latencyBudget := 2 * (e14SuspectAfter + e14Period)

	t := &Table{
		ID:     "E14",
		Title:  "gossip membership: latency, false positives, traffic, drain",
		Header: []string{"phase", "n", "gossip", "budget"},
		Notes: []string{
			"latency: crash→first surviving suspicion, median of reps; budget 2 × (SuspectAfter + Period)",
			fmt.Sprintf("false positives: suspicions of live peers over an idle window, delivery jitter > suspect threshold; budget %d first-hand", e14FalsePositiveBudget),
			"traffic: membership probe messages per node per second, idle cluster; must stay flat 4→64",
			"drain: Node.Drain wall time for a live SETI server (journal handoff + adoption)",
		},
	}

	// Phase 1: detection latency.
	for _, n := range sizes {
		var ls []time.Duration
		for r := 0; r < reps; r++ {
			l, err := e14DetectLatency(n, o.seed(14)+uint64(r))
			if err != nil {
				return nil, fmt.Errorf("E14 latency n=%d: %w", n, err)
			}
			ls = append(ls, l)
		}
		l := median(ls)
		t.Rows = append(t.Rows, []string{
			"latency", fmt.Sprint(n), l.Round(time.Millisecond).String(), "≤ " + latencyBudget.String(),
		})
		t.SetMetric(fmt.Sprintf("e14/detect_latency_ms/n=%d", n), float64(l.Milliseconds()))
		if l > latencyBudget {
			t.Notes = append(t.Notes, fmt.Sprintf("WARNING: n=%d detection latency %v exceeds the %v budget", n, l, latencyBudget))
		}
	}

	// Phase 2: false positives under seeded jitter chaos.
	fp, views, err := e14FalsePositives(o)
	if err != nil {
		return nil, fmt.Errorf("E14 false positives: %w", err)
	}
	t.Rows = append(t.Rows,
		[]string{"false-pos first-hand", "8", fmt.Sprint(fp), fmt.Sprintf("≤ %d", e14FalsePositiveBudget)},
		[]string{"false-pos all views", "8", fmt.Sprint(views), "-"})
	t.SetMetric("e14/false_positives", float64(fp))
	t.SetMetric("e14/false_positive_transitions", float64(views))
	if fp > e14FalsePositiveBudget {
		t.Notes = append(t.Notes, fmt.Sprintf("WARNING: %d first-hand false positives exceed the budget of %d", fp, e14FalsePositiveBudget))
	}

	// Phase 3: probe traffic per node.
	var base float64
	for _, n := range sizes {
		pps, err := e14ProbeTraffic(n, o.seed(14))
		if err != nil {
			return nil, fmt.Errorf("E14 traffic n=%d: %w", n, err)
		}
		if base == 0 {
			base = pps
		}
		t.Rows = append(t.Rows, []string{
			"probes/node/s", fmt.Sprint(n), fmt.Sprintf("%.0f", pps), fmt.Sprintf("%.0f ±10%%", base),
		})
		t.SetMetric(fmt.Sprintf("e14/probes_per_node_per_sec/n=%d", n), pps)
		if pps > 1.1*base || pps < 0.9*base {
			t.Notes = append(t.Notes, fmt.Sprintf("WARNING: n=%d probe load %.0f/s is not flat against %.0f/s", n, pps, base))
		}
	}

	// Phase 4: drain evacuation time.
	evac, err := e14Drain(o)
	if err != nil {
		return nil, fmt.Errorf("E14 drain: %w", err)
	}
	t.Rows = append(t.Rows, []string{"drain", "3", evac.Round(time.Millisecond).String(), "-"})
	t.SetMetric("e14/drain_evac_ms", float64(evac.Milliseconds()))
	return t, nil
}

// The detection drills' protocol period and suspicion floor.
const (
	e14Period       = 10 * time.Millisecond
	e14SuspectAfter = 80 * time.Millisecond
)

// e14FalsePositiveBudget is a tenth of the 134 false suspicions a
// binary all-pairs heartbeat detector made in this drill
// (EXPERIMENTS.md E14).
const e14FalsePositiveBudget = 13

// e14DetectLatency crashes the last node of an idle n-node cluster and
// returns the time until any survivor first suspects it — first-hand,
// or by a Dead verdict gossiped to it.
func e14DetectLatency(n int, seed uint64) (time.Duration, error) {
	victim := uint32(n)
	var mu sync.Mutex
	armed := false
	var crashedAt time.Time
	detected := make(chan time.Duration, 1)
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes:       n,
		Chaos:       &transport.ChaosConfig{Seed: seed},
		Reliability: &transport.ReliableConfig{},
		Detect: &membership.Config{
			ProbeInterval: e14Period,
			SuspectAfter:  e14SuspectAfter,
			Seed:          seed,
		},
		OnSuspect: func(observer uint32, e membership.Event) {
			if e.Node != victim || (e.State != membership.StateSuspect && e.State != membership.StateDead) {
				return
			}
			mu.Lock()
			ok := armed
			at := crashedAt
			armed = false
			mu.Unlock()
			if ok {
				detected <- time.Since(at)
			}
		},
	})
	if err != nil {
		return 0, err
	}
	defer cl.Stop()
	// Warm the phi windows so the measurement starts from a converged
	// view.
	time.Sleep(400 * time.Millisecond)
	mu.Lock()
	armed = true
	crashedAt = time.Now()
	mu.Unlock()
	cl.Crash(n - 1)
	select {
	case lat := <-detected:
		return lat, nil
	case <-time.After(30 * time.Second):
		return 0, fmt.Errorf("crash of node %d never suspected", victim)
	}
}

// e14FalsePositives counts suspicions of live peers over an idle
// window on a link whose jitter dwarfs the suspicion threshold: those
// an agent's own phi score raised (first-hand), and every view's
// Suspect transitions, gossip-learned ones included.
func e14FalsePositives(o Options) (firstHand, views int, err error) {
	window := time.Duration(o.scale(2000, 800)) * time.Millisecond
	var mu sync.Mutex
	counting := false
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes: 8,
		Chaos: &transport.ChaosConfig{
			Seed:   o.seed(14),
			Drop:   0.1,
			Jitter: 100 * time.Millisecond,
		},
		Reliability: &transport.ReliableConfig{},
		Detect: &membership.Config{
			ProbeInterval: e14Period,
			SuspectAfter:  60 * time.Millisecond,
			DeadAfter:     5 * time.Second, // keep FP counting free of death churn
			Seed:          o.seed(14),
		},
		OnSuspect: func(observer uint32, e membership.Event) {
			if e.State != membership.StateSuspect {
				return
			}
			mu.Lock()
			if counting {
				views++
				if e.Phi > 0 { // raised by this agent's own score, not by gossip
					firstHand++
				}
			}
			mu.Unlock()
		},
	})
	if err != nil {
		return 0, 0, err
	}
	defer cl.Stop()
	// Warmup outside the counted window: the agents begin with empty
	// history, and first-contact noise is not a verdict.
	time.Sleep(500 * time.Millisecond)
	mu.Lock()
	counting = true
	mu.Unlock()
	time.Sleep(window)
	mu.Lock()
	defer mu.Unlock()
	counting = false
	return firstHand, views, nil
}

// e14ProbeTraffic measures gossip probe load per node per second on an
// idle n-node cluster.
func e14ProbeTraffic(n int, seed uint64) (float64, error) {
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes:       n,
		Reliability: &transport.ReliableConfig{},
		Detect: &membership.Config{
			ProbeInterval: e14Period,
			SuspectAfter:  e14SuspectAfter,
			Seed:          seed,
		},
	})
	if err != nil {
		return 0, err
	}
	defer cl.Stop()
	probes := func() uint64 {
		var sum uint64
		for i := 0; i < n; i++ {
			st := cl.Membership(i).Stats()
			sum += st.ProbesSent + st.PingReqsSent
		}
		return sum
	}
	time.Sleep(200 * time.Millisecond)
	before := probes()
	const window = time.Second
	time.Sleep(window)
	after := probes()
	return float64(after-before) / float64(n) / window.Seconds(), nil
}

// e14Drain runs a SETI round-trip workload and times Drain of the
// server's node mid-run (journal handoff, outbound quiesce, adoption).
func e14Drain(o Options) (time.Duration, error) {
	chunks := o.scale(40, 12)
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes:       3,
		Reliability: &transport.ReliableConfig{},
		Detect: &membership.Config{
			ProbeInterval: e14Period,
			SuspectAfter:  e14SuspectAfter,
			Seed:          o.seed(14),
		},
		Journal:         journal.NewMemFactory(),
		CheckpointEvery: 4,
	})
	if err != nil {
		return 0, err
	}
	defer cl.Stop()
	const server = `def Serve(db) = db?(c, r) = (r![(c * 7919 + 17) % 1000003] | Serve[db]) in export new db Serve[db]`
	if _, err := cl.Submit(0, "seti", server, nil); err != nil {
		return 0, err
	}
	out := &syncBuf{}
	if _, err := cl.Submit(1, "worker", e14WorkerSrc(chunks), out); err != nil {
		return 0, err
	}
	// Mid-flight: at least one chunk has round-tripped, the rest are
	// in the pipeline.
	if err := pollUntil(30*time.Second, func() bool { return out.Len() > 0 }); err != nil {
		return 0, fmt.Errorf("workload never started: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	start := time.Now()
	err = cl.Drain(ctx, 0)
	evac := time.Since(start)
	cancel()
	if err != nil {
		return 0, fmt.Errorf("drain: %w", err)
	}
	if err := waitCluster(cl, 2*time.Minute); err != nil {
		return 0, fmt.Errorf("post-drain: %w", err)
	}
	return evac, nil
}

// e14WorkerSrc unrolls a sequential chunk RPC chain (the E6/chaos
// worker shape).
func e14WorkerSrc(chunks int) string {
	var b strings.Builder
	b.WriteString("import db from seti in\n")
	for c := 0; c < chunks; c++ {
		fmt.Fprintf(&b, "let v%d = db![%d] in ( println(\"chunk\", %d, v%d) |\n", c, c, c, c)
	}
	b.WriteString("inaction")
	b.WriteString(strings.Repeat(" )", chunks))
	return b.String()
}

// median of a small slice (sorted in place).
func median(ds []time.Duration) time.Duration {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	return ds[len(ds)/2]
}
