package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/membership"
)

// E8 — the control services the paper names as future work (§7):
// termination-detection latency as the cluster grows, and
// failure-detection time as a function of the gossip probe period.
func E8(o Options) (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "termination detection latency and failure detection time",
		Header: []string{"measure", "parameter", "value"},
	}

	// Termination detection: sites that finish a small burst of work;
	// measured time is from the moment the cluster is actually idle
	// (workload is trivial) to Wait returning — detector overhead.
	siteCounts := []int{2, 8, 32}
	if o.Quick {
		siteCounts = []int{2, 8}
	}
	for _, k := range siteCounts {
		cl, err := core.NewCluster(core.ClusterConfig{Nodes: 1})
		if err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			if _, err := cl.Submit(0, fmt.Sprintf("s%d", i), `println("x")`, nil); err != nil {
				cl.Stop()
				return nil, err
			}
		}
		// First wait absorbs the actual work; the measured second
		// wait is pure detection latency on an idle cluster.
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		if err := cl.Wait(ctx); err != nil {
			cancel()
			cl.Stop()
			return nil, err
		}
		start := time.Now()
		if err := cl.Wait(ctx); err != nil {
			cancel()
			cl.Stop()
			return nil, err
		}
		detect := time.Since(start)
		cancel()
		cl.Stop()
		t.Rows = append(t.Rows, []string{"termination detect", fmt.Sprintf("%d sites", k), detect.Round(10 * time.Microsecond).String()})
	}

	// Failure detection: two in-process membership agents gossiping
	// through function calls; node 2 falls silent and we time until
	// node 1 suspects it.
	periods := []time.Duration{2 * time.Millisecond, 10 * time.Millisecond}
	if o.Quick {
		periods = []time.Duration{2 * time.Millisecond}
	}
	for _, period := range periods {
		d, err := measureFailureDetection(period)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"failure detect", fmt.Sprintf("period %v", period), d.Round(100 * time.Microsecond).String()})
	}
	t.Notes = append(t.Notes,
		"failure detection time ≥ SuspectAfter (4 × period): the phi score convicts only past that floor, checked once per period")
	return t, nil
}

// measureFailureDetection wires two membership agents back to back,
// cuts node 2 off in both directions, and times node 1's suspicion.
func measureFailureDetection(period time.Duration) (time.Duration, error) {
	var m1, m2 *membership.M
	var crashed atomic.Bool
	suspected := make(chan time.Time, 1)
	var once sync.Once
	peers := []uint32{1, 2}
	m1 = membership.New(membership.Config{
		Self: 1, Peers: peers, ProbeInterval: period,
		Send: func(dst uint32, payload []byte) error {
			if !crashed.Load() {
				m2.Observe(1, payload)
			}
			return nil
		},
		OnEvent: func(e membership.Event) {
			if e.Node == 2 && e.State == membership.StateSuspect {
				once.Do(func() { suspected <- time.Now() })
			}
		},
	})
	m2 = membership.New(membership.Config{
		Self: 2, Peers: peers, ProbeInterval: period,
		Send: func(dst uint32, payload []byte) error {
			if !crashed.Load() {
				m1.Observe(2, payload)
			}
			return nil
		},
	})
	m1.Start()
	m2.Start()
	defer m1.Stop()
	// Let the pair gossip a few periods, then "crash" node 2.
	time.Sleep(10 * period)
	killed := time.Now()
	crashed.Store(true)
	m2.Stop()
	select {
	case at := <-suspected:
		return at.Sub(killed), nil
	case <-time.After(100*period + time.Second):
		return 0, fmt.Errorf("failure never detected (period %v)", period)
	}
}
