// Package experiments implements the evaluation harness of
// EXPERIMENTS.md. The paper itself publishes no measured tables (its
// prototype was "in the final stages of the implementation"), so each
// experiment here validates one architectural claim or figure from the
// paper: E1 latency hiding and the Myrinet/Fast-Ethernet platform
// rationale (Fig. 1), E2 the node-local optimization (Figs. 2/4), E3
// the VM granularity claims (Fig. 3), E4 the two applet-delivery
// strategies (§4), E5 the two-step RPC structure (§3), E6 the SETI
// master/worker workload (§4), E7 the wire/export-table machinery
// (§5), and E8 the future-work control services (§7).
//
// Every experiment returns a Table that cmd/tycobench prints; the
// bench_test.go targets at the repository root wrap the workloads of
// E1–E8 and E17 in testing.B form.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/transport"
)

// Table is one experiment's result in printable form. Metrics holds
// the same results as numbers, keyed "<id>/<name>", for tests to read.
type Table struct {
	ID      string
	Title   string
	Header  []string
	Rows    [][]string
	Notes   []string
	Metrics map[string]float64
}

// SetMetric records one machine-readable datapoint.
func (t *Table) SetMetric(key string, v float64) {
	if t.Metrics == nil {
		t.Metrics = map[string]float64{}
	}
	t.Metrics[key] = v
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Options scales the experiments.
type Options struct {
	// Quick shrinks every workload (CI mode).
	Quick bool
	// Seed perturbs seeded components (chaos schedules, determinism
	// probes) in experiments that honor it; 0 keeps each experiment's
	// fixed default seed so published tables stay reproducible.
	Seed int64
}

// seed returns the experiment's default seed unless Options overrides it.
func (o Options) seed(def uint64) uint64 {
	if o.Seed != 0 {
		return uint64(o.Seed)
	}
	return def
}

// scale picks between the full and quick parameter.
func (o Options) scale(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Runner is one experiment entry point.
type Runner struct {
	ID   string
	Name string
	Run  func(o Options) (*Table, error)
}

// All lists every experiment in order.
func All() []Runner {
	return []Runner{
		{"e1", "latency hiding & interconnect profiles (Fig. 1)", E1},
		{"e2", "communication locality & marshalling ablation (Figs. 2/4)", E2},
		{"e3", "virtual machine granularity (Fig. 3)", E3},
		{"e4", "applet delivery: fetch vs ship (§4)", E4},
		{"e5", "RPC structure: two ship steps (§3)", E5},
		{"e6", "SETI master/worker speedup (§4)", E6},
		{"e7", "wire format & mobile code sizes (§5)", E7},
		{"e8", "termination & failure detection (§7)", E8},
		{"e9", "reliable delivery under chaos (drop, dup, partition)", E9},
		{"e10", "crash recovery: journal overhead, checkpoint interval", E10},
		{"e11", "frame coalescing: msgs/s and allocs/op vs batch size", E11},
		{"e12", "telemetry: overhead & trace completeness", E12},
		{"e13", "introspection: scrape overhead & stall-detection latency", E13},
		{"e14", "gossip membership: detection latency, FP rate, traffic, drain", E14},
		{"e15", "overload: open-loop overdrive, shedding, goodput plateau", E15},
		{"e16", "work-stealing runtime: multi-core scaling sweep", E16},
		{"e17", "sharded name service: million-name churn, lease caches, ring transitions", E17},
		{"e18", "SLO analytics: burn-rate regression detection, exact cluster merge, overhead", E18},
	}
}

// runWorkload stands up a cluster, submits the programs, waits for
// global termination and returns the elapsed wall-clock time.
type workloadProgram struct {
	node int
	site string
	src  string
	out  io.Writer
	opts []node.SiteOption
}

func runWorkload(cfg core.ClusterConfig, progs []workloadProgram, timeout time.Duration) (time.Duration, *core.Cluster, error) {
	cl, err := core.NewCluster(cfg)
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	for _, p := range progs {
		if _, err := cl.Submit(p.node, p.site, p.src, p.out, p.opts...); err != nil {
			cl.Stop()
			return 0, nil, fmt.Errorf("submit %s: %w", p.site, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := cl.Wait(ctx); err != nil {
		cl.Stop()
		return 0, nil, fmt.Errorf("wait: %w (cluster: %v)", err, cl.Err())
	}
	return time.Since(start), cl, nil
}

// waitCluster waits for global termination with a deadline.
func waitCluster(cl *core.Cluster, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := cl.Wait(ctx); err != nil {
		return fmt.Errorf("wait: %w (cluster: %v)", err, cl.Err())
	}
	return nil
}

// mustProfile resolves a stock link model.
func mustProfile(name string) transport.LinkModel {
	m, ok := transport.Profile(name)
	if !ok {
		panic("unknown profile " + name)
	}
	return m
}

func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1e3)
}

func rate(n int, d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", float64(n)/d.Seconds())
}
