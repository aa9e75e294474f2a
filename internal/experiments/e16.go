package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/transport"
)

// e16Client is e1Client pointed at a named server site: w concurrent
// callers, each making c sequential remote calls against `server`.
func e16Client(server string, w, c int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "import p from %s in\n", server)
	b.WriteString("def Caller(n) = if n == 0 then inaction else let y = p![n] in Caller[n - 1]\nin ")
	parts := make([]string, w)
	for i := range parts {
		parts[i] = fmt.Sprintf("Caller[%d]", c)
	}
	b.WriteString(strings.Join(parts, " | "))
	return b.String()
}

// E16 — multi-core scaling of the work-stealing node runtime
// (DESIGN.md §15).
//
// Run a many-site ping-pong workload — S independent server sites on
// node 0, S matching client sites on node 1, each client running
// several concurrent callers — and sweep GOMAXPROCS together with the
// scheduler's worker count over {1, 2, 4, 8}. With one worker the
// runtime degenerates to the serialized schedule; with P workers the
// S-way site parallelism should spread across cores via work
// stealing. Report aggregate application messages per second, the
// scaling efficiency eff(P) = rate(P) / (P * rate(1)), and the steal
// counters that show the load balancer actually moved work.
//
// The honest caveat the table carries in its notes: on a machine with
// fewer physical cores than P, GOMAXPROCS over-subscription measures
// scheduler overhead, not speedup — the `cpus` metric records what
// the numbers were taken on, and the benchdiff gate compares relative
// efficiency curves rather than absolute ratios.
func E16(o Options) (*Table, error) {
	calls := o.scale(150, 50)
	sites := o.scale(8, 4)
	const callers = 8
	gmps := o.Parallel
	if len(gmps) == 0 {
		gmps = []int{1, 2, 4, 8}
		if o.Quick {
			gmps = []int{1, 2, 4}
		}
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	t := &Table{
		ID:     "E16",
		Title:  "work-stealing runtime: msgs/s and scaling efficiency vs GOMAXPROCS",
		Header: []string{"gomaxprocs", "msgs/s", "efficiency", "steals"},
		Notes: []string{
			fmt.Sprintf("%d server sites + %d client sites across 2 nodes; %d callers x %d calls per client", sites, sites, callers, calls),
			fmt.Sprintf("efficiency = rate(P) / (P * rate(1)); measured with %d physical CPU(s) — beyond that, P measures overhead, not speedup", runtime.NumCPU()),
			"steals counts successful steal batches across both nodes' schedulers",
		},
	}
	var base float64
	for _, p := range gmps {
		runtime.GOMAXPROCS(p)
		cfg := core.ClusterConfig{
			Nodes:       2,
			Link:        mustProfile("fastether"),
			Reliability: &transport.ReliableConfig{},
			Sched:       node.SchedConfig{Workers: p},
		}
		progs := make([]workloadProgram, 0, 2*sites)
		for i := 0; i < sites; i++ {
			progs = append(progs, workloadProgram{node: 0, site: fmt.Sprintf("server%d", i), src: e1Server})
		}
		for i := 0; i < sites; i++ {
			progs = append(progs, workloadProgram{
				node: 1,
				site: fmt.Sprintf("client%d", i),
				src:  e16Client(fmt.Sprintf("server%d", i), callers, calls),
			})
		}
		elapsed, cl, err := runWorkload(cfg, progs, 5*time.Minute)
		if err != nil {
			return nil, fmt.Errorf("E16 gomaxprocs=%d: %w", p, err)
		}
		var steals uint64
		for i := 0; i < cl.Nodes(); i++ {
			steals += cl.Node(i).Status().Sched.Steals
		}
		cl.Stop()

		// Each call is one request plus one reply envelope.
		msgs := 2 * sites * callers * calls
		perSec := float64(msgs) / elapsed.Seconds()
		if base == 0 {
			base = perSec
		}
		eff := perSec / (float64(p) * base)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p),
			fmt.Sprintf("%.0f", perSec),
			fmt.Sprintf("%.2f", eff),
			fmt.Sprintf("%d", steals),
		})
		key := fmt.Sprintf("e16/gmp=%d", p)
		t.SetMetric(key+"/msgs_per_sec", perSec)
		t.SetMetric(key+"/efficiency", eff)
		t.SetMetric(key+"/steals", float64(steals))
	}
	t.SetMetric("e16/cpus", float64(runtime.NumCPU()))
	return t, nil
}
