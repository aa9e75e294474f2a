package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/slo"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// E18 — SLO analytics plane: regression detection latency, exact
// cluster-wide histogram merging, and the cost of leaving it on
// (DESIGN.md §17). Three phases:
//
//  1. Detect: the open-loop rig with the analytics plane on and a
//     p99 sojourn objective. Phase A drives 0.5x wire capacity and the
//     verdict must read "ok"; phase B injects a latency regression —
//     the server's output device starts stalling 2ms per write while
//     the offered load jumps to 5x overdrive — and the tracker must
//     flip to "breach" within one slow window of the injection. The
//     regression is measured by the real pipeline (queue sojourn of
//     actual deliveries backing up behind the stalled site), not by
//     synthetic samples. Detection latency is the whole point of
//     multi-window burn rates: the fast window reacts in seconds, the
//     slow window confirms. The drill also scrapes the live cluster
//     mid-breach: /metrics must parse as strict OpenMetrics (histogram
//     ladders validated), /statusz must carry the verdicts, and
//     /timeseries must merge into a non-empty cluster-wide sojourn
//     distribution.
//
//  2. Merge: a seeded synthetic check that cluster merging is EXACT,
//     not quantile averaging. Four synthetic nodes (heavy, light,
//     single-sample, empty) each retain windowed deltas of the same
//     logical histogram; the scraped docs merged through
//     ClusterView.WindowDist must equal — bucket for bucket — the
//     histogram of the union stream, and the merged p999 must sit
//     within bucket resolution of the true (sorted raw) p999. Every
//     value is seeded, so e18/p999_ns is deterministic and a test pins
//     it.
//
//  3. Overhead: the E12 call workload with retention+SLO tracking off
//     vs on (telemetry itself on in both — the analytics delta is what
//     this isolates). Budget: ≤2%, reported as a WARNING rather than a
//     failure because wall-clock throughput on a loaded CI machine is
//     noisy; the deterministic phases above are the gates.
func E18(o Options) (*Table, error) {
	t := &Table{
		ID:     "E18",
		Title:  "SLO analytics: burn-rate regression detection, exact cluster merge, overhead",
		Header: []string{"phase", "detail", "value", "check"},
		Notes: []string{
			"detect: E15 open-loop rig, p99(deliver.sojourn_nanos)<2ms; 0.5x must read ok; a 2ms output stall injected under 5x overdrive must breach within one slow window",
			"merge: 4 synthetic nodes (heavy/light/single-sample/empty); merged windows must equal the union histogram bucket-for-bucket",
			"overhead: E12 call workload, analytics (retention+SLO) off vs on, telemetry on in both; ≤2% budget (warning, not gate)",
		},
	}

	det, err := e18Detect(o)
	if err != nil {
		return nil, fmt.Errorf("E18 detect: %w", err)
	}
	t.Rows = append(t.Rows,
		[]string{"detect", "0.5x verdict", "ok", "ok"},
		[]string{"detect", "5x time-to-breach", det.detect.Round(time.Millisecond).String(),
			fmt.Sprintf("< slow window %v", det.slow)},
		[]string{"detect", "burn slow at breach", fmt.Sprintf("%.1f", det.breachBurn), "≥ 1"},
		[]string{"detect", "cluster p99 sojourn", time.Duration(det.clusterP99).Round(time.Microsecond).String(),
			fmt.Sprintf("merged from %d nodes", det.scrapedNodes)},
	)
	t.SetMetric("e18/detect_ms", float64(det.detect.Milliseconds()))
	t.SetMetric("e18/breach_burn_slow", det.breachBurn)
	t.SetMetric("e18/cluster_p99_sojourn_ns", det.clusterP99)

	mrg, err := e18Merge(o)
	if err != nil {
		return nil, fmt.Errorf("E18 merge: %w", err)
	}
	t.Rows = append(t.Rows,
		[]string{"merge", "union samples", fmt.Sprint(mrg.samples), "bucket-exact across 4 nodes"},
		[]string{"merge", "merged p999", time.Duration(mrg.p999).Round(time.Microsecond).String(),
			fmt.Sprintf("true %v", time.Duration(mrg.truP999).Round(time.Microsecond))},
		[]string{"merge", "p999 rel err", fmt.Sprintf("%.3f%%", mrg.relErrPct), "≤ 2% (bucket resolution)"},
	)
	t.SetMetric("e18/p999_ns", mrg.p999)
	t.SetMetric("e18/merge_rel_err_pct", mrg.relErrPct)

	base, analytics, err := e18Overhead(o)
	if err != nil {
		return nil, fmt.Errorf("E18 overhead: %w", err)
	}
	overhead := (base - analytics) / base * 100
	t.Rows = append(t.Rows,
		[]string{"overhead", "analytics=off", fmt.Sprintf("%.0f msgs/s", base), "-"},
		[]string{"overhead", "analytics=on", fmt.Sprintf("%.0f msgs/s", analytics), fmt.Sprintf("%.1f%%", overhead)},
	)
	t.SetMetric("e18/overhead_pct", overhead)
	if overhead > 2 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"WARNING: analytics overhead %.1f%% exceeds the 2%% budget (noisy on loaded machines; re-run full scale)", overhead))
	}
	return t, nil
}

type e18DetectResult struct {
	detect       time.Duration
	breachBurn   float64
	slow         time.Duration
	clusterP99   float64
	scrapedNodes int
}

// e18SojournMetric is the objective's input: queue sojourn observed at
// every delivery (node.go wires site.OnSojourn into the telemetry
// histogram whenever telemetry is on).
const e18SojournMetric = "deliver.sojourn_nanos"

// e18SlowWriter is the fault injector: the server site's output
// device, which can start stalling on demand. println runs on the
// site's delivery loop, so a stalled writer backs queued deliveries up
// behind it — a genuine serving-path latency regression, visible to
// the sojourn histogram without any synthetic samples.
type e18SlowWriter struct {
	delayNs atomic.Int64
}

func (w *e18SlowWriter) Write(p []byte) (int, error) {
	if d := w.delayNs.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return len(p), nil
}

// sloWindows is the analytics plane's timing in every SLO drill:
// the retention tick and the two burn-rate windows, shrunk in quick
// mode.
type sloWindows struct{ interval, fast, slow time.Duration }

func sloWindowsFor(o Options) sloWindows {
	if o.Quick {
		return sloWindows{50 * time.Millisecond, 250 * time.Millisecond, time.Second}
	}
	return sloWindows{100 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second}
}

// introspect is the introspection plane tracking objectives over w.
func (w sloWindows) introspect(objectives []string) *node.IntrospectConfig {
	return &node.IntrospectConfig{
		TimeSeries: telemetry.TSConfig{Interval: w.interval, Capacity: 256},
		SLO:        &slo.Config{Objectives: objectives, FastWindow: w.fast, SlowWindow: w.slow},
	}
}

// sloVerdicts folds every node's verdicts to the worst slow-window burn
// per objective, sorted by name, and reports the most severe state any
// node holds.
func (r *openLoopRig) sloVerdicts() ([]telemetry.SLOVerdict, string) {
	var all []telemetry.SLOVerdict
	for i := 0; i < r.cl.Nodes(); i++ {
		all = append(all, r.cl.Node(i).SLOVerdicts()...)
	}
	byName := map[string]telemetry.SLOVerdict{}
	for _, v := range all {
		if cur, ok := byName[v.Name]; !ok || v.BurnSlow > cur.BurnSlow {
			byName[v.Name] = v
		}
	}
	worst := make([]telemetry.SLOVerdict, 0, len(byName))
	for _, v := range byName {
		worst = append(worst, v)
	}
	sort.Slice(worst, func(i, j int) bool { return worst[i].Name < worst[j].Name })
	return worst, telemetry.WorstSLOState(all)
}

// e18Detect runs the two-phase regression drill on the open-loop rig.
func e18Detect(o Options) (*e18DetectResult, error) {
	w := sloWindowsFor(o)
	out := &e18SlowWriter{}
	rig, err := newOpenLoopRig(out, w.introspect([]string{"p99(" + e18SojournMetric + ")<2ms"}))
	if err != nil {
		return nil, err
	}
	cl := rig.cl
	defer cl.Stop()

	// Phase A: half capacity until the slow window is warm. The verdict
	// must settle at ok — a healthy system must not page.
	if err := rig.drive(0.5, w.slow+6*w.interval, nil); err != nil {
		return nil, err
	}
	if vs, stateA := rig.sloVerdicts(); stateA != "ok" {
		return nil, fmt.Errorf("phase A (0.5x) verdict %q want ok (%+v)", stateA, vs)
	}

	// Phase B: the server's output device degrades (2ms stall per
	// write) just as the offered load jumps to 5x overdrive. The gate
	// is one slow window plus analytics-tick slack.
	out.delayNs.Store(int64(2 * time.Millisecond))
	regressAt := time.Now()
	budget := w.slow + 4*w.interval
	detected := false
	err = rig.drive(5, budget+4*w.interval, func() bool {
		if _, s := rig.sloVerdicts(); s == "breach" {
			detected = true
			return true
		}
		return false
	})
	if err != nil {
		return nil, err
	}
	detect := time.Since(regressAt)
	if !detected {
		vs, s := rig.sloVerdicts()
		return nil, fmt.Errorf("5x overdrive not detected within %v (state %q, verdicts %+v)", budget+4*w.interval, s, vs)
	}
	if detect > budget {
		return nil, fmt.Errorf("detection took %v, budget %v (one slow window + tick slack)", detect, budget)
	}
	bv, _ := rig.sloVerdicts()

	// Mid-breach scrape: the whole plane must hold together under load.
	cv := telemetry.ScrapeCluster(cl.IntrospectionAddrs(), 5*time.Second)
	if len(cv.Nodes) != cl.Nodes() {
		return nil, fmt.Errorf("scraped %d nodes want %d", len(cv.Nodes), cl.Nodes())
	}
	sawVerdict := false
	for _, v := range cv.Nodes {
		if v.Err != "" {
			return nil, fmt.Errorf("node %d scrape: %s", v.Node, v.Err)
		}
		if v.TS == nil {
			return nil, fmt.Errorf("node %d serves no /timeseries", v.Node)
		}
		if len(v.Status.SLO) > 0 {
			sawVerdict = true
		}
	}
	if !sawVerdict {
		return nil, fmt.Errorf("no /statusz carries SLO verdicts")
	}
	merged := cv.WindowDist(e18SojournMetric, w.slow)
	if merged.Total() == 0 {
		return nil, fmt.Errorf("cluster-merged sojourn window is empty")
	}
	return &e18DetectResult{
		detect:       detect,
		breachBurn:   telemetry.MaxSLOBurn(bv),
		slow:         w.slow,
		clusterP99:   merged.Quantile(99),
		scrapedNodes: len(cv.Nodes),
	}, nil
}

type e18MergeResult struct {
	samples   int
	p999      float64
	truP999   float64
	relErrPct float64
}

// e18Merge builds the seeded synthetic cluster and checks merge
// exactness against the union-stream oracle.
func e18Merge(o Options) (*e18MergeResult, error) {
	// Node shapes the satellite property test also covers: a heavy
	// node, a light node, a single-sample node, an empty node.
	counts := []int{o.scale(20000, 4000), o.scale(5000, 1000), 1, 0}
	rng := o.seed(18)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	// Skewed latency shape: 20µs–1ms body, 1% tail stretched ×50.
	sample := func() float64 {
		v := 20_000 + next()%1_000_000
		if next()%100 == 0 {
			v *= 50
		}
		return float64(v)
	}

	base := time.UnixMilli(1_000_000)
	oracle := &stats.BucketHistogram{}
	var raw []float64
	var views []telemetry.NodeView
	for i, n := range counts {
		reg := telemetry.NewRegistry()
		ts := telemetry.NewTimeSeries(reg, uint32(i), telemetry.TSConfig{Interval: time.Second, Capacity: 8})
		h := reg.Histogram("e18.synth")
		for j := 0; j < n; j++ {
			v := sample()
			h.Observe(v)
			oracle.Observe(v)
			raw = append(raw, v)
		}
		ts.Sample(base.Add(time.Second))
		doc := ts.Doc()
		views = append(views, telemetry.NodeView{Node: uint32(i), TS: &doc})
	}
	merged := telemetry.ClusterView{Nodes: views}.WindowDist("e18.synth", 10*time.Second)

	// Bucket-exact: the merged windows ARE the union histogram.
	want := oracle.Snapshot()
	if merged.Total() != want.Total() || merged.Sum != want.Sum {
		return nil, fmt.Errorf("merged total/sum %d/%.0f want %d/%.0f",
			merged.Total(), merged.Sum, want.Total(), want.Sum)
	}
	if len(merged.Buckets) != len(want.Buckets) {
		return nil, fmt.Errorf("merged %d buckets want %d", len(merged.Buckets), len(want.Buckets))
	}
	for i := range want.Buckets {
		if merged.Buckets[i] != want.Buckets[i] {
			return nil, fmt.Errorf("bucket %d: merged %+v want %+v", i, merged.Buckets[i], want.Buckets[i])
		}
	}

	// Merged p999 vs the true order statistic of the raw union stream.
	sort.Float64s(raw)
	rank := int(math.Ceil(99.9 / 100 * float64(len(raw))))
	tru := raw[rank-1]
	p999 := merged.Quantile(99.9)
	relErr := math.Abs(p999-tru) / tru * 100
	if relErr > 2 {
		return nil, fmt.Errorf("merged p999 %.0fns vs true %.0fns: rel err %.2f%% > 2%%", p999, tru, relErr)
	}
	return &e18MergeResult{samples: len(raw), p999: p999, truP999: tru, relErrPct: relErr}, nil
}

// SLODrill is `tycobench -slo`: the open-loop rig driven at the given
// offered-load multiples with operator-chosen objectives. Each multiple
// runs for one slow window plus analytics slack, then the nodes'
// verdicts are collected (worst burn per objective across the
// cluster), one table row per objective and load level.
func SLODrill(o Options, specs []string, mults []int) (*Table, error) {
	if len(mults) == 0 {
		mults = []int{1}
	}
	w := sloWindowsFor(o)
	t := &Table{
		ID:     "SLO",
		Title:  "open-loop SLO drill: burn-rate verdicts per offered load",
		Header: []string{"offered", "objective", "observed", "target", "burn fast", "burn slow", "state"},
		Notes: []string{
			fmt.Sprintf("wire capacity ≈ %.0f msgs/s; windows fast %v / slow %v; each load level runs one slow window", wireCapacity, w.fast, w.slow),
			"verdict per objective: worst slow-window burn across the cluster's nodes",
		},
	}
	for _, mult := range mults {
		verdicts, err := func() ([]telemetry.SLOVerdict, error) {
			rig, err := newOpenLoopRig(io.Discard, w.introspect(specs))
			if err != nil {
				return nil, err
			}
			defer rig.cl.Stop()
			if err := rig.drive(float64(mult), w.slow+6*w.interval, nil); err != nil {
				return nil, err
			}
			vs, _ := rig.sloVerdicts()
			return vs, nil
		}()
		if err != nil {
			return nil, fmt.Errorf("slo drill %dx: %w", mult, err)
		}
		if len(verdicts) == 0 {
			return nil, fmt.Errorf("slo drill %dx: no verdicts evaluated", mult)
		}
		for _, v := range verdicts {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%dx", mult), v.Objective,
				fmt.Sprintf("%.3g", v.Observed), fmt.Sprintf("%.3g", v.Target),
				fmt.Sprintf("%.2f", v.BurnFast), fmt.Sprintf("%.2f", v.BurnSlow), v.State,
			})
		}
	}
	return t, nil
}

// e18Overhead measures the analytics plane's throughput cost on the
// E12 call workload: telemetry+introspection on in both configs, with
// retention+SLO tracking the only delta.
func e18Overhead(o Options) (base, analytics float64, err error) {
	calls := o.scale(150, 20)
	reps := o.scale(3, 1)
	const callers = 128
	run := func(intro *node.IntrospectConfig) (float64, error) {
		var best float64
		for r := 0; r < reps; r++ {
			elapsed, cl, err := runWorkload(core.ClusterConfig{
				Nodes:         2,
				Link:          mustProfile("fastether"),
				Reliability:   &transport.ReliableConfig{},
				Telemetry:     &telemetry.Config{},
				Introspection: intro,
			}, []workloadProgram{
				{node: 0, site: "server", src: e1Server},
				{node: 1, site: "client", src: e1Client(callers, calls)},
			}, 5*time.Minute)
			if err != nil {
				return 0, err
			}
			cl.Stop()
			if sec := float64(2*callers*calls) / elapsed.Seconds(); sec > best {
				best = sec
			}
		}
		return best, nil
	}
	base, err = run(&node.IntrospectConfig{TimeSeries: telemetry.TSConfig{Disable: true}})
	if err != nil {
		return 0, 0, fmt.Errorf("analytics=off: %w", err)
	}
	analytics, err = run(&node.IntrospectConfig{
		TimeSeries: telemetry.TSConfig{Interval: 50 * time.Millisecond},
		SLO:        &slo.Config{Objectives: []string{"p99(" + e18SojournMetric + ")<5ms"}, FastWindow: time.Second, SlowWindow: 5 * time.Second},
	})
	if err != nil {
		return 0, 0, fmt.Errorf("analytics=on: %w", err)
	}
	return base, analytics, nil
}
