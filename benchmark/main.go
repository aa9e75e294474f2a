// Command benchmark is the repository's benchmark: six closed-loop
// DiTyCO workloads on in-process clusters, measured from outside.
// See README.md in this directory.
//
//	go run ./benchmark                      every workload, human-readable report
//	go run ./benchmark -workload rpc_fanin  one workload; last line is the JSON result
//	go run ./benchmark -trace 1             per-layer metrics and span files
//	go run ./benchmark -selfcheck           two sets, compared against BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
	// printOnly keeps a metric in the report but out of BENCHMARK.json
	// and the result line, where it would be held to a bound.
	printOnly bool
}

// endToEnd lists the metrics a DiTyCO user sees, in report order.
// op_fail_ratio is printed with them but travels in the result's
// attempted/failed fields: it is 0 at the seed, and the contract
// wants end-to-end metrics that are never 0. op_us_p99 is printed
// only: its spread from one run to the next (9-14% on the build host,
// more on a busier one) leaves no room under the largest bound the
// contract allows (README, "Bounds and spreads").
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "ops_per_s", unit: "1/s", higher: true},
	{name: "op_us_p50", unit: "us"},
	{name: "op_us_p99", unit: "us", printOnly: true},
	{name: "cpu_us_per_op", unit: "us"},
	{name: "allocs_per_op", unit: "count"},
	{name: "alloc_bytes_per_op", unit: "B"},
	{name: "peak_heap_mb", unit: "MB"},
}

// layerUnits gives every per-layer metric's unit.
var layerUnits = map[string]string{
	"wire.encode_ns_per_msg": "ns", "wire.decode_ns_per_msg": "ns", "wire.allocs_per_msg": "count", "wire.batch_ns_per_entry": "ns",
	"wire.encode_ns_per_msg_1k": "ns", "wire.decode_ns_per_msg_1k": "ns", "wire.allocs_per_msg_1k": "count", "wire.batch_ns_per_entry_1k": "ns",
	"node.msgs_per_frame": "count", "node.remote_deliveries_per_op": "count", "node.local_deliveries_per_op": "count",
	"node.delivery_failures": "count", "node.sched_steals_per_kop": "count", "node.sched_workers": "count",
	"transport.mem_ns_per_frame": "ns", "transport.reliable_ns_per_frame": "ns", "transport.reliable_allocs_per_frame": "count",
	"transport.frames_per_op": "count", "transport.retransmit_ratio": "ratio", "transport.acks_per_data": "ratio", "transport.expired": "count",
	"site.turn_ns_per_delivery": "ns", "site.turn_allocs_per_delivery": "count", "site.fetch_retries": "count",
	"site.expired_drops": "count", "site.units_linked_per_op": "count",
	"vm.ns_per_reduction": "ns", "vm.allocs_per_reduction": "count", "vm.extract_us": "us", "vm.link_us": "us",
	"asm.encode_us": "us", "asm.decode_verify_us": "us", "asm.unit_bytes": "B",
	"syntax.parse_us_per_site": "us", "types.check_us_per_site": "us", "compiler.compile_us_per_site": "us", "core.submit_us": "us",
	"nameservice.register_ns": "ns", "nameservice.lookup_ns": "ns", "nameservice.allocs_per_call": "count",
	"nameservice.calls_per_site": "count", "nameservice.lookup_wait_us_p50": "us",
	"journal.append_ns": "ns", "journal.appends_per_op": "count", "journal.bytes_per_op": "B",
	"telemetry.record_ns": "ns", "stats.observe_ns": "ns", "planes.cpu_us_per_op_delta": "us",
	"termination.detect_ms": "ms", "core.cluster_new_ms": "ms", "core.stop_ms": "ms",
	"layers.sum_us_per_op": "us", "layers.coverage_ratio": "ratio", "trace.overhead_pct": "%",
}

type options struct {
	workload  string
	seed      int64
	seconds   float64 // measured time per workload: it sets the number of windows
	windows   int     // when > 0, the number of windows instead
	trace     int
	traceDir  string
	selfcheck bool
	smoke     bool
}

// A measured window is sized for half a second of work, whatever the
// flags: peak_heap_mb and ops_per_s depend on how long a window runs,
// so -seconds and -windows only count windows. The host's speed jumps
// by half for a few seconds at a time, so a run's median settles with
// the number of windows it is taken over and the time they span, not
// with their length: many short windows, not few long ones. -smoke
// shrinks a window for the harness's own test.
const (
	fullWindowSec  = 0.5
	smokeWindowSec = 0.05
	minWindows     = 5
	// setupsPerRun set-ups are spread evenly over a run's windows.
	setupsPerRun = 6
)

func (o options) windowSec() float64 {
	if o.smoke {
		return smokeWindowSec
	}
	return fullWindowSec
}

// result is one workload run.
type result struct {
	w         *workload
	ops       int // per window
	windows   int
	setups    int
	e2e       map[string]summary
	speed     summary // the host's, over the measured windows (1 = nominal)
	replies   int     // probe replies timed, over all windows
	tail      int     // percentile op_us_p99 was read at in every window
	attempted int
	failed    int
	timedOut  int
	// Of the traced window: its counters, spans and throughput, and the
	// front-end drivers' results on this workload's sources.
	counters  *layerCounters
	rec       *recorder
	tracedOps float64
	front     map[string]float64
	layer     map[string]float64 // every per-layer metric, the invocation's shared ones included
}

func (r *result) failRatio() float64 { return float64(r.failed) / float64(r.attempted) }

// seedFor derives a workload's input seed; salt separates the warm-up
// inputs from the measured ones.
func seedFor(seed int64, name string, salt int64) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(seed*1000003 + int64(h.Sum64()>>1) + salt))
}

// sizes turns a window length into fixed op counts via the workload's
// sizing hints; share scales the window (the warm-up is a quarter).
func sizes(w *workload, sec, share float64) (ops, probeOps int) {
	ops = int(w.opsPerSec * sec)
	if w.maxOps > 0 && ops > w.maxOps {
		ops = w.maxOps
	}
	ops = int(float64(ops) * share)
	if ops < 64 {
		ops = 64
	}
	// The probe is sized to end a little before the load does, so its
	// tail does not outlive the window.
	probeOps = int(0.7 * float64(ops) / w.opsPerSec * 1e6 / w.probeUs)
	if probeOps < 8 {
		probeOps = 8
	}
	return ops, probeOps
}

// windowCount is how many windows -seconds asks for, unless -windows
// says. A traced run reports no end-to-end metric, so a third of the
// untraced windows do as the base of trace.overhead_pct and leave the
// time to the traced window and the drivers.
func windowCount(o options) int {
	if o.windows > 0 {
		return o.windows
	}
	n := int(o.seconds/o.windowSec() + 0.5)
	if o.trace == 1 {
		n /= 3
	}
	return max(n, minWindows)
}

// prepare generates and compiles one window's inputs.
func prepare(w *workload, rng *rand.Rand, sec, share float64) (*inputs, compiled, error) {
	ops, probeOps := sizes(w, sec, share)
	in := w.generate(rng, ops, probeOps)
	if w.sequential {
		return in, compiled{}, nil
	}
	progs, err := compileAll(in)
	return in, progs, err
}

func runWorkload(o options, w *workload) (*result, error) {
	sec := o.windowSec()
	timeout := 10*time.Second + time.Duration(2*sec*float64(time.Second))
	res := &result{w: w, e2e: map[string]summary{}}
	host := newHostClock()

	// Set-up: generate the inputs from the seed, compile them, and run
	// one discarded warm-up window (a quarter of a measured one) on
	// its own cluster. A single set-up is too short to time steadily,
	// so a run sets up setupsPerRun times, at even distances, and
	// reports the median: spread over the run, the set-ups cannot all
	// fall into one burst of host noise at the start of the process.
	var setups []float64
	var in *inputs
	var progs compiled
	setup := func() error {
		start := time.Now()
		var err error
		if in, progs, err = prepare(w, seedFor(o.seed, w.name, 0), sec, 1); err != nil {
			return err
		}
		warm, warmProgs, err := prepare(w, seedFor(o.seed, w.name, 1), sec, 0.25)
		if err != nil {
			return err
		}
		wr, err := runWindow(w, warm, warmProgs, nil, nil, timeout)
		if err != nil {
			return err
		}
		res.attempted += wr.ops + wr.checked
		res.failed += wr.failed + wr.bad
		elapsed := time.Since(start).Seconds()
		setups = append(setups, elapsed*host.speed())
		return nil
	}

	// A window is fixed work, so a slow host or a slow program takes
	// longer over it; the run still ends on time, because it stops
	// once its windows' own time adds up to what their planned number
	// was to take (but not before minWindows).
	planned := windowCount(o)
	budget := time.Duration(float64(planned) * sec * float64(time.Second))
	setupEvery := (planned + setupsPerRun - 1) / setupsPerRun
	var measured time.Duration
	var opsPerS, cpu, allocs, bytes, heap, p50s, tails, speeds []float64
	for i := 0; i < planned && (o.windows > 0 || measured < budget || i < minWindows); i++ {
		if i%setupEvery == 0 {
			if err := setup(); err != nil {
				return nil, err
			}
			// A probe's replies are counted, so every window of a run
			// reads its tail at the same percentile.
			res.tail = tailLevel(in.probeReplies())
		}
		wr, err := runWindow(w, in, progs, nil, host, timeout)
		if err != nil {
			return nil, err
		}
		res.windows++
		measured += wr.elapsed
		res.attempted += wr.ops + wr.checked
		res.failed += wr.failed + wr.bad
		if wr.timedOut {
			res.timedOut++
		}
		ok := float64(wr.ops - wr.failed)
		if ok == 0 {
			continue
		}
		// Timings are reported at nominal host speed (hostspeed.go).
		speeds = append(speeds, wr.speed)
		opsPerS = append(opsPerS, wr.opsPerSec())
		cpu = append(cpu, float64(wr.cpu)/1e3/ok*wr.speed)
		allocs = append(allocs, float64(wr.mallocs)/ok)
		bytes = append(bytes, float64(wr.allocBytes)/ok)
		heap = append(heap, float64(wr.peakHeap)/(1<<20))
		p50, tail := percentiles(wr.probeUs, res.tail)
		p50s = append(p50s, p50*wr.speed)
		tails = append(tails, tail*wr.speed)
		res.replies += len(wr.probeUs)
	}
	res.e2e["setup_s"] = summarize(setups)
	res.setups = len(setups)
	res.ops = in.ops()
	if len(opsPerS) == 0 {
		return res, nil
	}
	res.speed = summarize(speeds)
	res.e2e["ops_per_s"] = summarize(opsPerS)
	res.e2e["cpu_us_per_op"] = summarize(cpu)
	res.e2e["allocs_per_op"] = summarize(allocs)
	res.e2e["alloc_bytes_per_op"] = summarize(bytes)
	res.e2e["peak_heap_mb"] = summarize(heap)
	// Latency percentiles are read per window, like every other metric:
	// a burst of host noise then spoils the windows it hits, which the
	// median over windows ignores, where one pool of all replies would
	// take its tail from exactly those windows.
	res.e2e["op_us_p50"] = summarize(p50s)
	res.e2e["op_us_p99"] = summarize(tails)

	if o.trace == 1 {
		if err := traceWorkload(o, w, res, in, progs, host, timeout); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceWorkload repeats one measured window with the span recorder
// on, runs the front-end drivers over the workload's sources, and
// writes the span file. The window is full-length because throughput
// falls as a window's heap grows: a shorter traced window would beat
// the untraced ones.
func traceWorkload(o options, w *workload, res *result, in *inputs, progs compiled, host *hostClock, timeout time.Duration) error {
	res.rec = newRecorder(fmt.Sprintf("%s-seed%d", w.name, o.seed), w.name)
	wr, err := runWindow(w, in, progs, res.rec, host, timeout)
	if err != nil {
		return err
	}
	res.attempted += wr.ops + wr.checked
	res.failed += wr.failed + wr.bad
	if wr.layer == nil {
		return fmt.Errorf("%s: traced window timed out", w.name)
	}
	res.counters, res.tracedOps = wr.layer, wr.opsPerSec()
	if res.front, err = frontendDrivers(in.sources()); err != nil {
		return err
	}
	return res.rec.write(o.traceDir)
}

// planesDelta is planes.cpu_us_per_op_delta = cpu_us_per_op of
// rpc_full − rpc_fanin. A sibling the invocation did not measure runs
// one untraced window here.
func planesDelta(o options, results []*result) (float64, error) {
	cpu := map[string]float64{}
	for _, r := range results {
		cpu[r.w.name] = r.e2e["cpu_us_per_op"].median
	}
	for _, name := range []string{"rpc_full", "rpc_fanin"} {
		if _, ok := cpu[name]; ok {
			continue
		}
		so := o
		so.trace, so.windows = 0, 1
		sr, err := runWorkload(so, workloadByName(name))
		if err != nil {
			return 0, err
		}
		cpu[name] = sr.e2e["cpu_us_per_op"].median
	}
	return cpu["rpc_full"] - cpu["rpc_fanin"], nil
}

// runSet runs the workloads and, traced, what an invocation measures
// once whatever its workloads: the layer drivers and the planes delta.
func runSet(o options, ws []*workload) (results []*result, shared map[string]float64, err error) {
	for _, w := range ws {
		r, err := runWorkload(o, w)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		results = append(results, r)
	}
	if o.trace == 0 {
		return results, nil, nil
	}
	if shared, err = runDrivers(seedFor(o.seed, "drivers", 0), o.smoke); err != nil {
		return nil, nil, err
	}
	if shared["planes.cpu_us_per_op_delta"], err = planesDelta(o, results); err != nil {
		return nil, nil, err
	}
	for _, r := range results {
		r.layer = layerMetrics(r, shared)
	}
	return results, shared, nil
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func report(r *result, shared map[string]float64) {
	fmt.Printf("\n== %s: %s\n", r.w.name, r.w.why)
	fmt.Printf("   %d windows of %d ops (%.2fs by the rate hint), closed loop\n",
		r.windows, r.ops, float64(r.ops)/r.w.opsPerSec)
	fmt.Printf("   %-22s %14s %-6s %14s %14s  %s\n", "metric", "median", "unit", "q1", "q3", "samples")
	for _, m := range endToEnd {
		s := r.e2e[m.name]
		note := fmt.Sprintf("%d windows", r.windows)
		switch m.name {
		case "op_us_p50":
			note = fmt.Sprintf("%d windows, %d probe replies", r.windows, r.replies)
		case "op_us_p99":
			note = fmt.Sprintf("%d windows, each read at p%d of its %d replies (>=10 beyond)", r.windows, r.tail, r.replies/r.windows)
		case "setup_s":
			note = fmt.Sprintf("%d set-ups, spread over the run", r.setups)
		}
		fmt.Printf("   %-22s %14.4f %-6s %14.4f %14.4f  %s\n", m.name, s.median, m.unit, s.q1, s.q3, note)
	}
	fmt.Printf("   %-22s %14.6f %-6s %14s %14s  %d failed / %d attempted, %d windows timed out\n",
		"op_fail_ratio", r.failRatio(), "ratio", "-", "-", r.failed, r.attempted, r.timedOut)
	fmt.Printf("   %-22s %14.4f %-6s %14.4f %14.4f  reference kernel around each window; times above are raw x this, rates raw / this\n",
		"host_speed", r.speed.median, "ratio", r.speed.q1, r.speed.q3)
	if r.layer == nil {
		return
	}
	own := map[string]float64{}
	for k, v := range r.layer {
		if _, ok := shared[k]; !ok {
			own[k] = v
		}
	}
	fmt.Printf("   per-layer (counters and spans of one traced window; front-end drivers: median of %d)\n", driverReps)
	reportLayer(own)
}

func reportLayer(m map[string]float64) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("   %-38s %14.3f %s\n", k, m[k], layerUnits[k])
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultDoc is the last line of a run's standard output.
type resultDoc struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine is the machine-readable result: the end-to-end metrics
// untraced, every per-layer metric traced (the invocation's shared
// ones with each workload's own). With several workloads the metric
// names are prefixed with the workload's.
func resultLine(o options, results []*result) string {
	out := resultDoc{Metrics: map[string]metricValue{}}
	for _, r := range results {
		out.Attempted += r.attempted
		out.Failed += r.failed
		prefix := ""
		if len(results) > 1 {
			prefix = r.w.name + "/"
		}
		if o.trace == 1 {
			for k, v := range r.layer {
				out.Metrics[prefix+k] = metricValue{v, layerUnits[k]}
			}
		} else {
			for _, m := range endToEnd {
				if !m.printOnly {
					out.Metrics[prefix+m.name] = metricValue{r.e2e[m.name].median, m.unit}
				}
			}
		}
	}
	out.Correct = out.Failed == 0
	b, _ := json.Marshal(out)
	return string(b)
}

// benchmarkFile is BENCHMARK.json as -selfcheck and the tests read it.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// runFresh measures one workload in a fresh process, as the driver
// does: set-up in particular is slower in a process whose heap has
// never been touched, so two sets measured in one process would not
// compare like with like. The child's report is passed through.
func runFresh(o options, w *workload) (resultDoc, error) {
	var doc resultDoc
	exe, err := os.Executable()
	if err != nil {
		return doc, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-windows", fmt.Sprint(o.windows))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	os.Stdout.Write(out)
	if err != nil {
		return doc, fmt.Errorf("%s: %w", w.name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	err = json.Unmarshal([]byte(lines[len(lines)-1]), &doc)
	return doc, err
}

// selfcheck measures every workload twice, each time in a fresh
// process, and fails if any end-to-end metric on any workload is worse
// in one set than in the other by more than its bound. The observed
// differences go to benchmark/spreads.json, each marked with whether
// twice it still fits the bound.
func selfcheck(o options, ws []*workload) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck needs the bounds: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return err
	}
	// The two sets alternate workload by workload: the host drifts by
	// several percent over a minute, and a workload's two runs should
	// meet the same weather.
	var sets [2][]resultDoc
	for _, w := range ws {
		for i := range sets {
			doc, err := runFresh(o, w)
			if err != nil {
				return err
			}
			sets[i] = append(sets[i], doc)
		}
	}
	type spread struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		First    float64 `json:"first"`
		Second   float64 `json:"second"`
		Diff     float64 `json:"diff"`
		Bound    float64 `json:"bound"`
		Resolved bool    `json:"resolved"` // 2 × diff ≤ bound: the bound sees past the noise
	}
	doc := struct {
		CPUs    int      `json:"cpus"`
		Go      string   `json:"go"`
		Seed    int64    `json:"seed"`
		Seconds float64  `json:"seconds"`
		Spreads []spread `json:"spreads"`
	}{CPUs: runtime.GOMAXPROCS(0), Go: runtime.Version(), Seed: o.seed, Seconds: o.seconds}
	var bad []string
	unresolved := 0
	for i, w := range ws {
		a, b := sets[0][i], sets[1][i]
		if a.Failed+b.Failed > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d ops failed", w.name, a.Failed+b.Failed))
		}
		for _, m := range bf.EndToEnd {
			x, y := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			higher := m.Better == "higher"
			d := relDiff(x, y, higher)
			if e := relDiff(y, x, higher); e > d {
				d = e
			}
			doc.Spreads = append(doc.Spreads, spread{w.name, m.Name, x, y, d, m.Bound, 2*d <= m.Bound})
			if 2*d > m.Bound {
				unresolved++
			}
			if d > m.Bound {
				bad = append(bad, fmt.Sprintf("%s %s: %.4g vs %.4g differ by %.1f%% > bound %.0f%%",
					w.name, m.Name, x, y, 100*d, 100*m.Bound))
			}
		}
	}
	out, _ := json.MarshalIndent(doc, "", "  ")
	if err := os.WriteFile("benchmark/spreads.json", append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("\nselfcheck: spreads written to benchmark/spreads.json")
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Println("selfcheck: both sets agree within every bound")
	if unresolved > 0 {
		fmt.Printf("selfcheck: %d of %d differences exceed half their bound: a single run does not resolve those metrics (see spreads.json)\n",
			unresolved, len(doc.Spreads))
	}
	return nil
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all six)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 16, "measured seconds per workload: two half-second windows each (the driver passes it)")
	flag.IntVar(&o.windows, "windows", 0, "exactly this many measured windows per workload (default: what fills -seconds, at least 5)")
	flag.IntVar(&o.trace, "trace", 0, "1: add a traced window, the layer drivers and the per-layer metrics")
	flag.StringVar(&o.traceDir, "tracedir", ".bench_build/trace", "where -trace 1 writes one span file per workload")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the set twice and compare against BENCHMARK.json's bounds")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny windows, for the harness's own test")
	flag.Parse()
	if o.smoke {
		o.windows = 2
	}
	if o.windows < 0 || o.seconds <= 0 || o.trace < 0 || o.trace > 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		os.Exit(2)
	}
	cpus := runtime.NumCPU()
	if cpus > 4 {
		cpus = 4
	}
	runtime.GOMAXPROCS(cpus)

	ws := workloads()
	if o.workload != "" {
		w := workloadByName(o.workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
			os.Exit(2)
		}
		ws = []*workload{w}
	}
	fmt.Printf("meta: gomaxprocs=%d cpus=%d go=%s commit=%s seed=%d seconds=%g windows=%d window_s=%g trace=%d fabric=ideal-in-process loop=closed\n",
		cpus, runtime.NumCPU(), runtime.Version(), commit(), o.seed, o.seconds, o.windows, o.windowSec(), o.trace)

	if o.selfcheck {
		if err := selfcheck(o, ws); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	results, shared, err := runSet(o, ws)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	failed := 0
	for _, r := range results {
		report(r, shared)
		failed += r.failed
	}
	if o.trace == 1 {
		fmt.Printf("\n== measured once per invocation (drivers: median of %d; planes delta: rpc_full - rpc_fanin)\n", driverReps)
		reportLayer(shared)
		fmt.Printf("\nspans written to %s\n", o.traceDir)
	}
	fmt.Println(resultLine(o, results))
	if failed > 0 {
		os.Exit(1)
	}
}
