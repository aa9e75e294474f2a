package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestSummarize(t *testing.T) {
	got := summarize([]float64{5, 1, 4, 2, 3})
	if got != (summary{2, 3, 4}) {
		t.Fatalf("quartiles of 1..5 = %+v, want {2 3 4}", got)
	}
	if got := summarize([]float64{1, 2}); got.median != 1.5 {
		t.Fatalf("median of {1,2} = %v, want 1.5", got.median)
	}
}

// The tail is read at p99 only while ten samples lie beyond it.
func TestTailLevelNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{5, 50}, {10, 50}, {20, 50}, {40, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {5000, 99},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("%d samples: tail read at p%d, want p%d", c.n, got, c.want)
		}
	}
}

// Both percentiles count one sample per reply, however long it took.
func TestPercentilesCountReplies(t *testing.T) {
	if p50, tail := percentiles([]float64{1, 96, 1, 1, 1}, 50); p50 != 1 || tail != 1 {
		t.Fatalf("p50 %v, tail %v at p50; want 1 and 1", p50, tail)
	}
	// 990 short calls and 10 long ones: the long ones hold 91% of the
	// time, but the median is a short call and the p99 of replies has
	// all ten long ones beyond it.
	mixed := make([]float64, 1000)
	for i := range mixed {
		mixed[i] = 1
		if i >= 990 {
			mixed[i] = 1000
		}
	}
	if p50, tail := percentiles(mixed, tailLevel(len(mixed))); p50 != 1 || tail >= 1000 {
		t.Fatalf("p50 %v, p99 %v; want 1 and a p99 below the ten long calls", p50, tail)
	}
	if p50, tail := percentiles(nil, 99); p50 != 0 || tail != 0 {
		t.Fatalf("no replies: p50 %v, tail %v", p50, tail)
	}
}

// A slow host stretches the reference kernel; the speed it yields
// shrinks a time and raises a rate by the same factor.
func TestHostSpeed(t *testing.T) {
	if s := hostSpeed(refNominal, refNominal); s != 1 {
		t.Errorf("kernel at its nominal time: speed %v, want 1", s)
	}
	if s := hostSpeed(refNominal, 3*refNominal); s != 0.5 {
		t.Errorf("kernel at twice its nominal time on average: speed %v, want 0.5", s)
	}
	var none *hostClock
	if s := none.speed(); s != 1 {
		t.Errorf("no clock: speed %v, want 1", s)
	}
	if s := newHostClock().speed(); !(s > 0) || math.IsInf(s, 0) {
		t.Errorf("two runs of the reference kernel: speed %v", s)
	}
	w := windowResult{ops: 1000, elapsed: time.Second, speed: 0.5}
	if got := w.opsPerSec(); got != 2000 {
		t.Errorf("1000 ops/s on a half-speed host = %v at nominal speed, want 2000", got)
	}
}

func TestRelDiff(t *testing.T) {
	if d := relDiff(100, 90, true); math.Abs(d-0.1) > 1e-12 {
		t.Errorf("throughput 100→90 is %v worse, want 0.1", d)
	}
	if d := relDiff(100, 90, false); math.Abs(d+0.1) > 1e-12 {
		t.Errorf("latency 100→90 is %v worse, want -0.1", d)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},   // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120},  // outlives the parent
		{ID: 4, Parent: 1, Name: "a.a", Start: 15, End: 20}, // grandchild
		{ID: 5, Parent: 0, Name: "d", Start: 35, End: 38},   // inside b
	}
	selfTimes(spans)
	// Children cover [10,60] and [90,100] of the parent: 60 of 100.
	want := []int64{40, 25, 30, 30, 5, 3}
	for i, s := range spans {
		if s.SelfNs != want[i] {
			t.Errorf("span %s self = %d, want %d", s.Name, s.SelfNs, want[i])
		}
	}
}

func TestAdoptNestsSpansThatOutliveTheirParent(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "window", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "run", Start: 10, End: 90},
		{ID: 2, Parent: 1, Name: "core.submit", Start: 20, End: 30},
		{ID: 3, Parent: 2, Name: "lookup", Start: 25, End: 60},   // answered during run
		{ID: 4, Parent: 2, Name: "register", Start: 21, End: 22}, // stays
		{ID: 5, Parent: 2, Name: "straggler", Start: 29, End: 95},
	}
	adopt(spans)
	for i, want := range []int{-1, 0, 1, 1, 2, 0} {
		if spans[i].Parent != want {
			t.Errorf("%s: parent %d, want %d", spans[i].Name, spans[i].Parent, want)
		}
	}
}

func TestRecorderPhases(t *testing.T) {
	var none *recorder
	none.end(none.begin("x")) // a nil recorder records nothing
	none.enter("y")()

	r := newRecorder("run", "w")
	leaveWindow := r.enter("window")
	leaveRun := r.enter("run")
	id := r.begin("out.write")
	r.end(id)
	leaveRun()
	id2 := r.begin("core.stop")
	r.end(id2)
	leaveWindow()
	if r.Spans[id].Parent != 1 || r.Spans[1].Parent != 0 || r.Spans[0].Parent != -1 {
		t.Fatalf("parents = %d %d %d, want 1 0 -1", r.Spans[id].Parent, r.Spans[1].Parent, r.Spans[0].Parent)
	}
	if r.Spans[id2].Parent != 0 {
		t.Fatalf("span opened after run closed has parent %d, want 0", r.Spans[id2].Parent)
	}
}

// generated returns every source and expected line of a workload.
func generated(w *workload, seed int64) [][]string {
	in := w.generate(seedFor(seed, w.name, 0), 256, 16)
	var out [][]string
	for _, s := range in.all() {
		out = append(out, []string{s.name, s.src}, s.expect, s.probe)
	}
	return out
}

func TestSeedDrivesEveryInput(t *testing.T) {
	for _, w := range workloads() {
		a, b, c := generated(w, 1), generated(w, 1), generated(w, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed generated different inputs", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated identical inputs", w.name)
		}
	}
}

func smokeOptions(t *testing.T) options {
	return options{seed: 1, seconds: 10, windows: 2, smoke: true, traceDir: t.TempDir()}
}

// -seconds and -windows count windows; neither changes a window's work.
func TestFlagsOnlyCountWindows(t *testing.T) {
	for _, w := range workloads() {
		if ops, _ := sizes(w, fullWindowSec, 1); w.maxOps > 0 && ops != w.maxOps {
			t.Errorf("%s: %d ops per window, want the cap %d", w.name, ops, w.maxOps)
		}
	}
	for _, sec := range []float64{1, 10, 30} {
		if n, want := windowCount(options{seconds: sec}), int(sec/fullWindowSec+0.5); n != max(want, minWindows) {
			t.Errorf("%d windows fill %gs, want %d and at least %d", n, sec, want, minWindows)
		}
	}
	if n := windowCount(options{seconds: 10, windows: 3}); n != 3 {
		t.Errorf("-windows 3 gave %d windows", n)
	}
	// A traced run keeps a third of them as the base of its overhead.
	if n, full := windowCount(options{seconds: 30, trace: 1}), windowCount(options{seconds: 30}); n != full/3 {
		t.Errorf("traced run has %d untraced windows, want a third of %d", n, full)
	}
}

// A wrong done line fails every op of its site; a wrong probe reply
// fails that reply; a hang fails what did not finish.
func TestFailAccounting(t *testing.T) {
	w := workloads()[0]
	in, progs, err := prepare(w, seedFor(1, w.name, 0), 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := runWindow(w, in, progs, nil, nil, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if clean.failed != 0 || clean.bad != 0 || clean.timedOut || clean.ops != in.ops() || clean.checked == 0 {
		t.Fatalf("clean window: %+v", clean)
	}
	in.load[0].expect = []string{"done 0"}
	in.load[0].probe[0] = "x"
	res, err := runWindow(w, in, progs, nil, nil, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != in.load[0].ops || res.bad != 1 {
		t.Fatalf("failed %d of %d ops, %d bad replies; want all ops and 1 reply", res.failed, in.load[0].ops, res.bad)
	}
	// Expecting a second done line that never comes is a hang.
	in.load[0].expect = append(in.load[0].expect, "done 1")
	res, err = runWindow(w, in, progs, nil, nil, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !res.timedOut || res.failed != in.load[0].ops {
		t.Fatalf("hung window: timedOut=%v failed=%d", res.timedOut, res.failed)
	}
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkFile
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range bj.Workloads {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(names, listed) {
		t.Errorf("workloads: program %v, BENCHMARK.json %v", names, listed)
	}
	var bounded []metricDef
	for _, m := range endToEnd {
		if !m.printOnly {
			bounded = append(bounded, m)
		}
	}
	if len(bj.EndToEnd) != len(bounded) {
		t.Fatalf("end_to_end: %d listed, %d measured", len(bj.EndToEnd), len(bounded))
	}
	for i, m := range bounded {
		better := "lower"
		if m.higher {
			better = "higher"
		}
		got := bj.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != better {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, got, m)
		}
	}
	listedLayer := map[string]string{}
	for _, m := range bj.PerLayer {
		listedLayer[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(listedLayer, layerUnits) {
		t.Errorf("per_layer differs from layerUnits")
	}
}

// TestSmoke runs every workload, traced, at a size that finishes in
// seconds, and checks what the real benchmark promises.
func TestSmoke(t *testing.T) {
	o := smokeOptions(t)
	o.trace = 1
	results, shared, err := runSet(o, workloads())
	if err != nil {
		t.Fatal(err)
	}
	// Smoke windows are too short for the sign of the planes delta to
	// mean anything; that it is measured once, for all, is checked.
	if _, ok := shared["planes.cpu_us_per_op_delta"]; !ok || len(shared) < 20 {
		t.Errorf("shared per-layer metrics: %v", shared)
	}
	for _, r := range results {
		name := r.w.name
		if r.failed != 0 || r.attempted == 0 || r.timedOut != 0 {
			t.Errorf("%s: %d of %d ops failed, %d windows timed out", name, r.failed, r.attempted, r.timedOut)
		}
		for _, m := range endToEnd {
			if v := r.e2e[m.name].median; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s %s = %v, want a positive number", name, m.name, v)
			}
		}
		var got, want []string
		for k, v := range r.layer {
			got = append(got, k)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s %s = %v", name, k, v)
			}
		}
		for k := range layerUnits {
			want = append(want, k)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-layer metrics %v, want %v", name, got, want)
		}
		// The predictions the workloads were chosen for.
		local := name == "local_sites"
		if (r.layer["transport.frames_per_op"] == 0) != local || (r.layer["node.remote_deliveries_per_op"] == 0) != local {
			t.Errorf("%s: frames/op %v, remote deliveries/op %v", name,
				r.layer["transport.frames_per_op"], r.layer["node.remote_deliveries_per_op"])
		}
		if (r.layer["site.units_linked_per_op"] > 0) != (name == "mobility") {
			t.Errorf("%s: units linked per op = %v", name, r.layer["site.units_linked_per_op"])
		}
		if (r.layer["journal.appends_per_op"] > 0) != (name == "rpc_full") {
			t.Errorf("%s: journal appends per op = %v", name, r.layer["journal.appends_per_op"])
		}
		checkSpanFile(t, filepath.Join(o.traceDir, name+".json"))
	}
	line := resultLine(o, results[:1])
	var parsed map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &parsed); err != nil || len(parsed) != 4 {
		t.Errorf("result line %q: %v", line, err)
	}
}

func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var rec recorder
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	// Child spans run concurrently on the workers (out.write,
	// nameservice.*), so their self times may sum to more than the
	// parent lasted; what must hold is that every child lies within
	// its parent and that the union of the children, which is what
	// self time subtracts, covers no more than the parent.
	seen := map[string]bool{}
	for _, s := range rec.Spans {
		seen[s.Name] = true
		if s.Parent >= s.ID || s.SelfNs < 0 || s.SelfNs > s.End-s.Start {
			t.Errorf("%s: span %+v", path, s)
		}
		if s.Parent >= 0 {
			if p := rec.Spans[s.Parent]; s.Start < p.Start || s.End > p.End {
				t.Errorf("%s: span %+v lies outside its parent %+v", path, s, p)
			}
		}
	}
	for _, name := range []string{"window", "core.cluster_new", "syntax.parse", "types.check", "compiler.compile",
		"core.submit", "run", "termination.wait", "core.stop", "out.write", "nameservice.RegisterSite"} {
		if !seen[name] {
			t.Errorf("%s: no %s span", path, name)
		}
	}
	if rec.Run == "" || rec.Spans[0].Name != "window" || rec.Spans[0].Parent != -1 {
		t.Errorf("%s: run %q, root %+v", path, rec.Run, rec.Spans[0])
	}
}
