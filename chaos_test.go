// Chaos integration tests: the SETI master/worker workload of paper §4
// driven over a lossy, partitionable fabric with a mid-run worker
// crash. With the reliable delivery layer and failure detection on, the
// computation completes and the dead worker's chunks are reassigned;
// without them, the same fault schedule visibly loses chunks.
package repro

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/membership"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// chaosSeed parameterises the fault schedule so a CI matrix can soak
// the same scenarios under distinct drop/dup/reorder interleavings:
//
//	go test -run 'Chaos|Recovery' -args -seed=3
var chaosSeed = flag.Uint64("seed", 42, "chaos fault-schedule seed")

// journalDir places a test's file journals. Default: a per-test temp
// dir the harness cleans up. Under the CI soak job TEST_JOURNAL_DIR
// pins a location that outlives the test, so a failing run's journals
// can be uploaded as artifacts and replayed during diagnosis.
func journalDir(t *testing.T) string {
	t.Helper()
	base := os.Getenv("TEST_JOURNAL_DIR")
	if base == "" {
		return t.TempDir()
	}
	dir := filepath.Join(base, fmt.Sprintf("%s-seed%d", t.Name(), *chaosSeed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}

// chaosSetiServer serves chunk c as a deterministic "crunch" result, so
// the harness can verify every reply end to end.
const chaosSetiServer = `def Serve(db) = db?(c, r) = (r![(c * 7919 + 17) % 1000003] | Serve[db]) in export new db Serve[db]`

func chunkValue(c int) int { return (c*7919 + 17) % 1000003 }

// chaosWorkerSrc unrolls a chunk list into a sequential RPC chain:
// each chunk ships to the seti site and the reply is printed.
func chaosWorkerSrc(chunks []int) string {
	var b strings.Builder
	b.WriteString("import db from seti in\n")
	for i, c := range chunks {
		fmt.Fprintf(&b, "let v%d = db![%d] in ( println(\"chunk\", %d, v%d) |\n", i, c, c, i)
	}
	b.WriteString("inaction")
	b.WriteString(strings.Repeat(" )", len(chunks)))
	return b.String()
}

// lockedWriter is a goroutine-safe output sink for worker sites.
type lockedWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *lockedWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// parseChunks extracts "chunk <c> <v>" lines, verifying each value.
func parseChunks(t *testing.T, outs ...*lockedWriter) map[int]bool {
	t.Helper()
	done := map[int]bool{}
	for _, o := range outs {
		for _, line := range strings.Split(o.String(), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "chunk ") {
				continue
			}
			var c, v int
			if _, err := fmt.Sscanf(line, "chunk %d %d", &c, &v); err != nil {
				t.Fatalf("unparsable output line %q: %v", line, err)
			}
			if v != chunkValue(c) {
				t.Fatalf("chunk %d: value %d, want %d", c, v, chunkValue(c))
			}
			done[c] = true
		}
	}
	return done
}

// TestSetiSurvivesChaosAndWorkerCrash is the headline robustness
// scenario: 20% frame drop (plus duplication and reordering) on every
// link, and one worker crashed mid-run. The failure detector reports
// the death, the master requeues the dead worker's chunks on a
// survivor, and the whole computation terminates cleanly with every
// chunk processed.
func TestSetiSurvivesChaosAndWorkerCrash(t *testing.T) {
	const workers = 3
	// Chunk plan: two light workers and one heavily loaded victim whose
	// list cannot complete before the crash.
	assign := [][]int{chunkRange(0, 5), chunkRange(5, 10), chunkRange(10, 50)}
	victim := 2 // worker index; node index victim+1, node ID victim+2
	total := 50

	var susMu sync.Mutex
	suspectedBy := map[uint32][]uint32{} // victim node ID -> observers
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes:       1 + workers,
		Chaos:       &transport.ChaosConfig{Seed: *chaosSeed, Drop: 0.2, Dup: 0.1, Reorder: 0.1},
		Reliability: &transport.ReliableConfig{},
		Telemetry:   &telemetry.Config{Trace: true},
		Detect:      &membership.Config{ProbeInterval: 10 * time.Millisecond, SuspectAfter: 80 * time.Millisecond},
		OnSuspect: func(observer uint32, e membership.Event) {
			if e.State == membership.StateSuspect || e.State == membership.StateDead {
				susMu.Lock()
				suspectedBy[e.Node] = append(suspectedBy[e.Node], observer)
				susMu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	saveTelemetryOnFailure(t, cl)

	serverOut := &lockedWriter{}
	if _, err := cl.Submit(0, "seti", chaosSetiServer, serverOut); err != nil {
		t.Fatal(err)
	}
	outs := make([]*lockedWriter, workers)
	for i := 0; i < workers; i++ {
		outs[i] = &lockedWriter{}
		if _, err := cl.Submit(1+i, fmt.Sprintf("worker%d", i), chaosWorkerSrc(assign[i]), outs[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Crash the victim mid-run: its node blackholes, its sites die with
	// chunks unprocessed.
	time.Sleep(30 * time.Millisecond)
	cl.Crash(1 + victim)
	victimID := uint32(2 + victim)

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	if err := cl.Wait(ctx); err != nil {
		t.Fatalf("survivors never terminated: %v (cluster: %v)", err, cl.Err())
	}

	// The failure detector must have reported the crash to the hook.
	deadline := time.Now().Add(5 * time.Second)
	for {
		susMu.Lock()
		observers := len(suspectedBy[victimID])
		susMu.Unlock()
		if observers > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no surviving node ever suspected crashed node %d", victimID)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Reassign: whatever the victim didn't finish goes to a survivor.
	done := parseChunks(t, outs...)
	var missing []int
	for c := 0; c < total; c++ {
		if !done[c] {
			missing = append(missing, c)
		}
	}
	if len(missing) == 0 {
		t.Fatalf("victim finished all %d chunks before the crash — scenario did not exercise reassignment", len(assign[victim]))
	}
	t.Logf("crash left %d/%d chunks unprocessed; reassigning to worker0's node", len(missing), total)
	rescueOut := &lockedWriter{}
	if _, err := cl.Submit(1, "rescue", chaosWorkerSrc(missing), rescueOut); err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(ctx); err != nil {
		t.Fatalf("rescue round never terminated: %v (cluster: %v)", err, cl.Err())
	}

	done = parseChunks(t, append(outs, rescueOut)...)
	for c := 0; c < total; c++ {
		if !done[c] {
			t.Errorf("chunk %d never processed", c)
		}
	}

	// The reliable layer had to work for this: the fault schedule
	// guarantees drops, so a clean run implies retransmissions.
	var retransmits uint64
	for i := 0; i < cl.Nodes(); i++ {
		if i == 1+victim {
			continue
		}
		retransmits += cl.Node(i).Reliable().Stats().Retransmits
	}
	if retransmits == 0 {
		t.Error("no retransmissions recorded — chaos was not in the path")
	}
}

// TestSetiWithoutReliabilityLosesChunksUnderChaos is the control: the
// identical fault schedule with the reliable layer off. Dropped frames
// strand workers mid-RPC, so the run times out and chunks go missing —
// the failure mode the tentpole exists to prevent.
func TestSetiWithoutReliabilityLosesChunksUnderChaos(t *testing.T) {
	const workers = 3
	assign := [][]int{chunkRange(0, 5), chunkRange(5, 10), chunkRange(10, 50)}
	total := 50

	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes: 1 + workers,
		Chaos: &transport.ChaosConfig{Seed: 42, Drop: 0.2, Dup: 0.1, Reorder: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	serverOut := &lockedWriter{}
	if _, err := cl.Submit(0, "seti", chaosSetiServer, serverOut); err != nil {
		t.Fatal(err)
	}
	outs := make([]*lockedWriter, workers)
	for i := 0; i < workers; i++ {
		outs[i] = &lockedWriter{}
		if _, err := cl.Submit(1+i, fmt.Sprintf("worker%d", i), chaosWorkerSrc(assign[i]), outs[i]); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	waitErr := cl.Wait(ctx)

	done := parseChunks(t, outs...)
	var missing int
	for c := 0; c < total; c++ {
		if !done[c] {
			missing++
		}
	}
	if waitErr == nil && missing == 0 {
		t.Fatalf("unreliable run completed all %d chunks over a 20%% drop link — chaos was not in the path", total)
	}
	t.Logf("unreliable control: wait error %v, %d/%d chunks missing", waitErr, missing, total)
}

// countChunks is parseChunks plus multiplicity: it reports how many
// times each chunk line was printed, so replay-induced duplicates are
// caught and not just coverage gaps.
func countChunks(t *testing.T, outs ...*lockedWriter) map[int]int {
	t.Helper()
	counts := map[int]int{}
	for _, o := range outs {
		for _, line := range strings.Split(o.String(), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "chunk ") {
				continue
			}
			var c, v int
			if _, err := fmt.Sscanf(line, "chunk %d %d", &c, &v); err != nil {
				t.Fatalf("unparsable output line %q: %v", line, err)
			}
			if v != chunkValue(c) {
				t.Fatalf("chunk %d: value %d, want %d", c, v, chunkValue(c))
			}
			counts[c]++
		}
	}
	return counts
}

// TestSetiSurvivesServerCrashAndRecovery is the tentpole scenario: the
// node hosting the SETI server — the site every worker's RPCs funnel
// through — is crashed mid-computation and then recovered from its
// file-backed journal. The restored incarnation replays to the crash
// frontier under a new epoch, re-registers its export, and the parked
// worker traffic flushes into it. The run must finish with every chunk
// processed EXACTLY once: a lost chunk means the journal dropped an
// accepted operation, a doubled chunk means replay re-applied one.
func TestSetiSurvivesServerCrashAndRecovery(t *testing.T) {
	const workers = 2
	assign := [][]int{chunkRange(0, 12), chunkRange(12, 24)}
	total := 24

	jf, err := journal.NewFileFactory(journalDir(t))
	if err != nil {
		t.Fatal(err)
	}
	var susMu sync.Mutex
	suspected := map[uint32]bool{}
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes:           1 + workers,
		Chaos:           &transport.ChaosConfig{Seed: *chaosSeed, Drop: 0.05, Dup: 0.05, Reorder: 0.1},
		Reliability:     &transport.ReliableConfig{},
		Telemetry:       &telemetry.Config{Trace: true},
		Detect:          &membership.Config{ProbeInterval: 10 * time.Millisecond, SuspectAfter: 80 * time.Millisecond},
		Journal:         jf,
		CheckpointEvery: 4,
		LeaseTTL:        time.Second,
		Supervise:       true,
		OnSuspect: func(observer uint32, e membership.Event) {
			if e.State == membership.StateSuspect || e.State == membership.StateDead {
				susMu.Lock()
				suspected[e.Node] = true
				susMu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	saveTelemetryOnFailure(t, cl)

	serverOut := &lockedWriter{}
	if _, err := cl.Submit(0, "seti", chaosSetiServer, serverOut); err != nil {
		t.Fatal(err)
	}
	outs := make([]*lockedWriter, workers)
	for i := 0; i < workers; i++ {
		outs[i] = &lockedWriter{}
		if _, err := cl.Submit(1+i, fmt.Sprintf("worker%d", i), chaosWorkerSrc(assign[i]), outs[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Let the computation get genuinely mid-flight before the crash so
	// the journal holds both applied and in-flight operations.
	waitCond(t, 30*time.Second, func() bool {
		return len(countChunks(t, outs...)) >= 3
	})
	cl.Crash(0)
	// The workers' detectors must notice the death before recovery, so
	// the parked-frame flush path (peer down, then up again) is the one
	// under test rather than a race the crash lost.
	waitCond(t, 30*time.Second, func() bool {
		susMu.Lock()
		defer susMu.Unlock()
		return suspected[1]
	})
	if err := cl.Recover(0); err != nil {
		t.Fatalf("recover: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	if err := cl.Wait(ctx); err != nil {
		t.Fatalf("cluster never terminated after recovery: %v (cluster: %v)", err, cl.Err())
	}

	// The recovered incarnation runs under a bumped epoch.
	seti, ok := cl.Node(0).SiteByName("seti")
	if !ok {
		t.Fatal("seti site missing after recovery")
	}
	if seti.Epoch() < 2 {
		t.Fatalf("recovered seti epoch = %d, want >= 2", seti.Epoch())
	}

	// Exactly-once: every chunk processed, none twice.
	counts := countChunks(t, outs...)
	for c := 0; c < total; c++ {
		switch counts[c] {
		case 0:
			t.Errorf("chunk %d never processed (lost across the crash)", c)
		case 1:
		default:
			t.Errorf("chunk %d processed %d times (replay duplicated it)", c, counts[c])
		}
	}

	// The export survived at its old name: a site submitted only after
	// the crash must still be able to import db from seti.
	probeOut := &lockedWriter{}
	if _, err := cl.Submit(1, "probe", chaosWorkerSrc([]int{total}), probeOut); err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(ctx); err != nil {
		t.Fatalf("post-recovery probe never terminated: %v (cluster: %v)", err, cl.Err())
	}
	if got := countChunks(t, probeOut)[total]; got != 1 {
		t.Fatalf("post-recovery probe chunk processed %d times, want 1 (out=%q)", got, probeOut.String())
	}
}

// waitCond polls cond until it holds or the deadline passes.
func waitCond(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func chunkRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for c := lo; c < hi; c++ {
		out = append(out, c)
	}
	return out
}
