package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/membership"
	"repro/internal/site"
	"repro/internal/transport"
)

// E10 — supervised crash recovery (DESIGN.md §9). Two prices are
// measured. First the journal's hot-path overhead: the SETI pair run
// with journaling off, in-memory, and on disk — every accepted mobility
// operation is logged before it is acknowledged, so the write sits on
// the message path. Second the recovery cost: the worker's node is
// crashed halfway through its chunk quota and restarted from its
// journals, for several checkpoint intervals — sparse checkpoints mean
// a long replay, dense ones pay compaction during the run.
func E10(o Options) (*Table, error) {
	hotChunks := o.scale(3000, 16)
	chunks := o.scale(300, 16)
	reps := o.scale(3, 1)
	t := &Table{
		ID:     "E10",
		Title:  "crash recovery: journal hot-path overhead, recovery time vs checkpoint interval",
		Header: []string{"scenario", "parameter", "chunks", "total", "resume", "journal", "checkpoint bytes", "chunks/s", "overhead"},
		Notes: []string{
			"workload: SETI pair (1 worker), every chunk a request/reply across the fabric",
			"hot path rows: lossless link, journal knob off / in-memory / file-backed; accepted ops are logged before the ack; best of several runs; 4 worker sites share the node",
			"recover rows: lossy link (5% drop — retransmit gaps are when the gated checkpoint actually runs); worker node crashed at 1/3 quota, failure detected, node restarted from file journals; 'resume' is restart to the first post-crash chunk (journal load + replay), 'total' includes the detection gap and the remaining work",
			"ckpt=1 compacts at every stable idle point (shortest replay); ckpt=never leaves the whole run in the journal, so replay re-steps every pre-crash delivery",
			"'journal' is the on-disk size of the victim node's journals at the moment of restart — the checkpoint interval's main lever; 'checkpoint bytes' is the part of it held in checkpoint records (applied op ids are kept as ranges, so it does not grow with the deliveries a checkpoint covers)",
		},
	}

	// Journal hot-path overhead: off vs mem vs file, on a zero-latency
	// link (worst case: every journal write sits on an otherwise free
	// path) and on the paper's commodity interconnect.
	for _, link := range []string{"ideal", "fastether"} {
		var base time.Duration
		for _, mode := range []string{"off", "mem", "file"} {
			var jf journal.Factory
			var groups *e10Groups
			switch mode {
			case "mem":
				groups = &e10Groups{Factory: journal.NewMemFactory()}
				jf = groups
			case "file":
				dir, err := os.MkdirTemp("", "e10-journal-")
				if err != nil {
					return nil, err
				}
				defer os.RemoveAll(dir)
				if jf, err = journal.NewFileFactory(dir); err != nil {
					return nil, err
				}
			}
			var best time.Duration
			for r := 0; r < reps; r++ {
				elapsed, err := e10Run(hotChunks, link, jf)
				if err != nil {
					return nil, fmt.Errorf("E10 link=%s journal=%s: %w", link, mode, err)
				}
				if best == 0 || elapsed < best {
					best = elapsed
				}
			}
			overhead := "baseline"
			if mode == "off" {
				base = best
			} else if base > 0 {
				overhead = fmt.Sprintf("%+.1f%%", 100*(float64(best)/float64(base)-1))
			}
			t.Rows = append(t.Rows, []string{
				"hot path, " + link, "journal=" + mode, fmt.Sprintf("%d", hotChunks),
				best.Round(time.Millisecond).String(), "-", "-", "-", rate(hotChunks, best), overhead,
			})
			if groups != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("group commit, %s, journal=mem, per run: %s", link, groups.summary(reps)))
			}
		}
	}

	// Recovery time vs checkpoint interval.
	intervals := []int{1, 16, 1 << 20}
	if o.Quick {
		intervals = []int{1, 1 << 20}
	}
	for _, every := range intervals {
		total, resume, jbytes, ckptBytes, err := e10Recover(chunks, every)
		if err != nil {
			return nil, fmt.Errorf("E10 ckpt=%d: %w", every, err)
		}
		param := fmt.Sprintf("ckpt=%d", every)
		if every == 1<<20 {
			param = "ckpt=never"
		}
		t.Rows = append(t.Rows, []string{
			"crash + recover", param, fmt.Sprintf("%d", chunks),
			total.Round(time.Millisecond).String(), resume.Round(100 * time.Microsecond).String(),
			fmt.Sprintf("%.1fKiB", float64(jbytes)/1024), fmt.Sprintf("%d", ckptBytes), rate(chunks, total), "-",
		})
	}
	return t, nil
}

// e10Src folds a chunk quota into a recursive RPC loop, one printed
// line per chunk so the harness can watch progress. A loop (rather
// than an unrolled let-chain) keeps the program record small, so the
// journal's size reflects the logged deliveries the checkpoint
// interval is supposed to bound, not the source text.
func e10Src(chunks int) string {
	return fmt.Sprintf(`import db from seti in
def Go(n) =
  if n == 0 then inaction
  else let v = db![n] in ( println("chunk", n, v) | Go[n - 1] )
in Go[%d]`, chunks)
}

const e10Server = `def Serve(db) = db?(c, r) = (r![c * 3 + 1] | Serve[db]) in export new db Serve[db]`

// e10Buf is a goroutine-safe sink counting the worker's chunk lines.
type e10Buf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *e10Buf) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *e10Buf) lines() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.Count(w.b.String(), "chunk ")
}

// e10Groups counts the store appends the hot path makes against the
// records they carry (a site.RecGroup carries several), for the seti
// server's journal and the workers' apart: four workers with one
// request in flight each can reach the server in one frame and one
// turn, while a worker only ever has one delivery to commit.
type e10Groups struct {
	journal.Factory
	mu              sync.Mutex
	server, workers e10Tally
}

type e10Tally struct{ appends, groups, records int }

type e10GroupStore struct {
	journal.Store
	g     *e10Groups
	tally *e10Tally
}

func (g *e10Groups) Open(name string) (journal.Store, error) {
	st, err := g.Factory.Open(name)
	if err != nil {
		return nil, err
	}
	tally := &g.workers
	if strings.HasSuffix(name, "/seti") {
		tally = &g.server
	}
	return &e10GroupStore{Store: st, g: g, tally: tally}, nil
}

func (s *e10GroupStore) Append(rec journal.Record) error {
	n, group := 1, 0
	if rec.Kind == site.RecGroup {
		n, group = 0, 1
		for d := rec.Data; len(d) > 0; n++ {
			var ok bool
			if _, d, ok = journal.NextFramed(d); !ok {
				break
			}
		}
	}
	s.g.mu.Lock()
	s.tally.appends++
	s.tally.groups += group
	s.tally.records += n
	s.g.mu.Unlock()
	return s.Store.Append(rec)
}

// summary reports the tallies averaged over reps runs.
func (g *e10Groups) summary(reps int) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	f := func(t e10Tally) string {
		return fmt.Sprintf("%d records in %d store appends (%.0f%% of them groups)",
			t.records/reps, t.appends/reps, 100*float64(t.groups)/float64(max(t.appends, 1)))
	}
	return "seti server " + f(g.server) + "; workers " + f(g.workers)
}

// e10Run times the plain quota with the given journal knob (nil =
// off), split across four worker sites so journal writes overlap with
// useful work the way the paper's parallel workloads do.
func e10Run(chunks int, link string, jf journal.Factory) (time.Duration, error) {
	cfg := core.ClusterConfig{
		Nodes:       2,
		Link:        mustProfile(link),
		Reliability: &transport.ReliableConfig{},
		Journal:     jf,
	}
	const workers = 4
	progs := []workloadProgram{{node: 0, site: "seti", src: e10Server, out: io.Discard}}
	for i := 0; i < workers; i++ {
		progs = append(progs, workloadProgram{
			node: 1, site: fmt.Sprintf("worker%d", i), src: e10Src(chunks / workers), out: &e10Buf{},
		})
	}
	elapsed, cl, err := runWorkload(cfg, progs, 5*time.Minute)
	if err != nil {
		return 0, err
	}
	cl.Stop()
	return elapsed, nil
}

// e10Recover crashes the worker node at 1/3 quota and times both the
// whole crash-inclusive run and the restart-to-first-fresh-chunk span
// (journal load + replay + re-import, before any new work lands). It
// also reports how many journal bytes the victim node left on disk.
func e10Recover(chunks, ckptEvery int) (total, resume time.Duration, jbytes, ckptBytes int64, err error) {
	dir, err := os.MkdirTemp("", "e10-recover-")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	jf, err := journal.NewFileFactory(dir)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	detect := &membership.Config{ProbeInterval: 5 * time.Millisecond, SuspectAfter: 40 * time.Millisecond}
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes:           2,
		Chaos:           &transport.ChaosConfig{Seed: 10, Drop: 0.05, Dup: 0.05, Reorder: 0.1},
		Reliability:     &transport.ReliableConfig{},
		Detect:          detect,
		Journal:         jf,
		CheckpointEvery: ckptEvery,
		Supervise:       true,
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer cl.Stop()
	out := &e10Buf{}
	start := time.Now()
	if _, err := cl.Submit(0, "seti", e10Server, io.Discard); err != nil {
		return 0, 0, 0, 0, err
	}
	if _, err := cl.Submit(1, "worker0", e10Src(chunks), out); err != nil {
		return 0, 0, 0, 0, err
	}
	// Crash at a third of the quota, polling tightly: the batched fast
	// path finishes a quick-mode quota in single-digit milliseconds, so
	// a coarse poll would let the run complete before the crash lands.
	crashAt := chunks / 3
	deadline := time.Now().Add(time.Minute)
	for out.lines() < crashAt {
		if time.Now().After(deadline) {
			return 0, 0, 0, 0, fmt.Errorf("worker never reached crash quota (%d/%d)", out.lines(), crashAt)
		}
		time.Sleep(50 * time.Microsecond)
	}
	cl.Crash(1)
	before := out.lines()
	// Let the survivor's detector report the death before restarting.
	time.Sleep(detect.SuspectAfter + 5*detect.ProbeInterval)
	// Size what the victim node (cluster index 1 = node id 2, journal
	// scope "n2") left behind; this is exactly what recovery reads.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "n2") {
			continue
		}
		if info, err := e.Info(); err == nil {
			jbytes += info.Size()
		}
	}
	// The crashed node closed its journals, so they can be read here.
	names, err := jf.List()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "n2") {
			continue
		}
		st, err := jf.Open(name)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		recs, err := st.Records()
		st.Close()
		if err != nil {
			return 0, 0, 0, 0, err
		}
		for _, rec := range recs {
			if rec.Kind == site.RecCheckpoint {
				ckptBytes += int64(len(rec.Data))
			}
		}
	}
	restart := time.Now()
	if err := cl.Recover(1); err != nil {
		return 0, 0, 0, 0, err
	}
	// A fast run can still slip past the whole quota between the poll
	// and the crash; then there is no post-crash chunk to wait for and
	// "resume" degenerates to replay-to-termination.
	for out.lines() <= before && before < chunks {
		if time.Now().After(deadline) {
			return 0, 0, 0, 0, fmt.Errorf("recovered worker never resumed (stuck at %d chunks)", before)
		}
		time.Sleep(100 * time.Microsecond)
	}
	resume = time.Since(restart)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := cl.Wait(ctx); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("wait: %w (cluster: %v)", err, cl.Err())
	}
	done := time.Now()
	if got := out.lines(); got != chunks {
		return 0, 0, 0, 0, fmt.Errorf("recovered run printed %d chunk lines, want %d (duplicates or loss)", got, chunks)
	}
	return done.Sub(start), resume, jbytes, ckptBytes, nil
}
