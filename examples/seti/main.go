// Seti: the paper's SETI@home-style example (section 4) scaled to many
// workers. One command downloads the Install/Go classes from the seti
// site; each worker then loops "forever" (here: a bounded number of
// chunks) crunching data served by the seti database, with every chunk
// request shipping back to the server site and every reply shipping to
// the worker.
//
//	go run ./examples/seti -workers 4 -chunks 25 -link myrinet
//
// The robustness knobs turn the same run into a fault drill: -drop
// makes every link lossy (which switches on the reliable delivery
// layer and failure detection), and -crash kills a worker's node
// mid-run. Every site journals to disk, so the crash is survivable:
// once the failure detector reports the death, the node is restarted
// and the victim site replays its journal — it resumes its own quota
// mid-fold instead of a rescue worker starting over.
//
//	go run ./examples/seti -workers 4 -chunks 25 -drop 0.2 -crash 3
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/membership"
	"repro/internal/transport"
)

const setiServer = `
new database (
  def Data(self, next) =
    self ? { newChunk(r) = r![next] | Data[self, next + 1] }
  in Data[database, 1] |

  export def Install(limit) = Go[limit, 0]
  and Go(n, acc) =
    if n == 0 then println("worker done, checksum", acc)
    else let data = database!newChunk[] in
         {- "number crunching": fold the chunk into a checksum -}
         Go[n - 1, (acc * 31 + data) % 1000003]
  in inaction
)
`

func main() {
	var (
		workers = flag.Int("workers", 4, "number of worker sites")
		chunks  = flag.Int("chunks", 25, "chunks processed per worker")
		link    = flag.String("link", "ideal", "interconnect profile: ideal, myrinet, fastether")
		drop    = flag.Float64("drop", 0, "per-frame drop probability in [0,1); enables chaos + reliable delivery")
		seed    = flag.Uint64("seed", 1, "chaos fault-schedule seed")
		crash   = flag.Int("crash", -1, "worker index to crash mid-run (enables chaos + failure detection)")
	)
	flag.Parse()

	model, ok := transport.Profile(*link)
	if !ok {
		fail(fmt.Errorf("unknown link profile %q", *link))
	}
	// One node for the seti site, one per worker (Fig. 2 topology).
	cfg := core.ClusterConfig{Nodes: 1 + *workers, Link: model}
	if *drop > 0 || *crash >= 0 {
		cfg.Chaos = &transport.ChaosConfig{Seed: *seed, Drop: *drop, Dup: *drop / 2, Reorder: *drop / 2}
		cfg.Reliability = &transport.ReliableConfig{}
		// Gossip probes are best-effort, so SuspectAfter must outlast
		// any plausible run of consecutive losses at this drop rate — a
		// false suspicion fail-fasts real work. Size it so the chance
		// of that run is below 1e-6.
		period := 10 * time.Millisecond
		suspect := 8 * period
		if *drop > 0 {
			k := time.Duration(math.Ceil(math.Log(1e-6) / math.Log(*drop)))
			if d := k * period; d > suspect {
				suspect = d
			}
		}
		cfg.Detect = &membership.Config{ProbeInterval: period, SuspectAfter: suspect}
		cfg.OnSuspect = func(observer uint32, e membership.Event) {
			if e.State == membership.StateSuspect || e.State == membership.StateDead {
				fmt.Printf("-- node %d: node %d is %s\n", observer, e.Node, e.State)
			}
		}
	}
	if *crash >= 0 {
		// Crash recovery needs the write-ahead journals on disk.
		dir, err := os.MkdirTemp("", "seti-journal-")
		if err != nil {
			fail(err)
		}
		defer os.RemoveAll(dir)
		jf, err := journal.NewFileFactory(dir)
		if err != nil {
			fail(err)
		}
		cfg.Journal = jf
		cfg.Supervise = true
	}
	cl, err := core.NewCluster(cfg)
	if err != nil {
		fail(err)
	}
	defer cl.Stop()

	server, err := cl.Submit(0, "seti", setiServer, io.Discard)
	if err != nil {
		fail(err)
	}
	outs := make([]*strings.Builder, *workers)
	start := time.Now()
	for i := 0; i < *workers; i++ {
		outs[i] = &strings.Builder{}
		src := fmt.Sprintf(`import Install from seti in Install[%d]`, *chunks)
		if _, err := cl.Submit(1+i, fmt.Sprintf("worker%d", i), src, outs[i]); err != nil {
			fail(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if *crash >= 0 && *crash < *workers {
		// Kill the victim's node mid-run, let the survivors' membership
		// agents report the death, then restart it: the worker site
		// replays its journal and resumes its own quota where the
		// crash cut it off.
		time.Sleep(50 * time.Millisecond)
		fmt.Printf("-- crashing worker%d (node %d)\n", *crash, 2+*crash)
		cl.Crash(1 + *crash)
		time.Sleep(cfg.Detect.SuspectAfter + 5*cfg.Detect.ProbeInterval)
		fmt.Printf("-- recovering node %d from its journals\n", 2+*crash)
		if err := cl.Recover(1 + *crash); err != nil {
			fail(err)
		}
	}
	if err := cl.Wait(ctx); err != nil {
		fail(err)
	}
	elapsed := time.Since(start)

	for i, b := range outs {
		fmt.Printf("worker%d: %s", i, b.String())
	}
	total := *workers * *chunks
	st := server.Machine().Stats
	fmt.Printf("-- %d chunks served over %s in %v (%.0f chunks/s); server handled %d communications\n",
		total, *link, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(), st.Communications)
	if cl.Node(0).Reliable() != nil {
		rs := cl.Node(0).Reliable().Stats()
		fmt.Printf("-- server reliability: %d data, %d retransmits, %d dup-drops, %d fail-fasts\n",
			rs.DataSent, rs.Retransmits, rs.DupDrops, rs.FailFasts)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "seti:", err)
	os.Exit(1)
}
