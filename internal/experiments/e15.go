package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// E15 — overload: open-loop overdrive vs graceful shedding
// (DESIGN.md §14).
//
// A closed-loop benchmark can never overload anything: its senders
// wait for the system, so offered load self-limits at capacity. E15
// drives the opposite regime — an open-loop generator offers work at a
// multiple of the wire's capacity regardless of how the cluster is
// doing, which is what a real overload (retry storm, thundering herd)
// looks like. The claim under test is the tentpole's: with deadlines,
// admission control and load shedding, goodput PLATEAUS near capacity
// as offered load climbs to 5x, every loss is accounted (admission
// rejections + expired frames + receiver sheds), and the backlog
// drains in bounded time once the load stops — instead of goodput
// collapsing and queues growing without bound.
//
// The wire is a deliberately slow link model (PerMessage cost), so
// "capacity" is a physical property of the experiment, not a guess:
// roughly 1/PerMessage frames per second with coalescing off.
func E15(o Options) (*Table, error) {
	return OpenLoopDrill(o, []int{1, 2, 5})
}

// OpenLoopDrill runs the E15 overdrive drill at the given offered-load
// multiples of wire capacity. `tycobench -openloop` drives this
// directly so an operator can probe other points on the curve (10x,
// 0.5x) without editing the experiment.
func OpenLoopDrill(o Options, mults []int) (*Table, error) {
	duration := time.Duration(o.scale(1200, 400)) * time.Millisecond

	t := &Table{
		ID:     "E15",
		Title:  "open-loop overdrive: goodput, shed accounting, drain time vs offered load",
		Header: []string{"offered", "msgs", "applied", "rejected", "expired", "goodput/s", "p99", "drain"},
		Notes: []string{
			fmt.Sprintf("wire capacity ≈ %.0f msgs/s (PerMessage=%v, coalescing off); offered load is open-loop", wireCapacity, openLoopLink.PerMessage),
			"rejected: whole sender batches refused at the admission gate (ErrOverloaded)",
			"expired: frames shed for deadline expiry (sender reliable layer + receiver inbox)",
			"drain: last offer tick → output and shed counters quiescent; bounded by the deadline, not the backlog",
			"p99: 99th-percentile offer→apply latency of admitted messages; the deadline caps time past send, so p99 is bounded by deadline + spawn overhead at any load",
			"acceptance: goodput at 5x within 80% of goodput at 1x (plateau, not collapse)",
		},
	}

	var goodput1 float64
	for _, mult := range mults {
		res, err := e15Drive(float64(mult), duration)
		if err != nil {
			return nil, fmt.Errorf("E15 %dx: %w", mult, err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx", mult),
			fmt.Sprint(res.offered),
			fmt.Sprint(res.applied),
			fmt.Sprint(res.rejected),
			fmt.Sprint(res.expired),
			fmt.Sprintf("%.0f", res.goodput),
			res.p99.Round(time.Millisecond).String(),
			res.drain.Round(time.Millisecond).String(),
		})
		t.SetMetric(fmt.Sprintf("e15/goodput_per_sec/%dx", mult), res.goodput)
		t.SetMetric(fmt.Sprintf("e15/shed_total/%dx", mult), float64(res.rejected)+float64(res.expired))
		t.SetMetric(fmt.Sprintf("e15/p99_ms/%dx", mult), float64(res.p99.Milliseconds()))
		t.SetMetric(fmt.Sprintf("e15/drain_ms/%dx", mult), float64(res.drain.Milliseconds()))
		if res.duplicates > 0 {
			return nil, fmt.Errorf("E15 %dx: %d duplicate applies under overload", mult, res.duplicates)
		}
		if res.lost > 0 {
			return nil, fmt.Errorf("E15 %dx: %d messages lost without shed accounting", mult, res.lost)
		}
		if mult == 1 {
			goodput1 = res.goodput
		} else if goodput1 > 0 && res.goodput < 0.8*goodput1 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"WARNING: goodput at %dx (%.0f/s) fell below 80%% of 1x (%.0f/s) — shedding is not protecting capacity", mult, res.goodput, goodput1))
		}
	}
	return t, nil
}

type e15Result struct {
	offered    int
	applied    int
	rejected   int // shed at the admission gate, whole batches
	expired    uint64
	duplicates int
	lost       int // missing without any shed accounting
	goodput    float64
	p99        time.Duration // offer→apply latency of admitted messages
	drain      time.Duration
}

// e15CountWriter counts applied messages without retaining the flood's
// output. It keeps per-id apply counts (duplicate detection) and the
// first apply time (p99 offer→apply latency).
type e15CountWriter struct {
	mu   sync.Mutex
	seen map[int]int
	at   map[int]time.Time
	n    int
}

func (w *e15CountWriter) Write(p []byte) (int, error) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, line := range strings.Split(string(p), "\n") {
		var id int
		if _, err := fmt.Sscanf(strings.TrimSpace(line), "msg %d", &id); err != nil {
			continue
		}
		if w.seen == nil {
			w.seen = map[int]int{}
			w.at = map[int]time.Time{}
		}
		if w.seen[id] == 0 {
			w.at[id] = now
		}
		w.seen[id]++
		w.n++
	}
	return len(p), nil
}

func (w *e15CountWriter) stats() (applied, dups int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, c := range w.seen {
		applied++
		if c > 1 {
			dups += c - 1
		}
	}
	return applied, dups
}

// appliedAt reports when id was first applied.
func (w *e15CountWriter) appliedAt(id int) (time.Time, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	at, ok := w.at[id]
	return at, ok
}

// openLoopLink is the slow wire every open-loop drill runs on: ~2000
// frames/s of capacity, slow enough that the software around it is
// never the bottleneck, fast enough to measure.
var openLoopLink = transport.LinkModel{Latency: 50 * time.Microsecond, PerMessage: 500 * time.Microsecond}

// wireCapacity is openLoopLink's capacity in frames (= messages, with
// coalescing off) per second.
var wireCapacity = float64(time.Second) / float64(openLoopLink.PerMessage)

const e15Server = `def Count(db) = db?(c) = (println("msg", c) | Count[db]) in export new db Count[db]`

// openLoopRig is the cluster every open-loop drill (E15, E18, the SLO
// drill) drives: two nodes on openLoopLink, the counter server on node
// 0, and fresh sender sites submitted to node 1.
type openLoopRig struct {
	cl      *core.Cluster
	next    int     // first message id of the next offer
	senders int     // sender sites submitted so far
	offers  []offer // every offer made, in order
}

// offer is one sender site's batch: message ids [lo, hi), offered at
// `at`; admitted is false when the admission gate refused the spawn.
type offer struct {
	lo, hi   int
	at       time.Time
	admitted bool
}

// newOpenLoopRig stands up the rig with the server printing to out.
// One frame per message keeps capacity accounting honest, and
// admission plus a 150 ms op deadline are the overload plane under
// test. A non-nil intro turns telemetry and that introspection plane
// on.
func newOpenLoopRig(out io.Writer, intro *node.IntrospectConfig) (*openLoopRig, error) {
	cfg := core.ClusterConfig{
		Nodes: 2,
		Link:  openLoopLink,
		Batch: node.BatchConfig{Disable: true},
		// The link is loss-free, so retransmits can only ever be
		// spurious (acks queueing behind data); keep the timer above
		// any plausible ack delay so the wire carries fresh work.
		Reliability: &transport.ReliableConfig{RetransmitTimeout: 400 * time.Millisecond},
		Admission:   &admission.Config{},
		OpDeadline:  150 * time.Millisecond,
	}
	if intro != nil {
		cfg.Telemetry = &telemetry.Config{}
		cfg.Introspection = intro
	}
	cl, err := core.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := cl.Submit(0, "counter", e15Server, out); err != nil {
		cl.Stop()
		return nil, err
	}
	return &openLoopRig{cl: cl}, nil
}

// drive offers mult × wire capacity open-loop: a fresh sender site
// every tick, whatever the cluster is doing, until dur elapses or stop
// (if non-nil) reports true after an offer. A spawn the admission gate
// refuses is NOT retried — open loop means the work is simply lost,
// and must show up in the shed accounting.
func (r *openLoopRig) drive(mult float64, dur time.Duration, stop func() bool) error {
	const tick = 20 * time.Millisecond
	batch := max(int(wireCapacity*mult*tick.Seconds()), 1)
	start := time.Now()
	for time.Since(start) < dur {
		of := offer{lo: r.next, hi: r.next + batch, at: time.Now()}
		_, err := r.cl.Submit(1, fmt.Sprintf("sender%d", r.senders), e15FloodSrc(of.lo, batch), io.Discard)
		r.senders++
		r.next = of.hi
		if err != nil && !errors.Is(err, admission.ErrOverloaded) {
			return err
		}
		of.admitted = err == nil
		r.offers = append(r.offers, of)
		if stop != nil && stop() {
			return nil
		}
		time.Sleep(tick)
	}
	return nil
}

// e15FloodSrc is one open-loop batch: ids [lo, lo+n).
func e15FloodSrc(lo, n int) string {
	var b strings.Builder
	b.WriteString("import db from counter in\n( ")
	for c := lo; c < lo+n; c++ {
		fmt.Fprintf(&b, "db![%d] |\n", c)
	}
	b.WriteString("inaction )")
	return b.String()
}

// e15Drive offers mult × wire capacity open-loop for the given
// duration and reports what the overload plane did with it.
func e15Drive(mult float64, duration time.Duration) (*e15Result, error) {
	out := &e15CountWriter{}
	rig, err := newOpenLoopRig(out, nil)
	if err != nil {
		return nil, err
	}
	cl := rig.cl
	defer cl.Stop()

	start := time.Now()
	if err := rig.drive(mult, duration, nil); err != nil {
		return nil, err
	}
	loadEnd := time.Now()
	res := &e15Result{}
	for _, of := range rig.offers {
		res.offered += of.hi - of.lo
		if !of.admitted {
			res.rejected += of.hi - of.lo
		}
	}
	// Quiesce: the backlog is bounded by the deadline, so applied and
	// shed counters stop moving shortly after the load does.
	expired := func() uint64 {
		var n uint64
		for i := 0; i < cl.Nodes(); i++ {
			nd := cl.Node(i)
			n += nd.ExpiredDrops() + nd.Reliable().Stats().Expired
		}
		return n
	}
	deadline := time.Now().Add(60 * time.Second)
	var last string
	stable := 0
	for stable < 10 {
		time.Sleep(50 * time.Millisecond)
		applied, _ := out.stats()
		cur := fmt.Sprintf("%d|%d", applied, expired())
		if cur == last {
			stable++
		} else {
			stable, last = 0, cur
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("backlog never quiesced (unbounded queue?)")
		}
	}
	res.drain = time.Since(loadEnd) - 500*time.Millisecond // subtract the stability probe itself
	if res.drain < 0 {
		res.drain = 0
	}
	res.applied, res.duplicates = out.stats()
	res.expired = expired()
	// Accounting: every offered message is applied, batch-rejected, or
	// expired somewhere. Expiry is counted per frame and a message can
	// expire at most twice (sender window + receiver inbox), so the
	// check is one-sided: losses beyond all shed accounting.
	if miss := res.offered - res.applied - res.rejected - int(res.expired)*2; miss > 0 {
		res.lost = miss
	}
	res.goodput = float64(res.applied) / loadEnd.Sub(start).Seconds()
	// p99 offer→apply over admitted messages. The deadline starts at
	// the sender site's send, not at the offer, so the bound is
	// deadline + spawn/compile overhead — still a constant in offered
	// load, which is the property under test.
	var lats []time.Duration
	for _, of := range rig.offers {
		if !of.admitted {
			continue
		}
		for id := of.lo; id < of.hi; id++ {
			if at, ok := out.appliedAt(id); ok {
				lats = append(lats, at.Sub(of.at))
			}
		}
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		res.p99 = lats[len(lats)*99/100]
	}
	return res, nil
}
