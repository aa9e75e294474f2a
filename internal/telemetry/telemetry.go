package telemetry

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

// Config tunes one node's telemetry.
type Config struct {
	// Trace enables causal mobility tracing. Off by default because a
	// trace ID is the one telemetry cost that rides the wire: every
	// traced envelope carries a 2-3 byte varint, which E12 measures at
	// 10-25% of fastether msgs/s (the envelopes are tiny and the link
	// charges per byte). Metrics and the flight recorder stay on
	// either way — they are node-local and effectively free.
	Trace bool
}

// Telemetry is one node's handle on the fabric: a metrics registry, a
// flight recorder, and cached instruments for the per-frame hot paths
// so routing never does a name lookup. A nil *Telemetry is the
// telemetry-off configuration — every method no-ops, which keeps the
// disabled cost at one pointer test per call site.
type Telemetry struct {
	node     uint32
	tracing  bool
	reg      *Registry
	rec      *Recorder
	traceSeq atomic.Uint64

	// Hot-path instruments, cached at construction. Ship counters are
	// indexed by wire.FrameType (mobility frames only; control frames
	// land in shipCtrl).
	ship           [wire.FBatch + 1]*Counter
	shipCtrl       *Counter
	deliverLocal   *Counter
	deliverRemote  *Counter
	journalAppends *Counter
	traces         *Counter
	batchBytes     *stats.BucketHistogram
	batchEntries   *stats.BucketHistogram
	inboxDepth     *stats.BucketHistogram
	ckptNanos      *stats.BucketHistogram
	deliverSojourn *stats.BucketHistogram

	// Per-peer ship counters. Small node IDs (the common case) take
	// the lock-free array; the map is the spillover for exotic IDs.
	peersFast [64]atomic.Pointer[Counter]
	mu        sync.Mutex
	peers     map[uint32]*Counter
}

// New creates a node's telemetry handle.
func New(node uint32, cfg Config) *Telemetry {
	reg := NewRegistry()
	t := &Telemetry{
		node:           node,
		tracing:        cfg.Trace,
		reg:            reg,
		rec:            NewRecorder(DefaultRecorderCap),
		shipCtrl:       reg.Counter("ship.control"),
		deliverLocal:   reg.Counter("deliver.local"),
		deliverRemote:  reg.Counter("deliver.remote"),
		journalAppends: reg.Counter("journal.appends"),
		traces:         reg.Counter("traces.allocated"),
		batchBytes:     reg.Histogram("batch.bytes"),
		batchEntries:   reg.Histogram("batch.entries"),
		inboxDepth:     reg.Histogram("inbox.depth"),
		ckptNanos:      reg.Histogram("checkpoint.nanos"),
		deliverSojourn: reg.Histogram("deliver.sojourn_nanos"),
		peers:          map[uint32]*Counter{},
	}
	t.ship[wire.FMsg] = reg.Counter("ship.msg")
	t.ship[wire.FObj] = reg.Counter("ship.obj")
	t.ship[wire.FFetchReq] = reg.Counter("ship.fetchreq")
	t.ship[wire.FFetchRep] = reg.Counter("ship.fetchrep")
	return t
}

// Enabled reports whether telemetry is on.
func (t *Telemetry) Enabled() bool { return t != nil }

// Node returns the owning node's ID (0 for nil).
func (t *Telemetry) Node() uint32 {
	if t == nil {
		return 0
	}
	return t.node
}

// Registry exposes the metrics registry (nil when disabled).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Recorder exposes the flight recorder (nil when disabled).
func (t *Telemetry) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// NextTrace allocates a fresh trace ID from the node-scoped counter
// (0 — untraced — when telemetry is off or Config.Trace wasn't set).
// Node-scoped rather than site-scoped so the IDs stay small integers:
// the envelope carries the trace as a varint and every byte of it
// rides every traced hop.
func (t *Telemetry) NextTrace() uint64 {
	if t == nil || !t.tracing {
		return 0
	}
	return NewTraceID(t.node, t.traceSeq.Add(1))
}

// Tracing reports whether trace-ID allocation is enabled.
func (t *Telemetry) Tracing() bool { return t != nil && t.tracing }

// Origin records the allocation of a trace ID at a local site.
func (t *Telemetry) Origin(trace uint64, site uint32) {
	if t == nil {
		return
	}
	t.traces.Inc()
	t.rec.Record(Event{Trace: trace, Kind: EvOrigin, Node: t.node, Site: site})
}

// Ship records a routing decision: one envelope of the given frame
// type bound for peer (== t.node for the local fast path). Untraced
// envelopes still count in the metrics but skip the recorder.
func (t *Telemetry) Ship(trace uint64, frame wire.FrameType, op wire.OpRef, peer uint32) {
	if t == nil {
		return
	}
	if int(frame) < len(t.ship) && t.ship[frame] != nil {
		t.ship[frame].Inc()
	} else {
		t.shipCtrl.Inc()
	}
	t.peerCounter(peer).Inc()
	if trace != 0 {
		t.rec.Record(Event{Trace: trace, Kind: EvShip, Frame: frame, Op: op, Node: t.node, Peer: peer})
	}
}

// Deliver records a site applying a mobility delivery (post-dedup).
// local says whether it arrived over the same-node fast path.
func (t *Telemetry) Deliver(trace uint64, frame wire.FrameType, op wire.OpRef, site uint32, local bool) {
	if t == nil {
		return
	}
	if local {
		t.deliverLocal.Inc()
	} else {
		t.deliverRemote.Inc()
	}
	if trace != 0 {
		t.rec.Record(Event{Trace: trace, Kind: EvDeliver, Frame: frame, Op: op, Node: t.node, Site: site})
	}
}

// peerCounter returns the cached per-peer ship counter. The fast-path
// array makes the per-ship lookup a single atomic load.
func (t *Telemetry) peerCounter(peer uint32) *Counter {
	if peer < uint32(len(t.peersFast)) {
		if c := t.peersFast[peer].Load(); c != nil {
			return c
		}
	}
	t.mu.Lock()
	c := t.peers[peer]
	if c == nil {
		c = t.reg.Counter("peer." + utoa(peer) + ".frames_out")
		t.peers[peer] = c
		if peer < uint32(len(t.peersFast)) {
			t.peersFast[peer].Store(c)
		}
	}
	t.mu.Unlock()
	return c
}

// ObserveBatch records one coalesced frame leaving the node.
func (t *Telemetry) ObserveBatch(entries int, bytes int) {
	if t == nil {
		return
	}
	t.batchEntries.Observe(float64(entries))
	t.batchBytes.Observe(float64(bytes))
}

// ObserveInboxDepth records how many deliveries a site drained in one
// scheduler turn (only non-empty drains are interesting).
func (t *Telemetry) ObserveInboxDepth(n int) {
	if t == nil || n == 0 {
		return
	}
	t.inboxDepth.Observe(float64(n))
}

// ObserveSojourn records one delivery's inbox sojourn (stamp-at-accept
// to handled-at-site) — the latency signal SLO objectives evaluate
// (DESIGN.md §17). Lock-free: one bucket add on the scheduler's
// deliver path.
func (t *Telemetry) ObserveSojourn(d time.Duration) {
	if t == nil {
		return
	}
	t.deliverSojourn.Observe(float64(d.Nanoseconds()))
}

// ObserveCheckpoint records one journal compaction's duration.
func (t *Telemetry) ObserveCheckpoint(d time.Duration) {
	if t == nil {
		return
	}
	t.ckptNanos.Observe(float64(d.Nanoseconds()))
}

// JournalAppend counts recs write-ahead records hitting a journal in
// one append (a committed group holds several).
func (t *Telemetry) JournalAppend(recs int) {
	if t == nil {
		return
	}
	t.journalAppends.Add(uint64(recs))
}

// SetGauge publishes an instantaneous value (pull-style stats merged
// at snapshot time — ack debt, unacked sends).
func (t *Telemetry) SetGauge(name string, v int64) {
	if t == nil {
		return
	}
	t.reg.Gauge(name).Set(v)
}

// AddCounter bumps a cold-path counter by name.
func (t *Telemetry) AddCounter(name string, n uint64) {
	if t == nil {
		return
	}
	t.reg.Counter(name).Add(n)
}

// Snapshot is one node's telemetry dump.
type Snapshot struct {
	Node        uint32             `json:"node"`
	Metrics     map[string]float64 `json:"metrics"`
	Events      []Event            `json:"events"`
	TotalEvents uint64             `json:"total_events"`
}

// Snapshot captures the node's current metrics and retained events.
func (t *Telemetry) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{Metrics: map[string]float64{}}
	}
	return Snapshot{
		Node:        t.node,
		Metrics:     t.reg.Snapshot(),
		Events:      t.rec.Snapshot(),
		TotalEvents: t.rec.Total(),
	}
}

// Dump is a cluster-wide telemetry capture: one snapshot per node.
type Dump struct {
	Nodes []Snapshot `json:"nodes"`
}

// Events merges every node's retained events into one stream.
func (d Dump) Events() []Event {
	var out []Event
	for _, s := range d.Nodes {
		out = append(out, s.Events...)
	}
	return out
}

// Trees reconstructs the trace trees visible in the dump.
func (d Dump) Trees() []Tree { return BuildTrees(d.Events()) }

// Verify checks the trace-completeness invariant over the dump.
func (d Dump) Verify() error { return VerifyTraces(d.Events()) }

// JSON renders the dump, indented for human eyes.
func (d Dump) JSON() []byte {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		// The dump is plain data; marshalling it cannot fail.
		panic(err)
	}
	return b
}

// utoa is strconv.Itoa for uint32 without the import weight — peer
// IDs are tiny.
func utoa(v uint32) string {
	if v == 0 {
		return "0"
	}
	var buf [10]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
