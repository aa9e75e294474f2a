package telemetry

import (
	"sync"
	"testing"

	"repro/internal/wire"
)

// TestRegistryConcurrentAccess hammers one registry from many
// goroutines — lookups and increments interleaved — and checks the
// final counts. Run under -race this also proves the instrument
// handles are safe to cache and share.
func TestRegistryConcurrentAccess(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Counter("shared").Inc()
				reg.Gauge("gauge").Set(int64(i))
				reg.Histogram("hist").Observe(float64(i))
				if w == 0 {
					reg.Counter("solo").Inc()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := reg.Snapshot()
	if got := snap["shared"]; got != workers*perWorker {
		t.Errorf("shared counter = %v, want %d", got, workers*perWorker)
	}
	if got := snap["solo"]; got != perWorker {
		t.Errorf("solo counter = %v, want %d", got, perWorker)
	}
	if got := snap["hist.count"]; got != workers*perWorker {
		t.Errorf("hist.count = %v, want %d", got, workers*perWorker)
	}
}

func TestNilRegistryAndInstrumentsNoOp(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Gauge("y").Add(3)
	if reg.Counter("x").Load() != 0 || reg.Gauge("y").Load() != 0 {
		t.Error("nil instruments must read zero")
	}
	if snap := reg.Snapshot(); len(snap) != 0 {
		t.Errorf("nil registry snapshot = %v, want empty", snap)
	}
}

// TestRecorderWraparound fills a small ring past capacity and checks
// eviction order, sequence stamping, and the lifetime total.
func TestRecorderWraparound(t *testing.T) {
	const capacity, total = 8, 20
	r := NewRecorder(capacity)
	for i := 0; i < total; i++ {
		r.Record(Event{Trace: uint64(i + 1), Kind: EvShip, Node: 1})
	}
	if got := r.Total(); got != total {
		t.Fatalf("Total = %d, want %d", got, total)
	}
	events := r.Snapshot()
	if len(events) != capacity {
		t.Fatalf("retained %d events, want %d", len(events), capacity)
	}
	for i, e := range events {
		wantSeq := uint64(total - capacity + i + 1)
		if e.Seq != wantSeq {
			t.Errorf("event %d: seq %d, want %d (oldest→newest order)", i, e.Seq, wantSeq)
		}
		if e.Trace != wantSeq {
			t.Errorf("event %d: trace %d, want %d", i, e.Trace, wantSeq)
		}
	}
}

func TestRecorderPartialRing(t *testing.T) {
	r := NewRecorder(8)
	r.Record(Event{Trace: 1})
	r.Record(Event{Trace: 2})
	events := r.Snapshot()
	if len(events) != 2 || events[0].Trace != 1 || events[1].Trace != 2 {
		t.Fatalf("partial ring snapshot = %v", events)
	}
}

// TestTraceIDPacking checks both forms round-trip the node and never
// produce the reserved untraced value 0.
func TestTraceIDPacking(t *testing.T) {
	cases := []struct {
		node uint32
		seq  uint64
	}{
		{0, 1}, {1, 1}, {63, 1}, {5, 1 << 40}, {63, 1<<57 - 1}, // common form
		{64, 1}, {1000, 7}, {64, 1 << 57}, {5, 1 << 58}, // rare form
	}
	seen := map[uint64]bool{}
	for _, c := range cases {
		id := NewTraceID(c.node, c.seq)
		if id == 0 {
			t.Errorf("NewTraceID(%d, %d) = 0, the untraced sentinel", c.node, c.seq)
		}
		if got := TraceNode(id); got != c.node {
			t.Errorf("TraceNode(NewTraceID(%d, %d)) = %d", c.node, c.seq, got)
		}
		if seen[id] {
			t.Errorf("trace ID collision at node=%d seq=%d", c.node, c.seq)
		}
		seen[id] = true
	}
	// The forms must not collide: a rare-form ID always has the top bit.
	if common, rare := NewTraceID(63, 1), NewTraceID(64, 1); common>>63 != 0 || rare>>63 == 0 {
		t.Errorf("form disambiguation bit wrong: common=%x rare=%x", common, rare)
	}
}

// TestNextTraceGating: trace allocation requires Config.Trace; the
// default config (and nil telemetry) always yields the untraced 0.
func TestNextTraceGating(t *testing.T) {
	var nilTel *Telemetry
	if got := nilTel.NextTrace(); got != 0 {
		t.Errorf("nil telemetry NextTrace = %d, want 0", got)
	}
	if nilTel.Tracing() {
		t.Error("nil telemetry reports Tracing")
	}
	def := New(3, Config{})
	if got := def.NextTrace(); got != 0 {
		t.Errorf("default config NextTrace = %d, want 0 (tracing is opt-in)", got)
	}
	traced := New(3, Config{Trace: true})
	a, b := traced.NextTrace(), traced.NextTrace()
	if a == 0 || b == 0 || a == b {
		t.Errorf("traced NextTrace = %d, %d: want distinct nonzero IDs", a, b)
	}
	if TraceNode(a) != 3 {
		t.Errorf("TraceNode(%x) = %d, want 3", a, TraceNode(a))
	}
}

func TestBuildTreesGroupsAndDropsUntraced(t *testing.T) {
	events := []Event{
		{Trace: 2, Kind: EvShip, Node: 1},
		{Trace: 1, Kind: EvOrigin, Node: 1},
		{Trace: 0, Kind: EvShip, Node: 1}, // untraced infrastructure traffic
		{Trace: 1, Kind: EvShip, Node: 1},
	}
	trees := BuildTrees(events)
	if len(trees) != 2 || trees[0].Trace != 1 || trees[1].Trace != 2 {
		t.Fatalf("trees = %+v", trees)
	}
	if len(trees[0].Events) != 2 {
		t.Errorf("trace 1 has %d events, want 2", len(trees[0].Events))
	}
}

func TestVerifyTraces(t *testing.T) {
	op := wire.OpRef{Site: 2, Epoch: 1, ID: 9}
	good := []Event{
		{Trace: 7, Kind: EvOrigin, Node: 1, Site: 2},
		{Trace: 7, Kind: EvShip, Node: 1, Peer: 2, Op: op},
		{Trace: 7, Kind: EvShip, Node: 1, Peer: 2, Op: op}, // chaos retry: ships may outnumber delivers
		{Trace: 7, Kind: EvDeliver, Node: 2, Site: 5, Op: op},
		{Trace: 0, Kind: EvShip, Node: 1}, // untraced ship is fine
	}
	if err := VerifyTraces(good); err != nil {
		t.Errorf("good stream rejected: %v", err)
	}
	cases := []struct {
		name   string
		events []Event
	}{
		{"duplicate origin", []Event{
			{Trace: 7, Kind: EvOrigin, Node: 1},
			{Trace: 7, Kind: EvOrigin, Node: 2},
		}},
		{"deliver without origin", []Event{
			{Trace: 7, Kind: EvShip, Node: 1, Peer: 2, Op: op},
			{Trace: 7, Kind: EvDeliver, Node: 2, Op: op},
		}},
		{"deliver without matching ship", []Event{
			{Trace: 7, Kind: EvOrigin, Node: 1},
			{Trace: 7, Kind: EvDeliver, Node: 2, Op: op},
		}},
		{"untraced deliver", []Event{
			{Trace: 0, Kind: EvDeliver, Node: 2, Op: op},
		}},
		{"deliver on a node the ship was not bound for", []Event{
			{Trace: 7, Kind: EvOrigin, Node: 1},
			{Trace: 7, Kind: EvShip, Node: 1, Peer: 3, Op: op},
			{Trace: 7, Kind: EvDeliver, Node: 2, Op: op},
		}},
	}
	for _, c := range cases {
		if err := VerifyTraces(c.events); err == nil {
			t.Errorf("%s: invariant violation not caught", c.name)
		}
	}
}

// TestTelemetryHooksFeedMetricsAndRecorder drives the hot-path hooks
// directly and checks both sinks.
func TestTelemetryHooksFeedMetricsAndRecorder(t *testing.T) {
	tel := New(1, Config{Trace: true})
	op := wire.OpRef{Site: 2, Epoch: 1, ID: 1}
	tr := tel.NextTrace()
	tel.Origin(tr, 2)
	tel.Ship(tr, wire.FMsg, op, 1)                // same-node fast path: delivered below
	tel.Ship(0, wire.FHeartbeat, wire.OpRef{}, 4) // control frame, untraced
	tel.Deliver(tr, wire.FMsg, op, 9, true)
	snap := tel.Snapshot()
	for name, want := range map[string]float64{
		"ship.msg":          1,
		"ship.control":      1,
		"deliver.local":     1,
		"traces.allocated":  1,
		"peer.1.frames_out": 1,
		"peer.4.frames_out": 1,
	} {
		if got := snap.Metrics[name]; got != want {
			t.Errorf("metric %s = %v, want %v", name, got, want)
		}
	}
	// Origin + traced ship + traced deliver reach the recorder; the
	// untraced ship only counts.
	if snap.TotalEvents != 3 {
		t.Errorf("TotalEvents = %d, want 3", snap.TotalEvents)
	}
	if err := VerifyTraces(snap.Events); err != nil {
		t.Errorf("single-node stream does not verify: %v", err)
	}
}

func TestNilTelemetryIsInert(t *testing.T) {
	var tel *Telemetry
	tel.Ship(1, wire.FMsg, wire.OpRef{}, 2)
	tel.Deliver(1, wire.FMsg, wire.OpRef{}, 2, true)
	tel.Origin(1, 2)
	tel.ObserveBatch(1, 10)
	tel.ObserveInboxDepth(3)
	tel.JournalAppend()
	tel.SetGauge("g", 1)
	tel.AddCounter("c", 1)
	if tel.Enabled() || tel.Registry() != nil || tel.Recorder() != nil {
		t.Error("nil telemetry leaked a live handle")
	}
	snap := tel.Snapshot()
	if len(snap.Metrics) != 0 || len(snap.Events) != 0 {
		t.Errorf("nil snapshot not empty: %+v", snap)
	}
}
