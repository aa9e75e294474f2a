package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/nameservice"
	"repro/internal/vm"
)

// span is one timed call into a layer, recorded by the harness around
// the call (nothing inside the program is instrumented).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	SelfNs int64  `json:"self_ns"`
}

// recorder keeps the spans of one traced workload run in memory. A
// nil recorder records nothing, so untraced windows pay one pointer
// test per call site.
type recorder struct {
	Run      string `json:"run"` // shared by every span of the run
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`

	epoch time.Time
	mu    sync.Mutex
	// phase is the harness's innermost open span. Spans recorded from
	// goroutines inside the runtime (seam wrappers, output writers)
	// take it as parent: the harness call during which they happened.
	phase atomic.Int64
}

func newRecorder(run, workload string) *recorder {
	r := &recorder{Run: run, Workload: workload, epoch: time.Now()}
	r.phase.Store(-1)
	return r
}

// begin opens a span under the current phase and returns its id.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	// The clock and the phase are read under the lock: a goroutine
	// descheduled between the two would otherwise start before the
	// phase it names as parent.
	r.mu.Lock()
	now := int64(time.Since(r.epoch))
	id := len(r.Spans)
	r.Spans = append(r.Spans, span{ID: id, Parent: int(r.phase.Load()), Name: name, Start: now, End: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.Spans[id].End = int64(time.Since(r.epoch))
	r.mu.Unlock()
}

// enter opens a span and makes it the current phase; the returned
// function closes it and restores the previous phase. Only the
// harness goroutine calls enter.
func (r *recorder) enter(name string) func() {
	if r == nil {
		return func() {}
	}
	prev := r.phase.Load()
	id := r.begin(name)
	r.phase.Store(int64(id))
	return func() {
		r.end(id)
		r.phase.Store(prev)
	}
}

// adopt re-parents every span that outlived its parent — a blocking
// lookup that began during one core.submit and was answered during
// the next — to the nearest ancestor still open when it ended, so
// that a child always lies within its parent.
func adopt(spans []span) {
	for i := range spans {
		p := spans[i].Parent
		for p >= 0 && spans[p].End < spans[i].End {
			p = spans[p].Parent
		}
		spans[i].Parent = p
	}
}

// selfTimes sets every span's self time: its duration minus the part
// of its interval that its child spans cover. Children may overlap
// each other and may outlive the parent; the covered part is the
// union of their intervals clipped to the parent's.
func selfTimes(spans []span) {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered int64
		cursor := s.Start
		for _, c := range iv {
			lo, hi := c[0], c[1]
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		s.SelfNs = (s.End - s.Start) - covered
	}
}

// durations returns the duration in ns of every span with the name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.Spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write nests the spans, computes self times and stores the run as
// dir/<workload>.json.
func (r *recorder) write(dir string) error {
	adopt(r.Spans)
	selfTimes(r.Spans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.Workload+".json"), data, 0o644)
}

// tracedNS wraps the cluster's name service at the ClusterConfig.NS
// seam: it counts calls, times blocking lookups and records one span
// per call.
type tracedNS struct {
	inner nameservice.Service
	rec   *recorder
	calls atomic.Uint64

	mu          sync.Mutex
	lookupWaits []float64 // ns per LookupName/LookupClass/LookupSite
}

func (t *tracedNS) call(name string) func() {
	t.calls.Add(1)
	id := t.rec.begin("nameservice." + name)
	return func() { t.rec.end(id) }
}

func (t *tracedNS) lookup(name string) func() {
	done := t.call(name)
	start := time.Now()
	return func() {
		d := float64(time.Since(start))
		done()
		t.mu.Lock()
		t.lookupWaits = append(t.lookupWaits, d)
		t.mu.Unlock()
	}
}

func (t *tracedNS) RegisterSite(ctx context.Context, name string, site, node, epoch uint32) error {
	defer t.call("RegisterSite")()
	return t.inner.RegisterSite(ctx, name, site, node, epoch)
}

func (t *tracedNS) LookupSite(ctx context.Context, name string) (uint32, uint32, error) {
	defer t.lookup("LookupSite")()
	return t.inner.LookupSite(ctx, name)
}

func (t *tracedNS) RegisterName(ctx context.Context, siteName, id string, heap uint32, sig string) error {
	defer t.call("RegisterName")()
	return t.inner.RegisterName(ctx, siteName, id, heap, sig)
}

func (t *tracedNS) LookupName(ctx context.Context, siteName, id string) (vm.NetRef, string, error) {
	defer t.lookup("LookupName")()
	return t.inner.LookupName(ctx, siteName, id)
}

func (t *tracedNS) RegisterClass(ctx context.Context, siteName, class string, sig string) error {
	defer t.call("RegisterClass")()
	return t.inner.RegisterClass(ctx, siteName, class, sig)
}

func (t *tracedNS) LookupClass(ctx context.Context, siteName, class string) (vm.NetClass, string, error) {
	defer t.lookup("LookupClass")()
	return t.inner.LookupClass(ctx, siteName, class)
}

func (t *tracedNS) KeepAlive(ctx context.Context, siteName string, epoch uint32) error {
	defer t.call("KeepAlive")()
	return t.inner.KeepAlive(ctx, siteName, epoch)
}

func (t *tracedNS) RegisterEndpoint(ctx context.Context, node uint32, kind, addr string) error {
	defer t.call("RegisterEndpoint")()
	return t.inner.RegisterEndpoint(ctx, node, kind, addr)
}

func (t *tracedNS) Endpoints(ctx context.Context, kind string) (map[uint32]string, error) {
	defer t.call("Endpoints")()
	return t.inner.Endpoints(ctx, kind)
}

// tracedJournal wraps the cluster's journal factory at the
// ClusterConfig.Journal seam, counting appends and their bytes.
type tracedJournal struct {
	inner   journal.Factory
	rec     *recorder
	appends atomic.Uint64
	bytes   atomic.Uint64
}

func (t *tracedJournal) Open(name string) (journal.Store, error) {
	id := t.rec.begin("journal.Open")
	st, err := t.inner.Open(name)
	t.rec.end(id)
	if err != nil {
		return nil, err
	}
	return &tracedStore{Store: st, j: t}, nil
}

func (t *tracedJournal) List() ([]string, error) { return t.inner.List() }

type tracedStore struct {
	journal.Store
	j *tracedJournal
}

func (s *tracedStore) Append(rec journal.Record) error {
	s.j.appends.Add(1)
	s.j.bytes.Add(uint64(len(rec.Data)))
	id := s.j.rec.begin("journal.Append")
	err := s.Store.Append(rec)
	s.j.rec.end(id)
	return err
}

func (s *tracedStore) Replace(recs []journal.Record) error {
	id := s.j.rec.begin("journal.Replace")
	err := s.Store.Replace(recs)
	s.j.rec.end(id)
	return err
}
