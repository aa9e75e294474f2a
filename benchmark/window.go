package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/syntax"
	"repro/internal/transport"
	"repro/internal/types"
)

// stamper is a site's I/O port: it keeps what the site prints and the
// time of every line, so silent callers pay nothing for the probe's
// measurement. The VM prints each println with one Write. A site is
// owned by one worker at a time; the mutex orders its writes with the
// harness's reads.
type stamper struct {
	epoch time.Time
	rec   *recorder
	want  int           // "done" lines the site is expected to print
	done  chan struct{} // closed when want of them have arrived

	mu      sync.Mutex
	buf     []byte
	at      []time.Duration // since epoch, one per line
	finals  int
	finalAt time.Duration // when the latest done line was printed
}

var donePrefix = []byte("done")

func newStamper(epoch time.Time, rec *recorder, s *siteSpec) *stamper {
	st := &stamper{epoch: epoch, rec: rec, want: len(s.expect), done: make(chan struct{})}
	lines := len(s.expect) + len(s.probe)
	st.at = make([]time.Duration, 0, lines)
	st.buf = make([]byte, 0, 16*lines)
	if st.want == 0 {
		close(st.done)
	}
	return st
}

func (s *stamper) Write(p []byte) (int, error) {
	id := s.rec.begin("out.write")
	now := time.Since(s.epoch)
	s.mu.Lock()
	s.buf = append(s.buf, p...)
	s.at = append(s.at, now)
	if bytes.HasPrefix(p, donePrefix) {
		s.finals++
		s.finalAt = now
		if s.finals == s.want {
			close(s.done)
		}
	}
	s.mu.Unlock()
	s.rec.end(id)
	return len(p), nil
}

// line is one printed line and when it was written.
type line struct {
	text string
	at   time.Duration
}

// lines splits the output into the site's done lines and its probe's
// reply lines.
func (s *stamper) lines() (finals, probe []line) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == 0 {
		return nil, nil
	}
	for i, l := range bytes.Split(bytes.TrimSuffix(s.buf, []byte{'\n'}), []byte{'\n'}) {
		ln := line{text: string(l)}
		if i < len(s.at) {
			ln.at = s.at[i]
		}
		if bytes.HasPrefix(l, donePrefix) {
			finals = append(finals, ln)
		} else {
			probe = append(probe, ln)
		}
	}
	return finals, probe
}

// last returns when the site printed its latest line, and its latest
// done line.
func (s *stamper) last() (line, final time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.at) > 0 {
		line = s.at[len(s.at)-1]
	}
	return line, s.finalAt
}

// layerCounters is what a traced window reads from the program's
// public counters and the seam wrappers after it ends.
type layerCounters struct {
	ops              int
	sites            int
	remote, local    uint64
	deliveryFailures uint64
	steals           uint64
	workers          int
	rel              transport.ReliableStats // summed over nodes
	fetchRetries     uint64
	expiredDrops     uint64
	unitsLinked      uint64 // mobile units only: each site's own program excluded
	nsCalls          uint64
	lookupWaits      []float64 // ns
	journalAppends   uint64
	journalBytes     uint64
	detect           time.Duration // last output line → Cluster.Wait returns
}

// windowResult is one window's raw measurements.
type windowResult struct {
	ops, failed  int // load ops attempted / not verified
	checked, bad int // probe replies checked / wrong
	elapsed      time.Duration
	probeUs      []float64
	cpu          time.Duration
	mallocs      uint64
	allocBytes   uint64
	peakHeap     uint64
	timedOut     bool
	speed        float64 // of the host while the window ran (hostSpeed)
	layer        *layerCounters
}

// opsPerSec is the window's throughput at nominal host speed.
func (r *windowResult) opsPerSec() float64 {
	return float64(r.ops-r.failed) / r.elapsed.Seconds() / r.speed
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the maximum HeapInuse every 100 ms until stopped.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapInuse > h.peak {
					h.peak = ms.HeapInuse
				}
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// finish stops the sampler and folds in a last reading.
func (h *heapSampler) finish(last uint64) uint64 {
	close(h.stop)
	<-h.done
	if last > h.peak {
		h.peak = last
	}
	return h.peak
}

// compiled is a workload's programs, compiled once during set-up
// (launch submits from source instead).
type compiled map[string]*core.Program

func compileAll(in *inputs) (compiled, error) {
	progs := compiled{}
	for _, s := range in.all() {
		p, err := core.Compile(s.name, s.src)
		if err != nil {
			return nil, err
		}
		progs[s.name] = p
	}
	return progs, nil
}

// compileTraced runs the three front-end passes separately so each
// gets its own span.
func compileTraced(rec *recorder, s *siteSpec) (*core.Program, error) {
	id := rec.begin("syntax.parse")
	proc, err := syntax.Parse(s.src)
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	id = rec.begin("types.check")
	info, err := types.Check(proc)
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	id = rec.begin("compiler.compile")
	unit, err := compiler.Compile(proc, s.name)
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	return &core.Program{Name: s.name, Unit: unit, Info: info}, nil
}

// submit starts one site from the program compiled before timing
// began. launch has none: it submits from source, which the traced
// window does through the three passes, each under its span, so that
// it does the work Cluster.Submit does.
func submit(cl *core.Cluster, rec *recorder, progs compiled, s *siteSpec, out io.Writer) error {
	prog := progs[s.name]
	if prog == nil && rec != nil {
		var err error
		if prog, err = compileTraced(rec, s); err != nil {
			return err
		}
	}
	defer rec.enter("core.submit")()
	var err error
	if prog != nil {
		_, err = cl.SubmitProgram(s.node, prog, out)
	} else {
		_, err = cl.Submit(s.node, s.name, s.src, out)
	}
	if err != nil {
		return fmt.Errorf("submit %s: %w", s.name, err)
	}
	return nil
}

// verify compares a site's done lines with what the harness computed.
func verify(s *siteSpec, got []line) bool {
	if len(got) != len(s.expect) {
		return false
	}
	for i := range got {
		if got[i].text != s.expect[i] {
			return false
		}
	}
	return true
}

// drive submits the load sites and waits for every site's done lines,
// or for the window's deadline. A sequential workload (launch) waits
// for each site before submitting the next; submit to done line is
// then both the op and the probe latency.
func drive(w *workload, cl *core.Cluster, rec *recorder, progs compiled, in *inputs,
	outs map[string]*stamper, epoch time.Time, deadline <-chan time.Time, res *windowResult) error {
	for i := range in.load {
		s := &in.load[i]
		start := time.Since(epoch)
		if err := submit(cl, rec, progs, s, outs[s.name]); err != nil {
			return err
		}
		if !w.sequential {
			continue
		}
		select {
		case <-outs[s.name].done:
			_, at := outs[s.name].last()
			res.probeUs = append(res.probeUs, float64(at-start)/1e3)
		case <-deadline:
			res.timedOut = true
			return nil
		}
	}
	for _, st := range outs {
		select {
		case <-st.done:
		case <-deadline:
			res.timedOut = true
			return nil
		}
	}
	return nil
}

// runWindow measures one window on a fresh cluster: build the cluster,
// submit the server sites, then time from submitting the load sites
// (the probe callers live inside them) to the last verified done
// line. A window that outlives timeout turns its unfinished ops into
// failed ops. With a recorder the window is traced and the layer
// counters are read. host gives the host's speed since its last
// reading, which the caller took just before.
func runWindow(w *workload, in *inputs, progs compiled, rec *recorder, host *hostClock, timeout time.Duration) (*windowResult, error) {
	defer rec.enter("window")()
	cfg := w.config()
	var ns *tracedNS
	var jl *tracedJournal
	if rec != nil {
		// The NS seam takes a service before the cluster exists, so the
		// one to wrap is the fresh, empty service a cluster of this
		// workload's own configuration builds for itself; Stop leaves
		// it untouched. The benchmark never constructs one directly.
		donor, err := core.NewCluster(w.config())
		if err != nil {
			return nil, err
		}
		ns = &tracedNS{inner: donor.NS(), rec: rec}
		donor.Stop()
		cfg.NS = ns
		if cfg.Journal != nil {
			jl = &tracedJournal{inner: cfg.Journal, rec: rec}
			cfg.Journal = jl
		}
		if !w.sequential {
			// Untraced windows run programs compiled during set-up; the
			// traced one compiles them again under spans, before timing
			// starts, so the timed run does the same work in both.
			progs = compiled{}
			for _, s := range in.all() {
				if progs[s.name], err = compileTraced(rec, s); err != nil {
					return nil, err
				}
			}
		}
	}
	leave := rec.enter("core.cluster_new")
	cl, err := core.NewCluster(cfg)
	leave()
	if err != nil {
		return nil, err
	}
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			leave := rec.enter("core.stop")
			cl.Stop()
			leave()
		}
	}
	defer stop()

	epoch := time.Now()
	res := &windowResult{ops: in.ops()}
	outs := map[string]*stamper{}
	for i := range in.pre {
		s := &in.pre[i]
		outs[s.name] = newStamper(epoch, rec, s)
		if err := submit(cl, rec, progs, s, outs[s.name]); err != nil {
			return nil, err
		}
	}
	for i := range in.load {
		outs[in.load[i].name] = newStamper(epoch, rec, &in.load[i])
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	heap := startHeapSampler()
	cpu0 := cpuTime()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	leave = rec.enter("run")
	t0 := time.Since(epoch)

	err = drive(w, cl, rec, progs, in, outs, epoch, deadline.C, res)
	end := time.Since(epoch)
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	leave()
	res.peakHeap = heap.finish(after.HeapInuse)
	if err != nil {
		return nil, err
	}
	res.mallocs = after.Mallocs - before.Mallocs
	res.allocBytes = after.TotalAlloc - before.TotalAlloc

	// The window ends at the last done line, which the stampers timed
	// on the goroutine that printed it.
	if !res.timedOut {
		end = t0
		for _, st := range outs {
			if _, at := st.last(); at > end {
				end = at
			}
		}
	}
	res.elapsed = end - t0
	res.speed = host.speed()

	if rec != nil && !res.timedOut {
		res.layer = readCounters(cl, rec, in, ns, jl, outs, epoch, timeout)
	}
	stop()

	for _, s := range in.all() {
		finals, replies := outs[s.name].lines()
		if !verify(s, finals) {
			res.failed += s.ops
		}
		// A probe caller is sequential, so the gap between two of its
		// reply lines is one call's latency.
		prev := time.Duration(-1)
		for i, l := range replies {
			if l.at > end {
				break // the probe outlived the load: those replies saw an idle system
			}
			res.checked++
			if i >= len(s.probe) || l.text != s.probe[i] {
				res.bad++
			}
			if prev >= 0 {
				res.probeUs = append(res.probeUs, float64(l.at-prev)/1e3)
			}
			prev = l.at
		}
	}
	return res, nil
}

// readCounters waits for global termination (timing the detector from
// the last line any site printed) and reads the public counters.
func readCounters(cl *core.Cluster, rec *recorder, in *inputs, ns *tracedNS, jl *tracedJournal,
	outs map[string]*stamper, epoch time.Time, timeout time.Duration) *layerCounters {
	lc := &layerCounters{ops: in.ops(), sites: len(in.pre) + len(in.load)}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	leave := rec.enter("termination.wait")
	err := cl.Wait(ctx)
	returned := time.Since(epoch)
	leave()
	cancel()
	if err == nil {
		var last time.Duration
		for _, st := range outs {
			if at, _ := st.last(); at > last {
				last = at
			}
		}
		lc.detect = returned - last
	}
	for i := 0; i < cl.Nodes(); i++ {
		n := cl.Node(i)
		st := n.Status()
		lc.remote += st.RemoteDeliveries
		lc.local += st.LocalDeliveries
		lc.deliveryFailures += st.DeliveryFailures
		if st.Sched != nil {
			lc.steals += st.Sched.Steals
			lc.workers += st.Sched.Workers
		}
		if r := n.Reliable(); r != nil {
			rs := r.Stats()
			lc.rel.DataSent += rs.DataSent
			lc.rel.Retransmits += rs.Retransmits
			lc.rel.AcksSent += rs.AcksSent
			lc.rel.RawSent += rs.RawSent
			lc.rel.Expired += rs.Expired
		}
		lc.expiredDrops += n.ExpiredDrops()
		for _, s := range n.Sites() {
			lc.fetchRetries += s.FetchRetries()
			if s.UnitsLinked > 0 {
				lc.unitsLinked += s.UnitsLinked - 1
			}
		}
	}
	lc.nsCalls = ns.calls.Load()
	ns.mu.Lock()
	lc.lookupWaits = append([]float64(nil), ns.lookupWaits...)
	ns.mu.Unlock()
	if jl != nil {
		lc.journalAppends = jl.appends.Load()
		lc.journalBytes = jl.bytes.Load()
	}
	return lc
}
