package node

import (
	"sync"
	"testing"
)

// A site that exhausts its turn budget goes back behind its worker's
// deque. The requeue must put it at the oldest end, and in steady
// state it must not allocate: the always-runnable site is requeued
// once per budget, forever.
func TestRequeueAtOldestEndAllocatesNothing(t *testing.T) {
	sch := &scheduler{}
	sch.cond = sync.NewCond(&sch.mu)
	w := &worker{id: 0, sch: sch}
	sch.workers = []*worker{w}
	a, b, busy := &schedSite{}, &schedSite{}, &schedSite{}
	w.dq.pushNewest(a)
	w.dq.pushNewest(b)
	w.depth.Add(2)

	requeueOnce := func() {
		busy.state.Store(siteRunning)
		w.requeue(busy)
		if got := w.dq.popOldest(); got != busy {
			t.Fatalf("oldest entry after requeue is %p, want the requeued site %p", got, busy)
		}
		w.depth.Add(-1)
	}
	requeueOnce() // the ring's first growth is not steady state
	if allocs := testing.AllocsPerRun(1000, requeueOnce); allocs != 0 {
		t.Fatalf("requeue allocated %.1f times per call, want 0", allocs)
	}
	if got := busy.state.Load(); got != siteQueued {
		t.Fatalf("requeued site state = %d, want queued", got)
	}
	// The owner still pops the newest entry first, and the ring keeps
	// its order across the wrap the requeues drove it through.
	if got := w.pop(); got != b {
		t.Fatalf("pop = %p, want newest %p", got, b)
	}
	if got := w.pop(); got != a {
		t.Fatalf("pop = %p, want %p", got, a)
	}
	if got := w.pop(); got != nil || w.depth.Load() != 0 {
		t.Fatalf("pop of empty deque = %p, depth %d", got, w.depth.Load())
	}
}

// The ring deque keeps FIFO order from the oldest end and LIFO order
// from the newest end across growth and wrap-around.
func TestSiteDequeOrder(t *testing.T) {
	var d siteDeque
	sites := make([]*schedSite, 20)
	for i := range sites {
		sites[i] = &schedSite{}
	}
	for _, ss := range sites[10:] {
		d.pushNewest(ss)
	}
	for i := 9; i >= 0; i-- {
		d.pushOldest(sites[i]) // grows the ring mid-wrap
	}
	for i := 0; i < 5; i++ {
		if got := d.popOldest(); got != sites[i] {
			t.Fatalf("popOldest #%d wrong", i)
		}
	}
	for i := 19; i >= 5; i-- {
		if got := d.popNewest(); got != sites[i] {
			t.Fatalf("popNewest for site %d wrong", i)
		}
	}
	if d.popNewest() != nil || d.popOldest() != nil || d.n != 0 {
		t.Fatal("empty deque returned a site")
	}
}
