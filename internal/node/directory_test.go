package node

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/nameservice"
	"repro/internal/site"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestSiteDirectoryUnderChurn delivers to live sites while the node
// spawns sites, recovers killed ones, and adopts sites another node
// drained (ids from a foreign id range). Every id the node ever
// registered keeps resolving, always with its journal, and no delivery
// to a live site finds it unknown.
func TestSiteDirectoryUnderChurn(t *testing.T) {
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	fabric := transport.NewFabric(transport.Ideal)
	defer fabric.Close()
	trA, err := fabric.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	trB, err := fabric.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{ID: 1, NS: ns, Transport: trA, Journals: journal.NewMemFactory()})
	defer a.Stop()
	b := New(Config{ID: 2, NS: ns, Transport: trB, Journals: journal.NewMemFactory()})
	defer b.Stop()
	spawn := func(n *Node, name, src string) *site.Site {
		t.Helper()
		prog, err := CompileSubmission(name, src)
		if err != nil {
			t.Fatal(err)
		}
		s, err := n.Spawn(name, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	var mu sync.Mutex
	var registered []uint32 // ids a must resolve from now on
	register := func(id uint32) {
		mu.Lock()
		registered = append(registered, id)
		mu.Unlock()
	}
	type target struct{ id, heap uint32 }
	var live []target
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("live%d", i)
		s := spawn(a, name, `def L(p) = p?(x) = L[p] in export new p L[p]`)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		ref, _, err := ns.LookupName(ctx, name, "p")
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, target{s.ID(), ref.Heap})
		register(s.ID())
	}
	for i := 0; i < 16; i++ {
		spawn(b, fmt.Sprintf("far%d", i), `inaction`)
	}

	stop := make(chan struct{})
	var passes atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				ids := registered
				mu.Unlock()
				for _, id := range ids {
					e := a.dir.load(id)
					if e == nil {
						t.Errorf("registered site %#x is unknown", id)
						return
					}
					if e.journal == nil || a.journalFor(id) == nil {
						t.Errorf("journaled site %#x seen without its journal", id)
						return
					}
				}
				to := live[k%len(live)]
				d := site.Delivery{Src: 1, Msg: &site.MsgDelivery{Heap: to.heap, Label: "val",
					Args: []wire.Value{{Kind: wire.WInt, I: int64(k)}}}}
				if err := a.toSite(to.id, d); err != nil {
					t.Errorf("delivery to live site %#x: %v", to.id, err)
					return
				}
				passes.Add(1)
			}
		}()
	}

	for i := 0; i < 40; i++ {
		register(spawn(a, fmt.Sprintf("new%d", i), `inaction`).ID())
	}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("new%d", i)
		old, _ := a.SiteByName(name)
		old.Kill(errors.New("injected fault"))
		<-old.Done()
		s, err := a.RecoverSite(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.ID() != old.ID() {
			t.Fatalf("%s recovered as %#x, was %#x", name, s.ID(), old.ID())
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	evs, err := b.Drain(ctx, func(string, uint32) (uint32, error) { return a.ID(), nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		s, err := a.AdoptSite(ev.Name, ev.Journal, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := a.Site(ev.ID); !ok || got != s {
			t.Fatalf("adopted site %#x does not resolve to itself", ev.ID)
		}
		register(ev.ID)
	}
	seen := passes.Load()
	ok := testutil.Eventually(func() bool { return passes.Load() > seen+100 }, 10*time.Second)
	close(stop)
	wg.Wait()
	if !ok {
		t.Fatal("deliveries stalled")
	}
	for _, s := range a.Sites() {
		if err := s.Err(); err != nil {
			t.Fatalf("site %s: %v", s.Name(), err)
		}
	}
}
