package site_test

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/site"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// TestDeliverBackpressure: the inbox takes exactly site.InboxCap
// deliveries; TryDeliver then refuses, a blocked Deliver completes once
// a Turn drains a slot, and a Deliver still blocked when the site stops
// returns an error.
func TestDeliverBackpressure(t *testing.T) {
	s, heap := rpcServer(t)
	i := 0
	fill := func() {
		t.Helper()
		for {
			ok, err := s.TryDeliver(call(heap, i))
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			i++
		}
	}
	fill()
	if i != site.InboxCap {
		t.Fatalf("TryDeliver refused at %d queued, want %d", i, site.InboxCap)
	}

	blocked := make(chan error, 1)
	go func() { blocked <- s.Deliver(call(heap, i)) }()
	select {
	case err := <-blocked:
		t.Fatalf("Deliver into a full inbox returned %v without waiting", err)
	case <-time.After(10 * time.Millisecond):
	}
	s.Turn()
	if err := <-blocked; err != nil {
		t.Fatalf("blocked Deliver after a Turn: %v", err)
	}
	i++

	fill()
	go func() { blocked <- s.Deliver(call(heap, i)) }()
	s.Stop()
	if s.Turn() != site.TurnStopped {
		t.Fatal("a stopped site's turn did not stop it")
	}
	if err := <-blocked; err == nil {
		t.Fatal("Deliver to a stopped site with a full inbox succeeded")
	}
	if _, err := s.TryDeliver(call(heap, i)); err == nil {
		t.Fatal("TryDeliver to a stopped site succeeded")
	}
}

// TestDeliverConcurrentProducers: 8 producers deliver 10 000 messages
// each to one channel while the site runs, through the inbox's full
// and empty edges; every message is applied exactly once and each
// producer's in the order it sent them, whether turns are driven back
// to back or parked on the wake callback whenever the site goes idle —
// the wake mode finishes only if no enqueue slips past a parked
// driver. The inbox's array stays within its bound throughout.
func TestDeliverConcurrentProducers(t *testing.T) {
	const producers, each = 8, 10000
	for _, mode := range []string{"turn", "wake"} {
		t.Run(mode, func(t *testing.T) {
			var out testutil.Buf
			s, heap := turnSite(t, "sink", `
def L(p) = p?(x) = (println(x) | L[p])
in export new p L[p]`, "p", site.Config{Out: &out})
			var consumer sync.WaitGroup
			stop := make(chan struct{})
			consumer.Add(1)
			if mode == "wake" {
				drive(t, s, nil) // the sink imports nothing: no resolver races SetWake
				go func() { defer consumer.Done(); <-s.Done() }()
			} else {
				go func() {
					defer consumer.Done()
					for {
						select {
						case <-stop:
							return
						default:
							s.Turn()
						}
					}
				}()
			}
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for k := 0; k < each; k++ {
						d := site.Delivery{Src: 2, Msg: &site.MsgDelivery{Heap: heap, Label: "val",
							Args: []wire.Value{{Kind: wire.WInt, I: int64(p*each + k)}}}}
						if err := s.Deliver(d); err != nil {
							t.Error(err)
							return
						}
					}
				}(p)
			}
			wg.Wait()
			ok := testutil.Eventually(func() bool { return strings.Count(out.String(), "\n") >= producers*each }, 60*time.Second)
			if mode == "wake" {
				s.Stop()
			}
			close(stop)
			consumer.Wait()
			if !ok {
				t.Fatalf("%d of %d messages applied (site: %v)", strings.Count(out.String(), "\n"), producers*each, s.Err())
			}
			next := make([]int, producers)
			for _, line := range strings.Fields(out.String()) {
				v, err := strconv.Atoi(line)
				if err != nil {
					t.Fatal(err)
				}
				p, k := v/each, v%each
				if k != next[p] {
					t.Fatalf("producer %d: applied message %d, want %d", p, k, next[p])
				}
				next[p]++
			}
			for p, n := range next {
				if n != each {
					t.Fatalf("producer %d: %d messages applied, want %d", p, n, each)
				}
			}
			if n := s.InboxSlots(); n > site.InboxCap {
				t.Fatalf("inbox array grew to %d slots", n)
			}
		})
	}
}
