package node

import (
	"sync"
	"testing"

	"repro/internal/testutil"
	"repro/internal/vm"
	"repro/internal/wire"
)

// TestRingAllocBudget pins the steady state of a peer's outbound ring:
// once both halves of the double buffer have carried a burst, enqueuing
// a small message allocates nothing — the payload is copied into the
// ring's arena and the queue slot is reused. The test plays the flusher
// itself (take), so no goroutine allocates behind the measurement.
func TestRingAllocBudget(t *testing.T) {
	c := newCoalescer(&Node{}, BatchConfig{})
	p := &peerRing{c: c, dst: 2, kick: make(chan struct{}, 1)}
	p.space = sync.NewCond(&p.mu)
	c.peers[2] = p

	m := wire.Msg{
		Op: wire.OpRef{Site: 1, Epoch: 1, ID: 1}, To: vm.NetRef{Heap: 1, Site: 2, Node: 2},
		Label: "val", Args: []wire.Value{{Kind: wire.WInt, I: 7}},
	}
	want := m.Encode()
	payload := m.AppendPayload
	const burst = 64
	var batch outBuf
	round := func() {
		for i := 0; i < burst; i++ {
			if err := c.enqueue(2, wire.FMsg, 0, 0, payload); err != nil {
				t.Fatal(err)
			}
		}
		batch = p.take(batch)
		n := 0
		batch.payloads(func(_ *outMsg, b []byte) {
			if string(b) != string(want) {
				t.Fatalf("entry %d carries %x, want %x", n, b, want)
			}
			n++
		})
		if n != burst {
			t.Fatalf("took %d entries, want %d", n, burst)
		}
		c.pend.Add(-burst)
	}
	round() // warm one buffer,
	round() // then the other
	testutil.CheckAllocs(t, "enqueue of a small message on a warm ring", 0, 100, round)
}

// TestRingArenaGrowthIsCapped fills an arena entry by entry up to the
// queue cap, as producers do: however the doubling falls, the arena
// never holds more than the cap plus the entry that crossed it.
func TestRingArenaGrowthIsCapped(t *testing.T) {
	const limit, entry = 1000, 300
	var a []byte
	for len(a) < limit {
		a = append(growArena(a, entry, limit), make([]byte, entry)...)
		if cap(a) > limit+entry {
			t.Fatalf("arena of %d bytes has capacity %d, cap is %d+%d", len(a), cap(a), limit, entry)
		}
	}
	if got := cap(growArena(a[:0], entry, limit)); got != cap(a) {
		t.Fatalf("a drained arena was reallocated: capacity %d -> %d", cap(a), got)
	}
}
