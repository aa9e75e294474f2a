package node

import (
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/testutil"
	"repro/internal/transport"
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

// captureTransport keeps every frame a node sends.
type captureTransport struct {
	mu     sync.Mutex
	frames [][]byte
}

func (c *captureTransport) Self() transport.NodeID { return 1 }
func (c *captureTransport) Recv() <-chan []byte    { return nil }
func (c *captureTransport) Close() error           { return nil }
func (c *captureTransport) Send(_ transport.NodeID, frame []byte) error {
	c.mu.Lock()
	c.frames = append(c.frames, frame)
	c.mu.Unlock()
	return nil
}

// TestFlusherCapsFrames queues about a megabyte of 1 KiB entries into
// one ring before its flusher starts, then lets the flusher drain it.
// The ring must leave as a run of frames none larger than MaxBytes with
// its headroom, carrying every entry once and in order. A flusher that
// checks the size only after appending all it took ships the megabyte
// as one frame.
func TestFlusherCapsFrames(t *testing.T) {
	tr := &captureTransport{}
	c := newCoalescer(&Node{cfg: Config{ID: 1}, tr: tr}, BatchConfig{})
	p := &peerRing{c: c, dst: 2, kick: make(chan struct{}, 1)}
	p.space = sync.NewCond(&p.mu)
	c.peers[2] = p // no flusher yet: the ring fills first

	const size, entries = 1 << 10, 1000 // just under MaxQueueBytes
	for i := 0; i < entries; i++ {
		if err := c.enqueue(2, wire.FMsg, 0, 0, func(w *wire.Writer) {
			w.Raw(binary.LittleEndian.AppendUint32(make([]byte, 0, size), uint32(i))[:size])
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.wg.Add(1)
	go p.loop()
	c.close() // the flusher drains the ring and ships what it holds

	limit := c.cfg.MaxBytes - wire.Headroom
	next := 0
	check := func(env *wire.Envelope) {
		if got := binary.LittleEndian.Uint32(env.Payload); len(env.Payload) != size || int(got) != next {
			t.Fatalf("entry %d: got index %d (%d bytes)", next, got, len(env.Payload))
		}
		next++
	}
	for i, f := range tr.frames {
		if len(f) > limit {
			t.Fatalf("frame %d is %d bytes, cap is MaxBytes %d less headroom %d", i, len(f), c.cfg.MaxBytes, wire.Headroom)
		}
		if !wire.IsBatch(f) {
			env, err := wire.DecodeEnvelope(f)
			if err != nil {
				t.Fatal(err)
			}
			check(env)
			continue
		}
		it, err := wire.NewBatchIter(f)
		if err != nil {
			t.Fatal(err)
		}
		var env wire.Envelope
		for {
			ok, err := it.Next(&env)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			check(&env)
		}
	}
	if next != entries {
		t.Fatalf("%d entries arrived in %d frames, want %d", next, len(tr.frames), entries)
	}
	if c.pending() != 0 {
		t.Fatalf("%d entries still counted pending", c.pending())
	}
	t.Logf("%d entries in %d frames", entries, len(tr.frames))
}
