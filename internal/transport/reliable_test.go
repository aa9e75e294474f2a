package transport_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// reliablePair builds two reliable endpoints over a chaotic fabric.
func reliablePair(t *testing.T, chaosCfg transport.ChaosConfig, relCfg transport.ReliableConfig) (*transport.Chaos, *transport.Reliable, *transport.Reliable, func()) {
	t.Helper()
	f := transport.NewFabric(transport.Ideal)
	chaos := transport.NewChaos(chaosCfg)
	ma, err := f.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := f.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	a := transport.NewReliable(chaos.Wrap(ma), relCfg)
	b := transport.NewReliable(chaos.Wrap(mb), relCfg)
	return chaos, a, b, func() {
		a.Close()
		b.Close()
		chaos.Close()
		f.Close()
	}
}

func collectN(t *testing.T, tr transport.Transport, n int, timeout time.Duration) map[string]int {
	t.Helper()
	got := map[string]int{}
	total := 0
	deadline := time.After(timeout)
	for total < n {
		select {
		case f := <-tr.Recv():
			got[string(f)]++
			total++
		case <-deadline:
			t.Fatalf("only %d/%d frames delivered before timeout", total, n)
		}
	}
	return got
}

func TestReliableExactlyOnceUnder30PercentDrop(t *testing.T) {
	cfg := transport.ReliableConfig{RetransmitTimeout: 5 * time.Millisecond}
	chaos, a, b, stop := reliablePair(t, transport.ChaosConfig{Seed: 11, Drop: 0.3, Dup: 0.1, Reorder: 0.1}, cfg)
	defer stop()
	const n = 300
	for i := 0; i < n; i++ {
		if err := a.Send(2, []byte(fmt.Sprintf("frame-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := collectN(t, b, n, 30*time.Second)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("frame-%03d", i)
		if got[key] != 1 {
			t.Fatalf("%s delivered %d times", key, got[key])
		}
	}
	if st := a.Stats(); st.Retransmits == 0 {
		t.Fatalf("30%% drop with zero retransmits: %+v", st)
	}
	if st := b.Stats(); st.DupDrops == 0 {
		t.Fatalf("retransmissions+dup with zero dedup drops: %+v", st)
	}
	_ = chaos
}

func TestReliableBidirectionalUnderDrop(t *testing.T) {
	cfg := transport.ReliableConfig{RetransmitTimeout: 5 * time.Millisecond}
	_, a, b, stop := reliablePair(t, transport.ChaosConfig{Seed: 5, Drop: 0.25}, cfg)
	defer stop()
	const n = 100
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			_ = a.Send(2, []byte(fmt.Sprintf("a%03d", i)))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			_ = b.Send(1, []byte(fmt.Sprintf("b%03d", i)))
		}
	}()
	wg.Wait()
	gotB := collectN(t, b, n, 30*time.Second)
	gotA := collectN(t, a, n, 30*time.Second)
	if len(gotA) != n || len(gotB) != n {
		t.Fatalf("distinct frames: a=%d b=%d, want %d", len(gotA), len(gotB), n)
	}
}

func TestReliableSurvivesPartitionHeal(t *testing.T) {
	cfg := transport.ReliableConfig{RetransmitTimeout: 5 * time.Millisecond, MaxRetries: 100}
	chaos, a, b, stop := reliablePair(t, transport.ChaosConfig{Seed: 2}, cfg)
	defer stop()
	chaos.Partition(1, 2)
	if err := a.Send(2, []byte("through the wall")); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-b.Recv():
		t.Fatalf("frame %q crossed the partition", f)
	case <-time.After(30 * time.Millisecond):
	}
	chaos.Heal(1, 2)
	select {
	case f := <-b.Recv():
		if string(f) != "through the wall" {
			t.Fatalf("got %q", f)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("frame not retransmitted after heal")
	}
}

func TestReliablePeerDownFailsFast(t *testing.T) {
	var mu sync.Mutex
	var droppedFrames [][]byte
	cfg := transport.ReliableConfig{
		RetransmitTimeout: 5 * time.Millisecond,
		OnDrop: func(dst transport.NodeID, frame []byte, err error) {
			mu.Lock()
			droppedFrames = append(droppedFrames, frame)
			mu.Unlock()
		},
	}
	chaos, a, _, stop := reliablePair(t, transport.ChaosConfig{Seed: 2}, cfg)
	defer stop()
	chaos.Partition(1, 2)
	if err := a.Send(2, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	a.SetPeerDown(2)
	if err := a.Send(2, []byte("rejected")); !errors.Is(err, transport.ErrPeerDown) {
		t.Fatalf("send to down peer: %v, want ErrPeerDown", err)
	}
	mu.Lock()
	nDropped := len(droppedFrames)
	mu.Unlock()
	if nDropped != 1 || string(droppedFrames[0]) != "doomed" {
		t.Fatalf("OnDrop saw %d frames", nDropped)
	}
	if !a.PeerDown(2) {
		t.Fatal("PeerDown not reported")
	}
	// Trust again: new sends flow once the partition heals.
	a.SetPeerUp(2)
	chaos.Heal(1, 2)
	if err := a.Send(2, []byte("recovered")); err != nil {
		t.Fatalf("send after SetPeerUp: %v", err)
	}
}

func TestReliableRetriesExhaustedDeclaresPeerDown(t *testing.T) {
	cfg := transport.ReliableConfig{RetransmitTimeout: time.Millisecond, RetransmitMax: 2 * time.Millisecond, MaxRetries: 3}
	chaos, a, _, stop := reliablePair(t, transport.ChaosConfig{Seed: 2}, cfg)
	defer stop()
	chaos.Partition(1, 2)
	if err := a.Send(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for !a.PeerDown(2) {
		select {
		case <-deadline:
			t.Fatal("retries exhausted but peer never declared down")
		case <-time.After(time.Millisecond):
		}
	}
	if st := a.Stats(); st.FailFasts == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestReliableBestEffortBypassesSequencing(t *testing.T) {
	cfg := transport.ReliableConfig{RetransmitTimeout: 5 * time.Millisecond}
	_, a, b, stop := reliablePair(t, transport.ChaosConfig{Seed: 2}, cfg)
	defer stop()
	if err := a.SendBestEffort(2, []byte("hb")); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-b.Recv():
		if string(f) != "hb" {
			t.Fatalf("got %q", f)
		}
	case <-time.After(time.Second):
		t.Fatal("best-effort frame lost on a clean link")
	}
	if st := a.Stats(); st.RawSent != 1 || st.DataSent != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestReliableWindowBackpressure(t *testing.T) {
	cfg := transport.ReliableConfig{RetransmitTimeout: 2 * time.Millisecond, Window: 4, MaxRetries: 1000}
	chaos, a, _, stop := reliablePair(t, transport.ChaosConfig{Seed: 2}, cfg)
	defer stop()
	chaos.Partition(1, 2)
	for i := 0; i < 4; i++ {
		if err := a.Send(2, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- a.Send(2, []byte("fifth")) }()
	select {
	case err := <-blocked:
		t.Fatalf("send past the window returned early: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	chaos.Heal(1, 2)
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatalf("blocked send failed after heal: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("send never unblocked after heal")
	}
}

func TestReliablePassThroughFromUnwrappedPeer(t *testing.T) {
	f := transport.NewFabric(transport.Ideal)
	defer f.Close()
	ma, _ := f.Attach(1)
	mb, _ := f.Attach(2)
	b := transport.NewReliable(mb, transport.ReliableConfig{})
	defer b.Close()
	// Node 1 has no reliable layer; its raw frame must still surface.
	if err := ma.Send(2, []byte{0xFF, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-b.Recv():
		if len(got) != 3 || got[0] != 0xFF {
			t.Fatalf("got %v", got)
		}
	case <-time.After(time.Second):
		t.Fatal("raw frame from unwrapped peer lost")
	}
}

// rawPeer attaches an unwrapped endpoint next to one reliable
// endpoint, so tests can hand-craft packets deterministically.
func rawPeer(t *testing.T) (*transport.Mem, *transport.Reliable, func()) {
	t.Helper()
	f := transport.NewFabric(transport.Ideal)
	raw, err := f.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := f.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	rel := transport.NewReliable(mb, transport.ReliableConfig{RetransmitTimeout: time.Hour})
	return raw, rel, func() {
		rel.Close()
		f.Close()
	}
}

// A single crafted cumulative ack must clear every in-flight frame at
// or below its floor, plus the selectively acked seqs above it.
func TestReliableCumulativeAckClearsWindow(t *testing.T) {
	raw, rel, stop := rawPeer(t)
	defer stop()
	for i := 0; i < 5; i++ {
		if err := rel.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := rel.Unacked(); n != 5 {
		t.Fatalf("Unacked = %d, want 5", n)
	}
	// Floor 3 + selective {5}: leaves only seq 4 in flight.
	ack := wire.Packet{Type: wire.FAck, Src: 1, AckFloor: 3, AckSeqs: []uint64{5}}
	if err := raw.Send(2, ack.Encode()); err != nil {
		t.Fatal(err)
	}
	waitUnacked(t, rel, 1)
	ack = wire.Packet{Type: wire.FAck, Src: 1, AckFloor: 5}
	if err := raw.Send(2, ack.Encode()); err != nil {
		t.Fatal(err)
	}
	waitUnacked(t, rel, 0)
	if st := rel.Stats(); st.AcksRecv != 5 {
		t.Fatalf("AcksRecv = %d, want 5 cleared frames", st.AcksRecv)
	}
}

// Ack state piggybacked on an incoming data packet must both clear the
// window and deliver the payload.
func TestReliablePiggybackedAckOnData(t *testing.T) {
	raw, rel, stop := rawPeer(t)
	defer stop()
	for i := 0; i < 3; i++ {
		if err := rel.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	data := wire.Packet{Type: wire.FData, Src: 1, Seq: 1, AckFloor: 3, Payload: []byte("both")}
	if err := raw.Send(2, data.Encode()); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-rel.Recv():
		if string(got) != "both" {
			t.Fatalf("payload %q", got)
		}
	case <-time.After(time.Second):
		t.Fatal("piggybacked data packet not delivered")
	}
	waitUnacked(t, rel, 0)
}

// A stale-epoch ack (addressed to a previous incarnation) must clear
// nothing.
func TestReliableStaleEpochAckIgnored(t *testing.T) {
	raw, rel, stop := rawPeer(t)
	defer stop()
	if err := rel.Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	ack := wire.Packet{Type: wire.FAck, Src: 1, Epoch: 9, AckEpoch: 9, AckFloor: 10}
	if err := raw.Send(2, ack.Encode()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if n := rel.Unacked(); n != 1 {
		t.Fatalf("stale ack cleared the window: Unacked = %d", n)
	}
}

// A burst of N data frames must be answered with O(1) dedicated ack
// packets (coalesced at burst end), and every frame must still be
// acked eventually.
func TestReliableAckCoalescing(t *testing.T) {
	cfg := transport.ReliableConfig{RetransmitTimeout: time.Hour}
	f := transport.NewFabric(transport.Ideal)
	defer f.Close()
	ma, _ := f.Attach(1)
	mb, _ := f.Attach(2)
	a := transport.NewReliable(ma, cfg)
	defer a.Close()
	b := transport.NewReliable(mb, cfg)
	defer b.Close()
	const n = 50
	for i := 0; i < n; i++ {
		if err := a.Send(2, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	collectN(t, b, n, 10*time.Second)
	waitUnacked(t, a, 0)
	// The retransmit timeout is an hour: every clearance came from
	// acks. Coalescing should have used far fewer than n packets.
	if st := b.Stats(); st.AcksSent >= n/2 {
		t.Fatalf("%d data frames cost %d dedicated acks — coalescing not effective", n, st.AcksSent)
	}
	if st := a.Stats(); st.AcksRecv != n {
		t.Fatalf("AcksRecv = %d, want %d", st.AcksRecv, n)
	}
}

// OnAccept failure must leave the frame unacked so the retransmit is
// re-offered (not treated as an already-seen duplicate and dropped).
func TestReliableAcceptFailureGetsRetried(t *testing.T) {
	f := transport.NewFabric(transport.Ideal)
	defer f.Close()
	ma, _ := f.Attach(1)
	mb, _ := f.Attach(2)
	a := transport.NewReliable(ma, transport.ReliableConfig{RetransmitTimeout: 5 * time.Millisecond})
	defer a.Close()
	var fails atomic.Int32
	fails.Store(2)
	b := transport.NewReliable(mb, transport.ReliableConfig{
		OnAccept: func(src transport.NodeID, payload []byte) error {
			if fails.Add(-1) >= 0 {
				return errors.New("journal unavailable")
			}
			return nil
		},
	})
	defer b.Close()
	if err := a.Send(2, []byte("precious")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-b.Recv():
		if string(got) != "precious" {
			t.Fatalf("got %q", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("frame never delivered after OnAccept recovered")
	}
	waitUnacked(t, a, 0)
}

func waitUnacked(t *testing.T, r *transport.Reliable, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.Unacked() != want {
		if time.Now().After(deadline) {
			t.Fatalf("Unacked = %d, want %d", r.Unacked(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReliableExpiredFrameShedNotRetransmitted: a deadlined frame sent
// into a blackholed link must stop retransmitting once its deadline
// passes, be reported through OnDrop with ErrDeadlineExpired, and free
// its send-window slot.
func TestReliableExpiredFrameShedNotRetransmitted(t *testing.T) {
	var dropped atomic.Int32
	var dropErr atomic.Value
	cfg := transport.ReliableConfig{
		RetransmitTimeout: 5 * time.Millisecond,
		MaxRetries:        1000, // retries must not be what ends this frame
		OnDrop: func(dst transport.NodeID, frame []byte, err error) {
			dropped.Add(1)
			dropErr.Store(err)
		},
	}
	chaos, a, _, stop := reliablePair(t, transport.ChaosConfig{Seed: 3}, cfg)
	defer stop()
	chaos.Partition(1, 2) // blackhole: data and acks both vanish
	if err := a.SendWithDeadline(2, []byte("doomed"), time.Now().Add(30*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for dropped.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("expired frame never reported through OnDrop")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if err := dropErr.Load().(error); !errors.Is(err, transport.ErrDeadlineExpired) {
		t.Fatalf("OnDrop error = %v, want ErrDeadlineExpired", err)
	}
	if st := a.Stats(); st.Expired == 0 {
		t.Fatalf("expired shed not accounted: %+v", st)
	}
	waitCond(t, time.Second, func() bool { return a.Unacked() == 0 })
}

// TestReliableSendExpiredFailsFast: a frame already past its deadline
// is rejected at Send time without entering the window.
func TestReliableSendExpiredFailsFast(t *testing.T) {
	cfg := transport.ReliableConfig{RetransmitTimeout: 5 * time.Millisecond}
	_, a, _, stop := reliablePair(t, transport.ChaosConfig{Seed: 3}, cfg)
	defer stop()
	err := a.SendWithDeadline(2, []byte("late"), time.Now().Add(-time.Millisecond))
	if !errors.Is(err, transport.ErrDeadlineExpired) {
		t.Fatalf("want ErrDeadlineExpired, got %v", err)
	}
	if a.Unacked() != 0 {
		t.Fatal("expired frame entered the send window")
	}
	if st := a.Stats(); st.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", st.Expired)
	}
}

// TestReliableRetryBudgetDefersRetransmits: with a tiny retry budget
// and a fully partitioned peer, retransmissions are postponed (counted
// in BudgetDeferred) instead of hammering the link, yet delivery still
// completes after the partition heals — the budget delays, it never
// drops.
func TestReliableRetryBudgetDefersRetransmits(t *testing.T) {
	cfg := transport.ReliableConfig{
		RetransmitTimeout: 2 * time.Millisecond,
		MaxRetries:        10000,
		RetryBudgetRate:   5, // ~5 retransmits/sec across the burst
		RetryBudgetBurst:  2,
	}
	chaos, a, b, stop := reliablePair(t, transport.ChaosConfig{Seed: 7}, cfg)
	defer stop()
	chaos.Partition(1, 2)
	if err := a.Send(2, []byte("patient")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	st := a.Stats()
	if st.BudgetDeferred == 0 {
		t.Fatalf("no retransmissions deferred by the budget: %+v", st)
	}
	// Without the budget, 200ms at a 2ms timeout would attempt ~100
	// retransmits; the budget caps it near burst + rate*elapsed.
	if st.Retransmits > 10 {
		t.Fatalf("budget failed to pace retransmits: %d in 200ms", st.Retransmits)
	}
	chaos.Heal(1, 2)
	select {
	case f := <-b.Recv():
		if string(f) != "patient" {
			t.Fatalf("got %q", f)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("frame never delivered after heal")
	}
}

// TestReliableWindowOccupancy tracks the fullest per-peer window.
func TestReliableWindowOccupancy(t *testing.T) {
	cfg := transport.ReliableConfig{RetransmitTimeout: time.Hour, Window: 4}
	chaos, a, _, stop := reliablePair(t, transport.ChaosConfig{Seed: 9}, cfg)
	defer stop()
	if occ := a.WindowOccupancy(); occ != 0 {
		t.Fatalf("idle occupancy = %v, want 0", occ)
	}
	chaos.Partition(1, 2)
	for i := 0; i < 2; i++ {
		if err := a.Send(2, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if occ := a.WindowOccupancy(); occ != 0.5 {
		t.Fatalf("occupancy with 2/4 in flight = %v, want 0.5", occ)
	}
}

// waitCond polls until cond holds or the timeout elapses.
func waitCond(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReliableHoldsDataButAppliesAcksWhileQueueFull: b's consumer reads
// nothing, so b's delivered-frame queue fills and b holds a's further
// data unacked, which stalls a's sender on its window. b must still
// apply the acks a sends for b's own traffic: b sends three windows'
// worth to a, which completes only if b keeps reading a's acks while
// its queue is full. Once b's consumer starts, every frame a sent is
// delivered exactly once.
func TestReliableHoldsDataButAppliesAcksWhileQueueFull(t *testing.T) {
	const window, toB = 16, 100
	_, a, b, stop := reliablePair(t, transport.ChaosConfig{}, transport.ReliableConfig{Window: window})
	defer stop()
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < toB; i++ {
			if err := a.Send(2, []byte(fmt.Sprintf("a%d", i))); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	deadline := time.Now().Add(10 * time.Second)
	for b.Stats().Held == 0 {
		if time.Now().After(deadline) {
			t.Fatal("b never held a data packet")
		}
		time.Sleep(time.Millisecond)
	}

	back := make(chan error, 1)
	go func() {
		for i := 0; i < 3*window; i++ {
			if err := b.Send(1, []byte(fmt.Sprintf("b%d", i))); err != nil {
				back <- err
				return
			}
		}
		back <- nil
	}()
	got := collectN(t, a, 3*window, 10*time.Second)
	if err := <-back; err != nil {
		t.Fatal(err)
	}
	if len(got) != 3*window {
		t.Fatalf("a received %d distinct frames, want %d", len(got), 3*window)
	}
	if st := b.Stats(); st.FullAcks == 0 {
		t.Fatalf("b's sends completed but no dedicated ack was counted while its queue was full: %+v", st)
	}

	got = collectN(t, b, toB, 10*time.Second)
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < toB; i++ {
		if n := got[fmt.Sprintf("a%d", i)]; n != 1 {
			t.Fatalf("frame a%d delivered %d times", i, n)
		}
	}
}
