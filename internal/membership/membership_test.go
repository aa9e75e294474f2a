package membership_test

import (
	"testing"
	"time"

	"repro/internal/membership"
)

// The tests drive agents manually: a fake clock, synchronous
// in-memory delivery, and fixed seeds make every run deterministic.

type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }

const tickInterval = 10 * time.Millisecond

type delivery struct {
	src, dst uint32
	payload  []byte
}

type mesh struct {
	clk    *fakeClock
	ids    []uint32
	ms     map[uint32]*membership.M
	events map[uint32][]membership.Event
	// drop decides per-message loss; nil delivers everything.
	drop  func(src, dst uint32) bool
	queue []delivery
}

func newMesh(n int, tweak func(id uint32, cfg *membership.Config)) *mesh {
	m := &mesh{clk: newFakeClock(), ms: map[uint32]*membership.M{}, events: map[uint32][]membership.Event{}}
	for i := 1; i <= n; i++ {
		m.ids = append(m.ids, uint32(i))
	}
	for _, id := range m.ids {
		id := id
		cfg := membership.Config{
			Self:          id,
			Peers:         m.ids,
			ProbeInterval: tickInterval,
			SuspectAfter:  4 * tickInterval,
			DeadAfter:     8 * tickInterval,
			Seed:          uint64(id) * 7919,
			Clock:         m.clk,
			Send: func(dst uint32, payload []byte) error {
				m.queue = append(m.queue, delivery{id, dst, payload})
				return nil
			},
			OnEvent: func(e membership.Event) {
				m.events[id] = append(m.events[id], e)
			},
		}
		if tweak != nil {
			tweak(id, &cfg)
		}
		m.ms[id] = membership.New(cfg)
	}
	return m
}

// drain delivers queued messages (which may enqueue more) to a fixed
// point.
func (m *mesh) drain() {
	for guard := 0; len(m.queue) > 0; guard++ {
		if guard > 10000 {
			panic("mesh: message storm")
		}
		d := m.queue[0]
		m.queue = m.queue[1:]
		if m.drop != nil && m.drop(d.src, d.dst) {
			continue
		}
		if dst := m.ms[d.dst]; dst != nil {
			dst.Observe(d.src, d.payload)
		}
	}
}

// round runs one protocol period on every agent.
func (m *mesh) round() {
	for _, id := range m.ids {
		m.ms[id].Tick()
		m.drain()
	}
	m.clk.advance(tickInterval)
}

func (m *mesh) rounds(n int) {
	for i := 0; i < n; i++ {
		m.round()
	}
}

func partition(node uint32) func(src, dst uint32) bool {
	return func(src, dst uint32) bool { return src == node || dst == node }
}

func TestSilenceConvictsSuspectThenDead(t *testing.T) {
	m := newMesh(4, nil)
	m.rounds(10) // settle: everyone heard from everyone
	m.drop = partition(4)
	m.rounds(60)
	for _, id := range []uint32{1, 2, 3} {
		st, _ := m.ms[id].State(4)
		if st != membership.StateDead {
			t.Fatalf("node %d sees 4 as %v after prolonged silence, want dead", id, st)
		}
	}
	// The partitioned node convicts the others symmetrically.
	if st, _ := m.ms[4].State(1); st != membership.StateDead {
		t.Fatalf("partitioned node sees 1 as %v, want dead", st)
	}
	// Transitions fired as events, suspect before dead.
	var sawSuspect, sawDead bool
	for _, e := range m.events[1] {
		if e.Node != 4 {
			continue
		}
		if e.State == membership.StateSuspect {
			sawSuspect = true
			if sawDead {
				t.Fatalf("dead before suspect in event stream")
			}
		}
		if e.State == membership.StateDead {
			sawDead = true
			if !sawSuspect {
				t.Fatalf("dead event without prior suspect")
			}
		}
	}
	if !sawSuspect || !sawDead {
		t.Fatalf("node 1 events missing transitions: suspect=%v dead=%v", sawSuspect, sawDead)
	}
}

func TestHealRefutesSuspicionWithHigherIncarnation(t *testing.T) {
	m := newMesh(4, nil)
	m.rounds(10)
	m.drop = partition(4)
	// Long enough to suspect, short enough not to declare dead.
	for i := 0; ; i++ {
		m.round()
		if st, _ := m.ms[1].State(4); st == membership.StateSuspect {
			break
		}
		if i > 7 {
			t.Fatalf("node 4 never suspected; state=%v", func() membership.State {
				s, _ := m.ms[1].State(4)
				return s
			}())
		}
	}
	m.drop = nil // heal
	m.rounds(20)
	for _, id := range m.ids {
		for _, peer := range m.ids {
			if st, _ := m.ms[id].State(peer); st != membership.StateAlive {
				t.Fatalf("after heal node %d sees %d as %v, want alive", id, peer, st)
			}
		}
	}
	// The suspected node learned of the rumor and outbid it.
	if inc := m.ms[4].Incarnation(); inc < 2 {
		t.Fatalf("suspected node never bumped incarnation: %d", inc)
	}
	if st := m.ms[4].Stats(); st.Refutations == 0 {
		t.Fatalf("no refutation recorded: %+v", st)
	}
}

func TestDeadPeerRevivedByDirectContact(t *testing.T) {
	m := newMesh(3, nil)
	m.rounds(10)
	m.drop = partition(3)
	m.rounds(60)
	if st, _ := m.ms[1].State(3); st != membership.StateDead {
		t.Fatalf("precondition: want dead, got %v", st)
	}
	m.drop = nil
	m.rounds(20)
	if st, _ := m.ms[1].State(3); st != membership.StateAlive {
		t.Fatalf("dead peer not revived by contact: %v", st)
	}
}

// One fully lossy direct link must not convict anyone: the indirect
// ping-req path through the third node keeps proof of life flowing.
func TestIndirectProbesSurviveOneDeadLink(t *testing.T) {
	m := newMesh(3, nil)
	m.rounds(5)
	m.drop = func(src, dst uint32) bool {
		return (src == 1 && dst == 2) || (src == 2 && dst == 1)
	}
	m.rounds(100)
	if st, _ := m.ms[1].State(2); st == membership.StateDead {
		t.Fatalf("node 1 declared 2 dead despite an indirect path")
	}
	if st, _ := m.ms[2].State(1); st == membership.StateDead {
		t.Fatalf("node 2 declared 1 dead despite an indirect path")
	}
	relayed := m.ms[3].Stats().AcksForwarded
	if relayed == 0 {
		t.Fatalf("proxy never forwarded an ack; indirect probing is not exercised")
	}
	if m.ms[1].Stats().PingReqsSent == 0 {
		t.Fatalf("node 1 never escalated to ping-req")
	}
	// Final verdicts over the broken link stay non-dead (suspect
	// wobble is allowed; conviction is not).
	for _, e := range m.events[1] {
		if e.Node == 2 && e.State == membership.StateDead {
			t.Fatalf("node 1 transiently convicted 2: %+v", e)
		}
	}
}

func TestLeavingThenLeftPropagatesWithoutSuspicion(t *testing.T) {
	m := newMesh(4, nil)
	m.rounds(10)
	m.ms[2].AnnounceLeaving()
	m.drain()
	m.rounds(5)
	if st, _ := m.ms[1].State(2); st != membership.StateLeaving {
		t.Fatalf("leaving not propagated: node 1 sees %v", st)
	}
	m.ms[2].AnnounceLeft()
	m.drain()
	m.rounds(5)
	for _, id := range []uint32{1, 3, 4} {
		if st, _ := m.ms[id].State(2); st != membership.StateLeft {
			t.Fatalf("left not propagated: node %d sees %v", id, st)
		}
	}
	// Departure is not failure: nobody suspected node 2, and the
	// leavers absence stops being probed.
	for _, id := range []uint32{1, 3, 4} {
		for _, e := range m.events[id] {
			if e.Node == 2 && (e.State == membership.StateSuspect || e.State == membership.StateDead) {
				t.Fatalf("graceful leave read as failure by node %d: %+v", id, e)
			}
		}
		if alive := m.ms[id].AliveNodes(); contains(alive, 2) {
			t.Fatalf("left node still placeable on node %d: %v", id, alive)
		}
	}
}

func contains(xs []uint32, v uint32) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Seeded 20% symmetric loss with jitter must not produce convictions:
// the phi detector adapts to the observed arrival distribution.
func TestFlappingLinksBoundedFalsePositives(t *testing.T) {
	var rng uint64 = 0x2545F4914F6CDD1D
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	m := newMesh(4, nil)
	m.drop = func(src, dst uint32) bool { return next()%100 < 20 }
	m.rounds(400)
	var deaths uint64
	for _, id := range m.ids {
		deaths += m.ms[id].Stats().Deaths
	}
	if deaths != 0 {
		t.Fatalf("flapping links produced %d convictions", deaths)
	}
	// Whatever transient suspicion arose must have been refuted.
	m.drop = nil
	m.rounds(20)
	for _, id := range m.ids {
		for _, peer := range m.ids {
			if st, _ := m.ms[id].State(peer); st != membership.StateAlive {
				t.Fatalf("unrefuted verdict survived: node %d sees %d as %v", id, peer, st)
			}
		}
	}
}

// The dissemination queue must drain: every update has a finite
// transmission budget.
func TestPiggybackBudgetDrains(t *testing.T) {
	m := newMesh(4, nil)
	m.ms[1].AnnounceLeaving()
	m.rounds(40)
	for _, id := range m.ids {
		if n := m.ms[id].PendingUpdates(); n != 0 {
			t.Fatalf("node %d still holds %d pending updates after quiet period", id, n)
		}
	}
}

// Probe traffic per node is one ping per period regardless of n —
// the scalability claim, asserted at the unit level.
func TestProbeLoadFlatInClusterSize(t *testing.T) {
	const rounds = 50
	for _, n := range []int{4, 16} {
		m := newMesh(n, nil)
		m.rounds(rounds)
		st := m.ms[1].Stats()
		direct := st.ProbesSent
		// Proxied pings (on behalf of others) ride the same counter;
		// in a healthy mesh there are none.
		if direct > rounds+2 {
			t.Fatalf("n=%d: node 1 sent %d direct probes in %d rounds (want ≤ 1/round)", n, direct, rounds)
		}
	}
}

func TestSnapshotAndPhiExposure(t *testing.T) {
	m := newMesh(3, nil)
	m.rounds(10)
	snap := m.ms[1].Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d rows, want 3", len(snap))
	}
	for _, row := range snap {
		if row.State != membership.StateAlive {
			t.Fatalf("healthy mesh row not alive: %+v", row)
		}
	}
	if phi := m.ms[1].Phi(2); phi > 3 {
		t.Fatalf("healthy peer phi = %v, want small", phi)
	}
	m.drop = partition(2)
	m.rounds(30)
	if phi := m.ms[1].Phi(2); phi < 8 {
		t.Fatalf("silent peer phi = %v, want ≥ threshold", phi)
	}
	if since := m.ms[1].SuspectSince(); since[2].IsZero() {
		t.Fatalf("SuspectSince missing silent peer: %v", since)
	}
}
