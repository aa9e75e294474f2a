package core

import (
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/nameservice"
)

// fenceRecorder is a name service that records fences.
type fenceRecorder struct {
	nameservice.Service
	fenced map[uint32]bool
}

func (f *fenceRecorder) FenceNode(node uint32)   { f.fenced[node] = true }
func (f *fenceRecorder) UnfenceNode(node uint32) { delete(f.fenced, node) }

// TestSecondHandDeathReachesHookAndFences: a death an observer learns by
// gossip arrives as Alive→Dead, with no Suspect step in its own view. It
// must still reach OnSuspect — a master requeueing work on suspicion
// would otherwise miss the crash — and fence the node in the name
// service. A later rejoin lifts the fence and reaches the hook too.
func TestSecondHandDeathReachesHookAndFences(t *testing.T) {
	ns := &fenceRecorder{fenced: map[uint32]bool{}}
	var got []membership.Event
	c := &Cluster{ns: ns, cfg: ClusterConfig{
		OnSuspect: func(observer uint32, e membership.Event) {
			if observer != 1 {
				t.Errorf("observer = %d, want 1", observer)
			}
			got = append(got, e)
		},
	}}
	dead := membership.Event{Node: 3, Prev: membership.StateAlive, State: membership.StateDead, Inc: 1, At: time.Now()}
	c.onMembership(1, dead)
	if len(got) != 1 || got[0] != dead {
		t.Fatalf("hook saw %+v, want the Alive→Dead event", got)
	}
	if !ns.fenced[3] {
		t.Fatal("second-hand death did not fence node 3")
	}

	rejoin := membership.Event{Node: 3, Prev: membership.StateDead, State: membership.StateAlive, Inc: 2, At: time.Now()}
	c.onMembership(1, rejoin)
	if len(got) != 2 || got[1] != rejoin {
		t.Fatalf("hook saw %+v, want the rejoin second", got)
	}
	if ns.fenced[3] {
		t.Fatal("rejoin did not lift the fence on node 3")
	}
}
