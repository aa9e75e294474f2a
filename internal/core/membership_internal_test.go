package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/nameservice"
)

// TestSecondHandDeathReachesHookAndFences: a death an observer learns by
// gossip arrives as Alive→Dead, with no Suspect step in its own view. It
// must still reach OnSuspect — a master requeueing work on suspicion
// would otherwise miss the crash — and fence the node in the name
// service. A later rejoin lifts the fence and reaches the hook too.
func TestSecondHandDeathReachesHookAndFences(t *testing.T) {
	ctx := context.Background()
	auth := nameservice.NewSharded(nameservice.ShardedConfig{})
	if err := auth.RegisterSite(ctx, "s", 1, 3, 1); err != nil {
		t.Fatal(err)
	}
	fenced := func() bool {
		_, _, err := auth.LookupSite(ctx, "s")
		return errors.Is(err, nameservice.ErrNameExpired)
	}
	var got []membership.Event
	c := &Cluster{ns: auth, auth: auth, cfg: ClusterConfig{
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
	if !fenced() {
		t.Fatal("second-hand death did not fence node 3")
	}

	rejoin := membership.Event{Node: 3, Prev: membership.StateDead, State: membership.StateAlive, Inc: 2, At: time.Now()}
	c.onMembership(1, rejoin)
	if len(got) != 2 || got[1] != rejoin {
		t.Fatalf("hook saw %+v, want the rejoin second", got)
	}
	if fenced() {
		t.Fatal("rejoin did not lift the fence on node 3")
	}
}
