package vm

import (
	"testing"
	"unsafe"
)

// TestChannelSize pins a heap entry at one queue and the flag saying
// what it holds (two queues made it 64 B). Every reply channel a call
// makes lives until the machine does, so this is paid per call.
func TestChannelSize(t *testing.T) {
	if size := unsafe.Sizeof(channel{}); size > 40 {
		t.Fatalf("a channel is %d B, budget 40", size)
	}
}

// TestSnapshotRejectsChannelHoldingBoth: the snapshot format keeps a
// message count and an object count per channel, and a running machine
// never fills both. A snapshot that does is corrupt and is refused.
func TestSnapshotRejectsChannelHoldingBoth(t *testing.T) {
	snap := func(msgs, objs int) []byte {
		w := NewSnapWriter()
		encodeProgram(w, NewProgram())
		for range 12 { // Stats
			w.U(0)
		}
		w.U(1) // one channel
		for _, n := range []int{msgs, objs} {
			w.U(uint64(n))
			for range n {
				w.V(0)
				w.Values(nil)
			}
		}
		w.U(0) // run-queue
		w.U(0) // local exports
		return w.Finish()
	}
	for _, c := range []struct {
		msgs, objs int
		ok         bool
	}{{2, 0, true}, {0, 2, true}, {1, 1, false}} {
		r, err := NewSnapReader(snap(c.msgs, c.objs))
		if err != nil {
			t.Fatal(err)
		}
		m := NewMachine(NewProgram(), nil, nil)
		err = m.DecodeSnapshot(r)
		if (err == nil) != c.ok {
			t.Errorf("%d messages and %d objects at one channel: DecodeSnapshot returned %v", c.msgs, c.objs, err)
			continue
		}
		if c.ok {
			if msgs, objs := m.PendingAt(0); msgs != c.msgs || objs != c.objs {
				t.Errorf("restored %d messages and %d objects, want %d and %d", msgs, objs, c.msgs, c.objs)
			}
		}
	}
}
