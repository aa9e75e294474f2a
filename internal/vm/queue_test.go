package vm

import (
	"bytes"
	"testing"

	"repro/internal/calc"
	"repro/internal/compiler"
	"repro/internal/syntax"
)

// TestQueuedFrameSnapshot: a continuation object waiting at its reply
// channel holds a frame with room for its method's frame, but a
// checkpoint records only the captures, and a restored object (whose
// frame has no spare room) still reduces, by copying.
func TestQueuedFrameSnapshot(t *testing.T) {
	// Channels: p = 0, k = 1, and the call's reply channel r = 2. No
	// server ever answers at p, so the call's message waits there and
	// the continuation r?(y) = k![y] waits at r.
	unit, err := compiler.Compile(syntax.MustParse(`new p new k (let y = p![5] in k![y])`), "cont")
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram()
	linked, err := prog.Link(unit, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog, nil, nil)
	m.Spawn(linked.Entry, nil)
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	const p, k, r = 0, 1, 2
	if msgs, _ := m.PendingAt(p); msgs != 1 {
		t.Fatalf("%d messages wait at p, want 1", msgs)
	}
	waiting := m.heap[r].q.live()
	if len(waiting) != 1 {
		t.Fatalf("%d objects wait at r, want 1", len(waiting))
	}
	frame := waiting[0].vals
	if len(frame) != 1 || cap(frame) != 2 {
		t.Fatalf("waiting frame has len %d cap %d, want the capture k and room for y", len(frame), cap(frame))
	}

	w := NewSnapWriter()
	m.EncodeSnapshot(w)
	snap := w.Finish()
	sr, err := NewSnapReader(snap)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMachine(NewProgram(), nil, nil)
	if err := m2.DecodeSnapshot(sr); err != nil {
		t.Fatal(err)
	}
	if restored := m2.heap[r].q.live()[0].vals; len(restored) != 1 || cap(restored) != 1 {
		t.Fatalf("restored frame has len %d cap %d, want the capture alone", len(restored), cap(restored))
	}
	w2 := NewSnapWriter()
	m2.EncodeSnapshot(w2)
	if !bytes.Equal(w2.Finish(), snap) {
		t.Fatal("snapshot does not survive a decode/encode round trip")
	}

	// Answer the call on both machines. The original runs the method in
	// the waiting object's frame; the restored one copies its frame.
	for _, c := range []struct {
		name    string
		m       *Machine
		inPlace bool
	}{{"original", m, true}, {"restored", m2, false}} {
		free := c.m.heap[r].q.live()[0].vals
		if err := c.m.DeliverMsg(r, c.m.Prog.LabelIndex(calc.ValLabel), []Value{Int(6)}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		body := c.m.runq.live()[0].frame
		if got := &body[0] == &free[0]; got != c.inPlace {
			t.Errorf("%s: method runs in the queued frame = %v, want %v", c.name, got, c.inPlace)
		}
		if len(body) != 2 || !body[0].Equal(Chan(k)) || !body[1].Equal(Int(6)) {
			t.Errorf("%s: method frame %v, want [k 6]", c.name, body)
		}
		if err := c.m.RunToQuiescence(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if msgs, objs := c.m.PendingAt(k); msgs != 1 || objs != 0 {
			t.Errorf("%s: k holds %d messages and %d objects, want the reply", c.name, msgs, objs)
		}
		if c.m.heap[r].q.q != nil {
			t.Errorf("%s: the drained reply channel still holds its queue array", c.name)
		}
	}
}
