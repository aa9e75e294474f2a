package vm

import "testing"

func TestFifo(t *testing.T) {
	var f fifo[*int]
	next := 0
	push := func() { v := next; next++; f.push(&v) }
	want := 0
	pop := func() {
		t.Helper()
		if got := *f.pop(); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
		want++
	}

	// A queue that never drains keeps a bounded array: popped slots are
	// reclaimed by sliding, not by growing with the traffic.
	for i := 0; i < 8; i++ {
		push()
	}
	for i := 0; i < 10000; i++ {
		pop()
		push()
		if f.len() != 8 {
			t.Fatalf("len = %d, want 8", f.len())
		}
	}
	if cap(f.q) > 32 {
		t.Fatalf("array grew to %d slots for 8 queued items", cap(f.q))
	}
	// Popped slots retain nothing, and a drained queue starts over at
	// the front of its array.
	for _, p := range f.q[:f.head] {
		if p != nil {
			t.Fatal("popped slot still holds its item")
		}
	}
	for f.len() > 0 {
		pop()
	}
	if f.head != 0 || len(f.q) != 0 {
		t.Fatalf("drained queue at head %d, len %d", f.head, len(f.q))
	}
	for _, p := range f.q[:cap(f.q)] {
		if p != nil {
			t.Fatal("drained queue still holds an item")
		}
	}
}
