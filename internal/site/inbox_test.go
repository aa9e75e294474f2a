package site

import (
	"reflect"
	"testing"
)

// TestInboxRing: the inbox is FIFO across wrap-around and across
// growth while wrapped, zeroes what it pops, and its array doubles to
// exactly inboxCap slots and no further.
func TestInboxRing(t *testing.T) {
	var q inbox
	if q.ring != nil {
		t.Fatal("a new inbox holds an array")
	}
	next, want := uint64(0), uint64(0)
	push := func() bool {
		d := Delivery{Trace: next}
		if !q.push(&d) {
			return false
		}
		next++
		return true
	}
	pop := func() {
		t.Helper()
		var d Delivery
		if !q.pop(&d) {
			t.Fatalf("pop from an inbox holding %d", q.len())
		}
		if d.Trace != want {
			t.Fatalf("popped %d, want %d", d.Trace, want)
		}
		want++
	}

	// Wrap the smallest ring, then grow it while its items wrap.
	for i := 0; i < inboxMinRing; i++ {
		push()
	}
	for i := 0; i < 3; i++ {
		pop()
		push()
	}
	if q.head == 0 {
		t.Fatal("the ring did not wrap")
	}
	for q.len() < 3*inboxMinRing {
		push()
	}
	for i := 0; i < 5*inboxMinRing; i++ {
		pop()
		push()
	}
	for q.len() > 0 {
		pop()
	}
	var d Delivery
	if q.pop(&d) {
		t.Fatal("pop from an empty inbox succeeded")
	}
	for i, slot := range q.ring {
		if !reflect.ValueOf(slot).IsZero() {
			t.Fatalf("drained slot %d still holds %+v", i, slot)
		}
	}

	// Fill to the cap: exactly inboxCap fit, the array is exactly that
	// long, and traffic through a full inbox does not grow it.
	for q.len() < inboxCap {
		if !push() {
			t.Fatalf("push refused at %d queued", q.len())
		}
	}
	if push() {
		t.Fatalf("push accepted at %d queued", inboxCap)
	}
	for i := 0; i < 3*inboxCap; i++ {
		pop()
		if !push() {
			t.Fatal("push refused after a pop freed a slot")
		}
		if len(q.ring) != inboxCap {
			t.Fatalf("ring has %d slots, want %d", len(q.ring), inboxCap)
		}
	}
	for q.len() > 0 {
		pop()
	}
	if want != next {
		t.Fatalf("popped %d of %d pushed", want, next)
	}
}
