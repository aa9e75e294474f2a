package site

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/vm"
	"repro/internal/wire"
)

func wireOp(site uint32, id uint64) wire.OpRef { return wire.OpRef{Site: site, Epoch: 1, ID: id} }

// checkRanges fails unless the set's ranges are well formed, sorted,
// disjoint and non-adjacent.
func checkRanges(t *testing.T, s *opSet) {
	t.Helper()
	for i, r := range s.r {
		if r.lo > r.hi {
			t.Fatalf("range %d is [%d, %d]", i, r.lo, r.hi)
		}
		// Adjacent ranges must have been joined: a gap of at least one id.
		if i > 0 && (r.lo <= s.r[i-1].hi || r.lo-s.r[i-1].hi < 2) {
			t.Fatalf("ranges %d and %d overlap or touch: %v", i-1, i, s.r)
		}
	}
}

// FuzzOpSet drives an opSet and a map with the same add/has sequence.
// Input bytes are read in pairs (k, v): bit 0 of k picks has over add,
// bit 1 picks the id universe — v counted up from 0 or down from the
// largest id — so a few hundred ids collide, touch and straddle both
// ends of the id space.
func FuzzOpSet(f *testing.F) {
	seq := func(ids ...byte) []byte {
		var b []byte
		for _, id := range ids {
			b = append(b, 0, id)
		}
		return b
	}
	f.Add(seq(1, 2, 3, 4, 5, 6))                                   // in order: one range
	f.Add(seq(6, 5, 4, 3, 2, 1))                                   // reversed: grows downwards
	f.Add(seq(1, 1, 2, 2, 1))                                      // duplicates
	f.Add(seq(1, 3, 5, 7, 4, 2, 6))                                // gaps filled later, joining both neighbours
	f.Add(seq(10, 20, 11, 19, 9, 21))                              // lo and hi joins
	f.Add([]byte{0, 1, 0, 3, 1, 2, 1, 3, 0, 2, 1, 2})              // has between adds
	f.Add([]byte{2, 0, 2, 1, 2, 2, 0, 0, 0, 1, 3, 1, 2, 3, 1, 77}) // both ends of the id space
	f.Fuzz(func(t *testing.T, data []byte) {
		var s opSet
		ref := map[uint64]bool{}
		for ; len(data) >= 2; data = data[2:] {
			id := uint64(data[1])
			if data[0]&2 != 0 {
				id = math.MaxUint64 - id
			}
			if data[0]&1 != 0 {
				if got := s.has(id); got != ref[id] {
					t.Fatalf("has(%d) = %v, want %v; ranges %v", id, got, ref[id], s.r)
				}
				continue
			}
			s.add(id)
			ref[id] = true
			checkRanges(t, &s)
		}
		held := uint64(0)
		for _, r := range s.r {
			held += r.hi - r.lo + 1
		}
		if held != uint64(len(ref)) {
			t.Fatalf("ranges %v hold %d ids, want %d", s.r, held, len(ref))
		}
		for v := uint64(0); v < 256; v++ {
			for _, id := range []uint64{v, math.MaxUint64 - v} {
				if got := s.has(id); got != ref[id] {
					t.Fatalf("has(%d) = %v, want %v; ranges %v", id, got, ref[id], s.r)
				}
			}
		}
		// The checkpoint form restores the same ranges.
		w := vm.NewSnapWriter()
		s.encode(w)
		r, err := vm.NewSnapReader(w.Finish())
		if err != nil {
			t.Fatal(err)
		}
		var back opSet
		if err := back.decode(r); err != nil {
			t.Fatalf("decode of %v: %v", s.r, err)
		}
		if len(back.r) != len(s.r) {
			t.Fatalf("decoded %v, want %v", back.r, s.r)
		}
		for i := range s.r {
			if back.r[i] != s.r[i] {
				t.Fatalf("decoded %v, want %v", back.r, s.r)
			}
		}
	})
}

// TestOpSetDecodeRejectsMalformedRanges feeds decode range lists that
// encode never writes: sums that wrap the id space.
func TestOpSetDecodeRejectsMalformedRanges(t *testing.T) {
	for name, words := range map[string][]uint64{
		"span wraps":              {1, 5, math.MaxUint64},
		"successor after the end": {2, 0, math.MaxUint64, 0, 0},
		"gap wraps":               {2, 0, 10, math.MaxUint64, 0},
	} {
		w := vm.NewSnapWriter()
		for _, x := range words {
			w.U(x)
		}
		r, err := vm.NewSnapReader(w.Finish())
		if err != nil {
			t.Fatal(err)
		}
		var s opSet
		if err := s.decode(r); err == nil {
			t.Errorf("%s: decoded to %v", name, s.r)
		}
	}
}

// overlayBytes encodes the site's overlay alone (no machine state).
func overlayBytes(s *Site) []byte {
	w := vm.NewSnapWriter()
	s.encodeOverlay(w)
	return w.Finish()
}

// TestOverlayRoundTripIsByteIdentical restores an overlay holding
// out-of-order applied ids, several peers and exported channels, and
// checks that the restored site writes the same bytes: what a
// recovered incarnation checkpoints next is comparable with what the
// dead one wrote.
func TestOverlayRoundTripIsByteIdentical(t *testing.T) {
	build := func() *Site {
		s := New(Config{Name: "a", ID: 1, NodeID: 1})
		for i := 0; i < 12; i++ {
			s.m.NewChan()
		}
		return s
	}
	s := build()
	for _, c := range []int{7, 2, 11, 2, 3} { // export ids 1..4, channel order scrambled
		s.exportID(c)
	}
	for _, id := range []uint64{1, 5, 3, 9, 10, 2} { // ranges 1-3, 5, 9-10
		s.peer(5).applied.add(id)
	}
	s.peer(5).maxEpoch = 3
	s.peer(5).nextOp = 17
	s.peer(9).applied.add(4) // a first delivery that was not id 1
	s.peer(2).nextOp = 2     // a site only ever sent to
	s.newOp(7)

	first := overlayBytes(s)
	back := build()
	r, err := vm.NewSnapReader(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.decodeOverlay(r); err != nil {
		t.Fatal(err)
	}
	if !r.Done() {
		t.Error("decodeOverlay left bytes unread")
	}
	if second := overlayBytes(back); !bytes.Equal(first, second) {
		t.Fatalf("overlay changed across a restore:\n first %x\nsecond %x", first, second)
	}
	for id, want := range map[uint64]bool{1: true, 2: true, 3: true, 4: false, 5: true, 8: false, 9: true, 10: true, 11: false} {
		if got := back.appliedOp(wireOp(5, id)); got != want {
			t.Errorf("restored site: op 5#%d applied = %v, want %v", id, got, want)
		}
	}
	if c, ok := back.lookupExport(3); !ok || c != 11 {
		t.Errorf("restored export id 3 -> channel %d (%v), want 11", c, ok)
	}
	if id := back.exportID(7); id != 1 {
		t.Errorf("restored channel 7 has export id %d, want 1", id)
	}
	if got := back.newOp(5).ID; got != 18 {
		t.Errorf("restored site issues op %d to site 5, want 18", got)
	}
	if got := back.newOp(7).ID; got != 2 {
		t.Errorf("restored site issues op %d to site 7, want 2", got)
	}
}
