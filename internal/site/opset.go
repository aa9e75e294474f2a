package site

import (
	"fmt"
	"slices"

	"repro/internal/vm"
)

// opRange is the closed interval [lo, hi] of op ids.
type opRange struct{ lo, hi uint64 }

// opSet is an exact set of op ids, stored as sorted, disjoint,
// non-adjacent closed ranges (DESIGN.md §9). A sender numbers the ops
// it ships to one destination 1, 2, 3 …, so in-order traffic keeps the
// set at a single range however many ids it holds: memory and
// checkpoint bytes are proportional to the gaps left open (shed or
// reordered deliveries), not to the history, and the membership test
// of the next in-order id is one compare against the last range.
type opSet struct{ r []opRange }

// find returns the index of the first range ending at or after id.
func (s *opSet) find(id uint64) int {
	i, _ := slices.BinarySearchFunc(s.r, id, func(r opRange, id uint64) int {
		if r.hi < id {
			return -1
		}
		return 1
	})
	return i
}

// has reports whether id is in the set.
func (s *opSet) has(id uint64) bool {
	n := len(s.r)
	if n == 0 || id > s.r[n-1].hi {
		return false // the common case: the next id of an in-order stream
	}
	return s.r[s.find(id)].lo <= id
}

// add inserts id, joining it to the ranges it touches.
func (s *opSet) add(id uint64) {
	i := s.find(id)
	if i < len(s.r) && s.r[i].lo <= id {
		return // already present
	}
	// id falls in the gap before range i: r[i-1].hi < id < r[i].lo.
	left := i > 0 && s.r[i-1].hi+1 == id
	right := i < len(s.r) && s.r[i].lo == id+1
	switch {
	case left && right:
		s.r[i-1].hi = s.r[i].hi
		s.r = slices.Delete(s.r, i, i+1)
	case left:
		s.r[i-1].hi = id
	case right:
		s.r[i].lo = id
	default:
		s.r = slices.Insert(s.r, i, opRange{id, id})
	}
}

// encode writes the ranges in order, each as the gap to its
// predecessor and its span — small numbers whatever the ids are.
func (s *opSet) encode(w *vm.SnapWriter) {
	w.U(uint64(len(s.r)))
	next := uint64(0) // lowest id the next range may start at
	for _, r := range s.r {
		w.U(r.lo - next)
		w.U(r.hi - r.lo)
		next = r.hi + 2
	}
}

// decode reads what encode wrote, rejecting anything that is not a
// sorted, disjoint, non-adjacent range list.
func (s *opSet) decode(r *vm.SnapReader) error {
	n := r.Count("applied ranges")
	s.r = make([]opRange, 0, n)
	next := uint64(0)
	for i := 0; i < n; i++ {
		lo := next + r.U()
		hi := lo + r.U()
		// Each sum must not wrap, and only the last range may end so
		// high that no id is left for a successor.
		if lo < next || hi < lo || (i+1 < n && hi+2 < hi) {
			return fmt.Errorf("site: checkpoint: applied range %d overflows", i)
		}
		s.r = append(s.r, opRange{lo, hi})
		next = hi + 2
	}
	return r.Err()
}
