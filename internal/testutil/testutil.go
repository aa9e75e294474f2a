// Package testutil holds small helpers shared by the test suites.
package testutil

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// Buf is a goroutine-safe output buffer: sites write to it from their
// own goroutines while tests poll String.
type Buf struct {
	mu sync.Mutex
	b  []byte
}

// Write implements io.Writer.
func (s *Buf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.b = append(s.b, p...)
	return len(p), nil
}

// String snapshots the contents.
func (s *Buf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return string(s.b)
}

// Len reports the current size.
func (s *Buf) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.b)
}

// Eventually polls cond until it holds or the deadline passes.
func Eventually(cond func() bool, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// CheckAllocs fails t when f allocates more than budget heap objects
// per call (testing.AllocsPerRun over runs calls). The race detector
// changes what allocates (sync.Pool drops items at random), so under
// it the budget is not checked.
func CheckAllocs(t *testing.T, what string, budget float64, runs int, f func()) {
	t.Helper()
	if Race {
		f()
		return
	}
	if got := testing.AllocsPerRun(runs, f); got > budget {
		t.Errorf("%s: %v allocations per run, budget %v", what, got, budget)
	}
}

// AllocBytes reports how many heap bytes f allocates (the growth of
// runtime.MemStats.TotalAlloc across the call). Like
// testing.AllocsPerRun it pins GOMAXPROCS to 1 meanwhile, so other
// goroutines add little to the count.
func AllocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
