package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a few cores of a shared host whose speed is not
// constant: for spells that last from seconds to minutes a neighbour
// slows every workload, CPU time per op included, by a quarter or more
// (see README, "Host speed"). A spell outlasts a run, so no statistic
// over one run's windows sees past it. A fixed reference kernel that
// shares no code with the program under test therefore runs between
// the windows and set-ups of a run, and each one's timings are reported
// at the speed the kernel had on the calm build host: a time is
// multiplied and a rate divided by speed = refNominal / (the kernel's
// time just before and just after, averaged).
//
// The kernel is random read-modify-writes over two tables per P, on
// every P at once, as the workloads use every P: one table a
// last-level cache holds and one it does not once neighbours fill it.
// Of the kernels tried (register-only, 256 KiB, 4 MiB, 64 MiB, timed by
// wall clock and by CPU), the sum of these two followed the workloads'
// slowdowns most closely. The tables are mapped outside the Go heap,
// so they move neither the garbage collector's pace nor peak_heap_mb.
const (
	refSmallWords = 1 << 19 // 4 MiB
	refLargeWords = 1 << 23 // 64 MiB
	refSmallIters = 4_000_000
	refLargeIters = 1_200_000
	// refNominal is the kernel's thread time per P on the build host in
	// a calm spell. Only ratios of the reported timings matter to a
	// comparison; the constant keeps them readable as that host's times.
	refNominal = 59 * time.Millisecond
)

type refTables struct{ small, large []uint64 }

var refSink uint64

// hostTables maps and touches the tables, one pair per P, once.
var hostTables = sync.OnceValue(func() []refTables {
	tables := make([]refTables, runtime.GOMAXPROCS(0))
	for i := range tables {
		tables[i] = refTables{mapWords(refSmallWords), mapWords(refLargeWords)}
	}
	return tables
})

func mapWords(n int) []uint64 {
	b, err := syscall.Mmap(-1, 0, 8*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprint("benchmark: cannot map the reference kernel's table: ", err))
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	for i := 0; i < n; i += 512 {
		words[i] = 1 // fault every page in now, not inside a timing
	}
	return words
}

func refKernel(iters int, table []uint64) uint64 {
	x := uint64(88172645463325252)
	mask := uint64(len(table) - 1)
	var sum uint64
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&mask] += x
		sum += table[(x>>20)&mask]
	}
	return sum
}

// refTime runs the reference kernel and returns its thread time per P.
// Each P's goroutine times itself, so a late start on one P does not
// count.
func refTime() time.Duration {
	tables := hostTables()
	times := make([]time.Duration, len(tables))
	sums := make([]uint64, len(tables))
	var wg sync.WaitGroup
	for p := range tables {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			start := time.Now()
			sums[p] = refKernel(refSmallIters, tables[p].small) + refKernel(refLargeIters, tables[p].large)
			times[p] = time.Since(start)
		}(p)
	}
	wg.Wait()
	var total time.Duration
	for p := range times {
		total += times[p]
		refSink += sums[p]
	}
	return total / time.Duration(len(tables))
}

// hostClock turns consecutive runs of the reference kernel into the
// host's speed over what ran between them. A nil clock reads 1 without
// running the kernel (warm-up windows, whose timings nobody reads).
type hostClock struct{ last time.Duration }

func newHostClock() *hostClock { return &hostClock{last: refTime()} }

// speed runs the kernel and returns the host's speed since the last
// call, relative to refNominal: below 1 while the host is slow.
func (h *hostClock) speed() float64 {
	if h == nil {
		return 1
	}
	before := h.last
	h.last = refTime()
	return hostSpeed(before, h.last)
}

func hostSpeed(before, after time.Duration) float64 {
	return 2 * float64(refNominal) / float64(before+after)
}
