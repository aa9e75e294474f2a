package site

import (
	"time"

	"repro/internal/telemetry"
)

// The introspection probe: the run loop mirrors its scheduler state
// into atomics once per turn (probeTick), so the node's /statusz
// handler and stall detector can sample a site from outside its
// goroutine without locks on the message path. Everything here is
// gated on Config.Probe — an unprobed site pays one boolean test per
// scheduler turn.

// probeTick refreshes the mirrors at the top of each run-loop turn.
// It runs on the site goroutine, so reading the loop-private maps and
// counters is safe; the atomics publish them.
func (s *Site) probeTick() {
	if !s.cfg.Probe {
		return
	}
	now := time.Now().UnixNano()
	s.stLoop.Store(now)
	s.stParked.Store(0)
	s.stRunq.Store(int64(s.m.QueueLen()))
	s.stWaiting.Store(int64(len(s.waiting)))
	s.stFetches.Store(int64(len(s.pendingFetch)))
	// Wait-span starts: stamp when a wait appears, clear when it drains.
	// CompareAndSwap keeps the original start through consecutive turns,
	// so the age measures the oldest continuous wait, not the last turn.
	if len(s.waiting) > 0 {
		s.stImportWait.CompareAndSwap(0, now)
	} else {
		s.stImportWait.Store(0)
	}
	if len(s.pendingFetch) > 0 {
		s.stFetchWait.CompareAndSwap(0, now)
	} else {
		s.stFetchWait.Store(0)
	}
	s.stDup.Store(s.DupDrops)
	s.stStale.Store(s.StaleDrops)
	s.stCkpt.Store(s.Checkpoints)
	s.stSince.Store(int64(s.sinceCkpt))
}

// probePark marks the site blocked waiting for input (true) or
// running again (false). Every successful enqueue clears the mark
// (noteInput) before the wake queues the site to a worker, so
// ParkedMs > 0 always means "no input". A site with input queued
// therefore always reads ParkedMs == 0, and if its loop stamp also
// stops advancing the inbox stall heuristic flags it — which covers a
// wedged scheduler (queued but never run) as well as a wedged turn.
func (s *Site) probePark(parked bool) {
	if !s.cfg.Probe {
		return
	}
	if parked {
		s.stParked.Store(time.Now().UnixNano())
	} else {
		s.stParked.Store(0)
	}
}

// ageMs converts a mirror's start stamp to an age; 0 means no span.
func ageMs(now, at int64) int64 {
	if at == 0 {
		return 0
	}
	if ms := (now - at) / int64(time.Millisecond); ms > 0 {
		return ms
	}
	return 0
}

// Status samples the site's introspection state. Safe from any
// goroutine; meaningful when the site runs with Config.Probe on (an
// unprobed site reports identity, queue depth, and counters, but zero
// ages). The run loop never blocks on a Status call.
func (s *Site) Status() telemetry.SiteStatus {
	now := time.Now().UnixNano()
	st := telemetry.SiteStatus{
		Name:            s.cfg.Name,
		ID:              s.cfg.ID,
		Epoch:           s.cfg.Epoch,
		Idle:            s.idle.Load(),
		RunQueue:        int(s.stRunq.Load()),
		Inbox:           s.in.len(),
		ParkedMs:        ageMs(now, s.stParked.Load()),
		LoopAgeMs:       ageMs(now, s.stLoop.Load()),
		WaitingImports:  int(s.stWaiting.Load()),
		ImportWaitMs:    ageMs(now, s.stImportWait.Load()),
		PendingFetches:  int(s.stFetches.Load()),
		FetchWaitMs:     ageMs(now, s.stFetchWait.Load()),
		Exports:         s.ExportTableSize(),
		Sent:            s.ctrlSent.Load(),
		Recv:            s.ctrlRecv.Load(),
		Checkpoints:     s.stCkpt.Load(),
		SinceCheckpoint: int(s.stSince.Load()),
		DupDrops:        s.stDup.Load(),
		StaleDrops:      s.stStale.Load(),
	}
	if s.jl != nil {
		st.JournalAppends = s.jl.Appends()
	}
	if le, ok := s.leaseErr.Load().(string); ok {
		st.LeaseError = le
	}
	if err := s.Err(); err != nil {
		st.Error = err.Error()
	}
	return st
}
