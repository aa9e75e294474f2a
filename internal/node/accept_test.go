package node

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/journal"
	"repro/internal/site"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/wire"
)

// countingStore counts the appends that reach a store.
type countingStore struct {
	journal.Store
	appends int
}

func (c *countingStore) Append(rec journal.Record) error {
	c.appends++
	return c.Store.Append(rec)
}

// batchFrame builds the FBatch frame node 2 sends node 1 carrying one
// message to each of the given sites, in order.
func batchFrame(t *testing.T, sites ...uint32) []byte {
	t.Helper()
	b := wire.NewBatchBuilder()
	defer b.Release()
	for i, st := range sites {
		w := b.BeginEntry(wire.FMsg, 2, 1, 0, 0)
		(&wire.Msg{
			Op: wire.OpRef{Site: 2 << 16, Epoch: 1, ID: uint64(i + 1)}, To: vm.NetRef{Heap: 1, Site: st, Node: 1},
			Label: "val", Args: []wire.Value{{Kind: wire.WInt, I: int64(i)}},
		}).AppendPayload(w)
		b.EndEntry()
	}
	return b.TakeFrame()
}

// TestAcceptBatchOneAppendPerSite: an accepted batch reaches each
// destination site's store as one append holding that site's envelopes
// in frame order, the record counters still count envelopes, and an
// envelope for a site with no open journal refuses the whole frame
// before anything is journaled.
func TestAcceptBatchOneAppendPerSite(t *testing.T) {
	const a, b, closed = 1<<16 | 1, 1<<16 | 2, 1<<16 | 3
	n := &Node{cfg: Config{ID: 1}, tel: telemetry.New(1, telemetry.Config{})}
	stores := map[uint32]*countingStore{}
	journals := map[uint32]*site.Journal{}
	for _, id := range []uint32{a, b} {
		st, err := journal.NewMemFactory().Open("s")
		if err != nil {
			t.Fatal(err)
		}
		stores[id] = &countingStore{Store: st}
		journals[id] = site.NewJournal(stores[id])
		journals[id].SetOnAppend(n.tel.JournalAppend)
		n.dir.store(id, &siteEntry{journal: journals[id]})
	}
	n.dir.store(closed, &siteEntry{}) // registered, journal not open

	// accept runs one frame through the hook and checks what each
	// site's journal gained: how many store appends, and which of the
	// frame's envelopes, in order, its new records hold.
	accept := func(frame []byte, wantErr bool, want map[uint32][]int) {
		t.Helper()
		envs, err := wire.DecodeBatch(frame)
		if err != nil {
			t.Fatal(err)
		}
		before := map[uint32]int{}
		appends := map[uint32]int{}
		for id, jl := range journals {
			recs, err := jl.Records()
			if err != nil {
				t.Fatal(err)
			}
			before[id], appends[id] = len(recs), stores[id].appends
		}
		if err := n.acceptFrame(2, frame); (err != nil) != wantErr {
			t.Fatalf("acceptFrame: %v, want error %v", err, wantErr)
		}
		for id, jl := range journals {
			recs, err := jl.Records()
			if err != nil {
				t.Fatal(err)
			}
			recs = recs[before[id]:]
			if len(recs) != len(want[id]) {
				t.Fatalf("site %#x journaled %d records, want %d", id, len(recs), len(want[id]))
			}
			wantAppends := 0
			if len(recs) > 0 {
				wantAppends = 1
			}
			if got := stores[id].appends - appends[id]; got != wantAppends {
				t.Fatalf("site %#x: %d store appends, want %d", id, got, wantAppends)
			}
			for i, e := range want[id] {
				if w := site.EncodeAccepted(envs[e].Type, envs[e].SrcNode, envs[e].Payload); recs[i].Kind != site.RecAccepted || !bytes.Equal(recs[i].Data, w) {
					t.Fatalf("site %#x record %d is not envelope %d", id, i, e)
				}
			}
		}
	}

	accept(batchFrame(t, a, a, a, a, a, a, a, a), false, map[uint32][]int{a: {0, 1, 2, 3, 4, 5, 6, 7}})
	accept(batchFrame(t, a, b, a, b, a), false, map[uint32][]int{a: {0, 2, 4}, b: {1, 3}})
	accept(batchFrame(t, a, b, closed, a), true, nil)

	if got := journals[a].Appends() + journals[b].Appends(); got != 13 {
		t.Errorf("Journal.Appends counted %d records, want 13", got)
	}
	if got := n.tel.Snapshot().Metrics["journal.appends"]; got != 13 {
		t.Errorf("telemetry journal.appends = %v, want 13", got)
	}

	// Accept hooks running at once share the node's staging: each frame
	// still lands whole, one append per site.
	const callers, frames = 4, 50
	frame := batchFrame(t, a, b, a)
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range frames {
				if err := n.acceptFrame(2, frame); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for id, want := range map[uint32]uint64{a: 11 + 2*callers*frames, b: 2 + callers*frames} {
		if got := journals[id].Appends(); got != want {
			t.Errorf("site %#x: %d records after concurrent accepts, want %d", id, got, want)
		}
	}
}
