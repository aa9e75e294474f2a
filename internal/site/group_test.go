package site_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/site"
	"repro/internal/testutil"
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

// sinkRun is what one journaled run of a sink site left behind.
type sinkRun struct {
	recs         []journal.Record // logical records past the program and epoch
	storeAppends int              // store appends past the program and epoch
	counted      uint64           // records Journal.Appends counted meanwhile
	hooked       int              // records the append hook saw meanwhile
	err          error            // the site's error
}

// runSink serves ds at a journaled site whose exported p only queues
// what arrives (the machine never runs, so every record carries the
// same context-switch stamp however the deliveries are turned). With
// perTurn each delivery is served in its own turn; otherwise all of them
// are queued and drained together, and the first turn must make exactly
// one store append.
func runSink(t *testing.T, ds func(p uint32) []site.Delivery, perTurn bool) sinkRun {
	t.Helper()
	st, err := journal.NewMemFactory().Open("sink")
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingStore{Store: st}
	jl := site.NewJournal(cs)
	hooked := 0
	jl.SetOnAppend(func(recs int) { hooked += recs })
	s, p := turnSite(t, "sink", appletClientSrc, "p", site.Config{Journal: jl, CheckpointEvery: 1 << 30})
	setup, err := jl.Records()
	if err != nil {
		t.Fatal(err)
	}
	appends, counted, hookedBefore := cs.appends, jl.Appends(), hooked
	if perTurn {
		for _, d := range ds(p) {
			if s.Err() != nil {
				break
			}
			serve(t, s, d)
		}
	} else {
		queued := ds(p)
		for _, d := range queued {
			if ok, err := s.TryDeliver(d); !ok || err != nil {
				t.Fatalf("delivery refused: %v %v", ok, err)
			}
		}
		r := s.Turn()
		if got := cs.appends - appends; got != 1 {
			t.Fatalf("one turn over %d queued deliveries made %d store appends, want 1", len(queued), got)
		}
		for r == site.TurnMore {
			r = s.Turn()
		}
	}
	recs, err := jl.Records()
	if err != nil {
		t.Fatal(err)
	}
	return sinkRun{
		recs:         recs[len(setup):],
		storeAppends: cs.appends - appends,
		counted:      jl.Appends() - counted,
		hooked:       hooked - hookedBefore,
		err:          s.Err(),
	}
}

func calls(n int) func(p uint32) []site.Delivery {
	return func(p uint32) []site.Delivery {
		ds := make([]site.Delivery, n)
		for i := range ds {
			ds[i] = call(p, i)
		}
		return ds
	}
}

// sameRecords fails unless got and want are the same records, byte for
// byte.
func sameRecords(t *testing.T, got, want []journal.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d diverges: {%d %x}, want {%d %x}", i, got[i].Kind, got[i].Data, want[i].Kind, want[i].Data)
		}
	}
}

// TestGroupCommitOneAppendPerTurn: 64 queued calls drained by one turn
// reach the store as one append, and the journal reads back the same 64
// records, in the same order, that serving each call in its own turn
// writes with 64 appends. Both counters still count records.
func TestGroupCommitOneAppendPerTurn(t *testing.T) {
	const burst = 64
	one := runSink(t, calls(burst), true)
	grouped := runSink(t, calls(burst), false)
	if one.storeAppends != burst {
		t.Fatalf("a turn per call made %d store appends, want %d", one.storeAppends, burst)
	}
	if grouped.storeAppends != 1 {
		t.Fatalf("one turn made %d store appends, want 1", grouped.storeAppends)
	}
	sameRecords(t, grouped.recs, one.recs)
	for _, r := range []sinkRun{one, grouped} {
		if r.counted != burst || r.hooked != burst {
			t.Errorf("Appends counted %d records and the hook %d, want %d", r.counted, r.hooked, burst)
		}
		if r.err != nil {
			t.Fatal(r.err)
		}
	}
}

// TestGroupCommitKeepsRecordsUpToFailedApply: a turn stopped by a
// failed apply at delivery k leaves records 1..k in the log — the ones
// a record-per-delivery journal held — and nothing after them.
func TestGroupCommitKeepsRecordsUpToFailedApply(t *testing.T) {
	const k, total = 10, 20
	ds := func(p uint32) []site.Delivery {
		ds := calls(total)(p)
		ds[k-1].Msg.Heap = 999 // never exported: the apply fails
		return ds
	}
	one := runSink(t, ds, true)
	grouped := runSink(t, ds, false)
	for _, r := range []sinkRun{one, grouped} {
		if r.err == nil || !strings.Contains(r.err.Error(), "unknown heap id") {
			t.Fatalf("site error %v, want the failed apply", r.err)
		}
	}
	if len(one.recs) != k {
		t.Fatalf("a turn per call left %d records, want %d", len(one.recs), k)
	}
	sameRecords(t, grouped.recs, one.recs)
}

// TestGroupCommitBurstAllocBudget: a journaled burst drained in one
// turn costs what serving it unjournaled does (TestTurnAllocBudget's 3
// per call) plus one store copy for the whole group — where a record
// per delivery cost a copy each.
func TestGroupCommitBurstAllocBudget(t *testing.T) {
	st, err := journal.NewMemFactory().Open("server")
	if err != nil {
		t.Fatal(err)
	}
	const burst, runs = 64, 50
	s, heap := journaledRPCServer(t, st, 1<<30) // no checkpoint inside the measurement
	ds := make([]site.Delivery, (runs+1)*burst)
	for i := range ds {
		ds[i] = call(heap, i)
	}
	i := 0
	testutil.CheckAllocs(t, "journaled burst of 64 calls in one turn", 3*burst+1, runs, func() {
		for range burst {
			if ok, err := s.TryDeliver(ds[i]); !ok || err != nil {
				t.Fatalf("delivery refused: %v %v", ok, err)
			}
			i++
		}
		for s.Turn() == site.TurnMore {
		}
	})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupAddAcceptedFraming: AddAccepted frames a record straight into
// the group, sizing it ahead; across uvarint width boundaries of the
// source node and the payload length it must read back as the record
// EncodeAccepted builds.
func TestGroupAddAcceptedFraming(t *testing.T) {
	st, err := journal.NewMemFactory().Open("accepted")
	if err != nil {
		t.Fatal(err)
	}
	jl := site.NewJournal(st)
	var g site.Group
	var want []journal.Record
	for _, src := range []uint32{0, 127, 128, 1 << 31} {
		for _, n := range []int{0, 1, 118, 119, 120, 121, 122, 123, 124, 125, 126, 127, 128, 16370, 16500} {
			payload := bytes.Repeat([]byte{byte(n)}, n)
			g.AddAccepted(wire.FMsg, src, payload)
			want = append(want, journal.Record{Kind: site.RecAccepted, Data: site.EncodeAccepted(wire.FMsg, src, payload)})
		}
	}
	if err := jl.Commit(&g); err != nil {
		t.Fatal(err)
	}
	got, err := jl.Records()
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, want)
}

// FuzzLoadJournal feeds LoadJournal arbitrary record lists, read from
// the input as a file store would read its log: malformed RecGroup
// bodies included, they must parse or fail with an error, never panic,
// and no group survives flattening.
func FuzzLoadJournal(f *testing.F) {
	st, err := journal.NewMemFactory().Open("sink")
	if err != nil {
		f.Fatal(err)
	}
	jl := site.NewJournal(st)
	s, p := turnSite(f, "sink", appletClientSrc, "p", site.Config{Journal: jl, CheckpointEvery: 1 << 30})
	for i := range 3 {
		if ok, err := s.TryDeliver(call(p, i)); !ok || err != nil {
			f.Fatalf("delivery refused: %v %v", ok, err)
		}
	}
	for s.Turn() == site.TurnMore {
	}
	var g site.Group
	g.AddAccepted(wire.FMsg, 2, []byte("payload"))
	g.AddAccepted(wire.FObj, 2, nil)
	if err := jl.Commit(&g); err != nil {
		f.Fatal(err)
	}
	raw, err := st.Records()
	if err != nil {
		f.Fatal(err)
	}
	var image []byte
	for _, rec := range raw {
		image = journal.AppendFramed(image, rec)
	}
	f.Add(image)
	group := func(body ...byte) []byte {
		return journal.AppendFramed(nil, journal.Record{Kind: site.RecGroup, Data: body})
	}
	f.Add(append(append([]byte{}, image...), group(byte(site.RecDelivery), 200, 1, 'x')...)) // torn inside
	f.Add(group(byte(site.RecGroup), 2, byte(site.RecEpoch), 0))                             // nested
	f.Add(group())                                                                           // empty
	f.Add(group(99, 0, byte(site.RecEpoch), 1, 1))                                           // unknown kind

	f.Fuzz(func(t *testing.T, image []byte) {
		st, err := journal.NewMemFactory().Open("fuzz")
		if err != nil {
			t.Fatal(err)
		}
		for data := image; ; {
			rec, rest, ok := journal.NextFramed(data)
			if !ok {
				break
			}
			if err := st.Append(rec); err != nil {
				t.Fatal(err)
			}
			data = rest
		}
		jl := site.NewJournal(st)
		recs, err := jl.Records()
		if _, lerr := site.LoadJournal(jl); err != nil && lerr == nil {
			t.Fatalf("LoadJournal accepted a log Records refuses: %v", err)
		}
		for i, rec := range recs {
			if rec.Kind == site.RecGroup {
				t.Fatalf("record %d is still a group after flattening", i)
			}
		}
	})
}

// TestFileStoreDropsTornGroup: a crash that tears a group's one write
// loses the whole group and nothing before it.
func TestFileStoreDropsTornGroup(t *testing.T) {
	dir := t.TempDir()
	f, err := journal.NewFileFactory(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := f.Open("torn")
	if err != nil {
		t.Fatal(err)
	}
	jl := site.NewJournal(st)
	if err := jl.Append(site.RecEpoch, site.EncodeEpoch(1)); err != nil {
		t.Fatal(err)
	}
	var g site.Group
	for i := range 3 {
		g.AddAccepted(wire.FMsg, 2, []byte{byte(i)})
	}
	if err := jl.Commit(&g); err != nil {
		t.Fatal(err)
	}
	intact, err := jl.Records()
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		g.AddAccepted(wire.FMsg, 2, []byte{byte(10 + i)})
	}
	if err := jl.Commit(&g); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	// The crash: the last group's write reached the file only in part.
	path := filepath.Join(dir, "torn.wal")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	st2, err := f.Open("torn")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, err := site.NewJournal(st2).Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(intact) != 4 {
		t.Fatalf("%d records before the torn group, want 4", len(intact))
	}
	sameRecords(t, got, intact)
}
