package site_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/journal"
	"repro/internal/nameservice"
	"repro/internal/node"
	"repro/internal/site"
	"repro/internal/testutil"
	"repro/internal/vm"
	"repro/internal/wire"
)

// fakeRouter records outgoing traffic without delivering it.
type fakeRouter struct {
	mu      sync.Mutex
	msgs    []string
	fetches []string
}

func (f *fakeRouter) nMsgs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.msgs)
}

func (f *fakeRouter) nFetches() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.fetches)
}

func (f *fakeRouter) RouteMsg(from *site.Site, op wire.OpRef, ref vm.NetRef, label string, args []site.WireVal) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.msgs = append(f.msgs, label)
	return nil
}
func (f *fakeRouter) RouteObj(from *site.Site, op wire.OpRef, ref vm.NetRef, unit *asm.Unit, table int, frame []site.WireVal) error {
	return nil
}
func (f *fakeRouter) RouteFetch(from *site.Site, op wire.OpRef, owner site.Addr, class string, reqID uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fetches = append(f.fetches, class)
	return nil
}
func (f *fakeRouter) RouteFetchRep(from *site.Site, op wire.OpRef, to site.Addr, rep *site.FetchRepDelivery) error {
	return nil
}

func newSite(t *testing.T, name string, src string, out *testutil.Buf, router site.Router) *site.Site {
	t.Helper()
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	prog, err := node.CompileSubmission(name, src)
	if err != nil {
		t.Fatal(err)
	}
	s := site.New(site.Config{
		Name: name, ID: 1, NodeID: 1,
		NS: ns, Router: router, Out: out,
		ImportTimeout: 200 * time.Millisecond,
	})
	drive(t, s, prog)
	return s
}

// drive runs s on a goroutine of its own the way a node's scheduler
// does — turns back to back, parked on the wake callback while the
// site is idle — until it stops. The wake goes in before prog (nil for
// a restored site) is loaded: Load's import resolvers deliver at once.
func drive(tb testing.TB, s *site.Site, prog *site.Program) {
	tb.Helper()
	wake := make(chan struct{}, 1)
	s.SetWake(func() {
		select {
		case wake <- struct{}{}:
		default: // a pending wake already covers this one
		}
	})
	if prog != nil {
		if err := s.Load(prog); err != nil {
			tb.Fatal(err)
		}
	}
	go func() {
		for r := s.Turn(); r != site.TurnStopped; r = s.Turn() {
			if r == site.TurnIdle {
				<-wake
			}
		}
	}()
}

func waitSite(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatal("condition never became true")
		case <-time.After(time.Millisecond):
		}
	}
}

func TestSiteRunsLocalProgram(t *testing.T) {
	var out testutil.Buf
	s := newSite(t, "solo", `new x (x![4] | x?(v) = println(v * v))`, &out, &fakeRouter{})
	defer func() { s.Stop(); <-s.Done() }()
	waitSite(t, func() bool { return out.String() == "16\n" })
}

func TestSiteImportTimeoutSurfacesError(t *testing.T) {
	// Importing from a site that never registers: the resolution times
	// out and the site reports the failure.
	s := newSite(t, "orphan", `import ghost from nowhere in ghost![]`, &testutil.Buf{}, &fakeRouter{})
	defer func() { s.Stop(); <-s.Done() }()
	waitSite(t, func() bool { return s.Err() != nil })
	if !strings.Contains(s.Err().Error(), "import resolution") {
		t.Fatalf("err = %v", s.Err())
	}
}

func TestSiteRejectsUnknownHeapID(t *testing.T) {
	s := newSite(t, "strict", `inaction`, &testutil.Buf{}, &fakeRouter{})
	defer func() { <-s.Done() }()
	// A message for a heap id that was never exported is a protocol
	// violation and must fault the site (not crash the process).
	if err := s.Deliver(site.Delivery{Msg: &site.MsgDelivery{Heap: 999, Label: "x"}}); err != nil {
		t.Fatal(err)
	}
	waitSite(t, func() bool { return s.Err() != nil })
	if !strings.Contains(s.Err().Error(), "unknown heap id") {
		t.Fatalf("err = %v", s.Err())
	}
}

func TestSiteRejectsInvalidMobileCode(t *testing.T) {
	s := newSite(t, "careful", `export new p (p?(v) = inaction)`, &testutil.Buf{}, &fakeRouter{})
	defer func() { <-s.Done() }()
	// Wait for the export to register so heap id 1 exists.
	waitSite(t, func() bool { return s.ExportTableSize() > 0 })
	// A migrated object with structurally invalid code must be
	// rejected by the verifier.
	bad := &asm.Unit{Name: "evil", Entry: -1,
		Blocks: []asm.Block{{Name: "b", Code: []asm.Instr{{Op: asm.LdLoc, A: 999}}}},
		Tables: []asm.MethodTable{{Labels: []int{0}, Blocks: []int{0}}},
		Labels: []string{"val"}}
	if err := s.Deliver(site.Delivery{Obj: &site.ObjDelivery{Heap: 1, Code: asm.Encode(bad), Table: 0}}); err != nil {
		t.Fatal(err)
	}
	waitSite(t, func() bool { return s.Err() != nil })
	if !strings.Contains(s.Err().Error(), "rejecting mobile code") {
		t.Fatalf("err = %v", s.Err())
	}
}

func TestSiteExportTableGrowsOnEgress(t *testing.T) {
	fr := &fakeRouter{}
	// The client sends a locally created reply channel to a remote
	// ref: that channel must enter the export table.
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	if err := ns.RegisterSite(context.Background(), "far", 9, 9, 1); err != nil {
		t.Fatal(err)
	}
	if err := ns.RegisterName(context.Background(), "far", "svc", 1, ""); err != nil {
		t.Fatal(err)
	}
	prog, err := node.CompileSubmission("client", `
import svc from far in new r (svc!call[r])`)
	if err != nil {
		t.Fatal(err)
	}
	s := site.New(site.Config{Name: "client", ID: 1, NodeID: 1, NS: ns, Router: fr})
	drive(t, s, prog)
	defer func() { s.Stop(); <-s.Done() }()
	waitSite(t, func() bool { return fr.nMsgs() == 1 && s.ExportTableSize() == 1 })
}

func TestSiteFetchCoalescing(t *testing.T) {
	fr := &fakeRouter{}
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	if err := ns.RegisterSite(context.Background(), "lib", 9, 9, 1); err != nil {
		t.Fatal(err)
	}
	if err := ns.RegisterClass(context.Background(), "lib", "K", "class/1"); err != nil {
		t.Fatal(err)
	}
	prog, err := node.CompileSubmission("client", `
import K from lib in (K[1] | K[2] | K[3])`)
	if err != nil {
		t.Fatal(err)
	}
	s := site.New(site.Config{Name: "client", ID: 1, NodeID: 1, NS: ns, Router: fr})
	drive(t, s, prog)
	defer func() { s.Stop(); <-s.Done() }()
	// Three instantiations of the same remote class must coalesce
	// into one outstanding fetch.
	waitSite(t, func() bool { return fr.nFetches() >= 1 })
	time.Sleep(10 * time.Millisecond)
	if fr.nFetches() != 1 {
		t.Fatalf("fetches = %d (should coalesce)", fr.nFetches())
	}
}

func TestSiteDynamicClassArityCheck(t *testing.T) {
	fr := &fakeRouter{}
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	if err := ns.RegisterSite(context.Background(), "lib", 9, 9, 1); err != nil {
		t.Fatal(err)
	}
	// Exporter declares K with 2 parameters; the client instantiates
	// with 1 — the dynamic check must fault the client site.
	if err := ns.RegisterClass(context.Background(), "lib", "K", "class/2"); err != nil {
		t.Fatal(err)
	}
	prog, err := node.CompileSubmission("client", `import K from lib in K[1]`)
	if err != nil {
		t.Fatal(err)
	}
	s := site.New(site.Config{Name: "client", ID: 1, NodeID: 1, NS: ns, Router: fr})
	drive(t, s, prog)
	defer func() { s.Stop(); <-s.Done() }()
	waitSite(t, func() bool { return s.Err() != nil })
	if !strings.Contains(s.Err().Error(), "protocol error") {
		t.Fatalf("err = %v", s.Err())
	}
	if fr.nFetches() != 0 {
		t.Fatal("arity-mismatched instantiation still fetched code")
	}
}

func TestSiteStopIsIdempotent(t *testing.T) {
	s := newSite(t, "stopper", `inaction`, &testutil.Buf{}, &fakeRouter{})
	s.Stop()
	s.Stop()
	<-s.Done()
}

// rpcServer loads the one-integer call server into a site driven turn
// by turn (no driver goroutine) and returns it with the heap id of p.
func rpcServer(tb testing.TB) (*site.Site, uint32) {
	return journaledRPCServer(tb, nil, 0)
}

// journaledRPCServer is rpcServer writing ahead to st (nil = no
// journal) and checkpointing every ckptEvery deliveries.
func journaledRPCServer(tb testing.TB, st journal.Store, ckptEvery int) (*site.Site, uint32) {
	cfg := site.Config{CheckpointEvery: ckptEvery}
	if st != nil {
		cfg.Journal = site.NewJournal(st)
	}
	return turnSite(tb, "server", `
def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p])
in export new p Serve[p]`, "p", cfg)
}

// turnSite loads src into site 1 of a private name service, configured
// by cfg's journal, checkpoint and router fields (router default: a
// fakeRouter), and turns it until idle — no driver goroutine: the caller
// drives it with Turn. It returns the site and the heap id it exported
// name under.
func turnSite(tb testing.TB, siteName, src, name string, cfg site.Config) (*site.Site, uint32) {
	tb.Helper()
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	prog, err := node.CompileSubmission(siteName, src)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Name, cfg.ID, cfg.NodeID, cfg.NS = siteName, 1, 1, ns
	if cfg.Router == nil {
		cfg.Router = &fakeRouter{}
	}
	s := site.New(cfg)
	if err := s.Load(prog); err != nil {
		tb.Fatal(err)
	}
	for s.Turn() == site.TurnMore {
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ref, _, err := ns.LookupName(ctx, siteName, name)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Stop(); s.Turn() })
	return s, ref.Heap
}

// call builds the i-th one-integer call as a remote node delivers it.
func call(heap uint32, i int) site.Delivery {
	return site.Delivery{
		Src: 2,
		Op:  wire.OpRef{Site: 2, Epoch: 1, ID: uint64(i + 1)},
		Msg: &site.MsgDelivery{Heap: heap, Label: "val", Args: []wire.Value{
			{Kind: wire.WInt, I: int64(i)},
			{Kind: wire.WNet, Net: vm.NetRef{Heap: 9, Site: 2, Node: 2}},
		}},
	}
}

// serve delivers d and turns the site until it is idle again.
func serve(tb testing.TB, s *site.Site, d site.Delivery) {
	if ok, err := s.TryDeliver(d); !ok || err != nil {
		tb.Fatalf("delivery refused: %v %v", ok, err)
	}
	for s.Turn() == site.TurnMore {
	}
}

// TestTurnAllocBudget pins the cost of serving one remote call:
// ingress and the reply's egress go through the site's scratch
// buffers, so what allocates is the machine — the frame of the Serve
// instance, the frame of the server object it queues back at p (the
// next call's method body runs in it) and p's one-slot queue, dropped
// each time a call drains it.
func TestTurnAllocBudget(t *testing.T) {
	s, heap := rpcServer(t)
	const runs = 1000
	calls := make([]site.Delivery, runs+1) // AllocsPerRun adds a warm-up call
	for i := range calls {
		calls[i] = call(heap, i)
	}
	i := 0
	testutil.CheckAllocs(t, "TryDeliver + Turn of a one-integer call", 3, runs, func() {
		serve(t, s, calls[i])
		i++
	})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if got := s.Machine().Stats.RemoteSends; !testutil.Race && got != runs+1 {
		t.Fatalf("%d replies sent, want %d", got, runs+1)
	}
}

// TestJournaledTurnAllocBudget is TestTurnAllocBudget with a journal
// attached: the delivery record is built in the site's scratch
// writers, so write-ahead logging adds the store's own copy of the
// record and nothing else.
func TestJournaledTurnAllocBudget(t *testing.T) {
	st, err := journal.NewMemFactory().Open("server")
	if err != nil {
		t.Fatal(err)
	}
	const runs = 1000
	s, heap := journaledRPCServer(t, st, 10*runs) // no checkpoint inside the measurement
	calls := make([]site.Delivery, runs+1)
	for i := range calls {
		calls[i] = call(heap, i)
	}
	i := 0
	testutil.CheckAllocs(t, "journaled TryDeliver + Turn of a one-integer call", 4, runs, func() {
		serve(t, s, calls[i])
		i++
	})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	recs, err := st.Records()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(recs); !testutil.Race && got < runs {
		t.Fatalf("journal holds %d records after %d deliveries", got, runs)
	}
}

// wireCall is call(heap, i) as the TyCOd queues it: the message's
// payload bytes, which the site decodes when it applies them.
func wireCall(tb testing.TB, heap uint32, i int) site.Delivery {
	c := call(heap, i)
	m := wire.Msg{Op: c.Op, To: vm.NetRef{Heap: heap, Site: 1, Node: 1}, Label: c.Msg.Label, Args: c.Msg.Args}
	d, _, err := site.PayloadDelivery(wire.FMsg, c.Src, m.Encode())
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestWireTurnAllocBudget is TestTurnAllocBudget and
// TestJournaledTurnAllocBudget for a call in the form a remote node
// queues it. The site decodes the payload into its scratch and looks
// the label up by its bytes, and a journaled delivery's record body is
// the payload as it arrived, so the bytes cost no more than the struct
// form: 3 allocations, 4 with a journal.
func TestWireTurnAllocBudget(t *testing.T) {
	const runs = 1000
	st, err := journal.NewMemFactory().Open("server")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		st     journal.Store
		budget float64
	}{{"plain", nil, 3}, {"journaled", st, 4}} {
		t.Run(c.name, func(t *testing.T) {
			s, heap := journaledRPCServer(t, c.st, 10*runs) // no checkpoint inside the measurement
			calls := make([]site.Delivery, runs+1)          // AllocsPerRun adds a warm-up call
			for i := range calls {
				calls[i] = wireCall(t, heap, i)
			}
			i := 0
			testutil.CheckAllocs(t, c.name+" TryDeliver + Turn of a one-integer call's payload", c.budget, runs, func() {
				serve(t, s, calls[i])
				i++
			})
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
			if got := s.Machine().Stats.RemoteSends; !testutil.Race && got != runs+1 {
				t.Fatalf("%d replies sent, want %d", got, runs+1)
			}
		})
	}
}

// TestPayloadFrameRetention: a queued payload delivery keeps the whole
// frame it sub-slices alive until the site applies it, and no longer.
// A full inbox of deliveries, each from its own frame at the
// coalescer's default MaxBytes, pins InboxCap such frames and nothing
// more: the per-site bound DESIGN.md §15 states. Neither the
// popped inbox slots nor the site's decode scratch may pin a frame, so
// once drained the site holds less than one (less than half of one, in
// fact: a single pinned frame reads as a whole).
func TestPayloadFrameRetention(t *testing.T) {
	if testutil.Race {
		t.Skip("the race detector changes what the heap holds")
	}
	s, heap := turnSite(t, "server", `
def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p])
in export new p Serve[p]`, "p", site.Config{Router: &shipRouter{}})
	const frameSize = 32 << 10 // the default MaxBytes, headroom included
	next := 0
	fill := func(frameSize int) {
		for range site.InboxCap {
			d := wireCall(t, heap, next)
			next++
			frame := make([]byte, max(frameSize, len(d.Payload)))
			d.Payload = frame[:copy(frame, d.Payload)]
			if ok, err := s.TryDeliver(d); !ok || err != nil {
				t.Fatalf("delivery refused: %v %v", ok, err)
			}
		}
	}
	drain := func() {
		for s.Turn() == site.TurnMore {
		}
	}
	heapNow := func() int64 {
		// Two collections: the first drops the pooled writers' victim cache.
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	fill(0) // grows the inbox ring and warms the scratch, with frames no larger than their payloads
	drain()
	before := heapNow()
	fill(frameSize)
	full := heapNow() - before
	drain()
	retained := heapNow() - before
	runtime.KeepAlive(s)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if got := s.Machine().Stats.RemoteSends; got != 2*site.InboxCap {
		t.Fatalf("%d replies sent, want %d", got, 2*site.InboxCap)
	}
	bound := int64(site.InboxCap * frameSize)
	t.Logf("full inbox pins %d B (bound %d B); %d B retained once drained", full, bound, retained)
	if full < bound*9/10 || full > bound+bound/20 {
		t.Fatalf("a full inbox of %d deliveries pins %d B, want about %d: each queued delivery pins its frame, and nothing more", site.InboxCap, full, bound)
	}
	if retained >= frameSize/2 { // one pinned frame reads as ≈ frameSize
		t.Fatalf("%d B retained after %d frames: a frame is still pinned", retained, site.InboxCap)
	}
}

func BenchmarkTurnDelivery(b *testing.B) {
	for _, leg := range []struct {
		name string
		make func(tb testing.TB, heap uint32, i int) site.Delivery
	}{
		{"struct", func(_ testing.TB, heap uint32, i int) site.Delivery { return call(heap, i) }},
		{"payload", wireCall},
	} {
		b.Run(leg.name, func(b *testing.B) {
			s, heap := rpcServer(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(b, s, leg.make(b, heap, i))
			}
			if err := s.Err(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// shipRouter drops what a site routes out, keeping the last object it
// shipped.
type shipRouter struct {
	unit  *asm.Unit
	table int
	frame []site.WireVal
}

func (r *shipRouter) RouteMsg(*site.Site, wire.OpRef, vm.NetRef, string, []site.WireVal) error {
	return nil
}
func (r *shipRouter) RouteObj(_ *site.Site, _ wire.OpRef, _ vm.NetRef, unit *asm.Unit, table int, frame []site.WireVal) error {
	r.unit, r.table, r.frame = unit, table, frame
	return nil
}
func (r *shipRouter) RouteFetch(*site.Site, wire.OpRef, site.Addr, string, uint64) error { return nil }
func (r *shipRouter) RouteFetchRep(*site.Site, wire.OpRef, site.Addr, *site.FetchRepDelivery) error {
	return nil
}

// shippedApplet returns what an applet server ships for one get: an
// object whose single method sums terms constants into its reply, about
// two instructions per term.
func shippedApplet(tb testing.TB, terms int) *shipRouter {
	tb.Helper()
	var body strings.Builder
	body.WriteString("r![n")
	for i := 0; i < terms; i++ {
		fmt.Fprintf(&body, " + %d", 1+i%9)
	}
	body.WriteString("]")
	r := &shipRouter{}
	s, heap := turnSite(tb, "applets", fmt.Sprintf(`
def AppletServer(self) = self ? { get(p) = (p?(n, r) = %s) | AppletServer[self] }
in export new appletserver AppletServer[appletserver]`, body.String()), "appletserver", site.Config{Router: r})
	serve(tb, s, site.Delivery{Src: 2, Op: wire.OpRef{Site: 2, Epoch: 1, ID: 1},
		Msg: &site.MsgDelivery{Heap: heap, Label: "get", Args: []wire.Value{{Kind: wire.WNet, Net: vm.NetRef{Heap: 9, Site: 2, Node: 2}}}}})
	if r.unit == nil {
		tb.Fatalf("applet server shipped nothing (site: %v)", s.Err())
	}
	return r
}

// appletClientSrc is a client whose exported channel p receives
// shipped applets.
const appletClientSrc = `export new p inaction`

// arrivals builds the first n uses of a shipped applet at a client, as
// a remote node delivers them: for each, the object lands on the
// client's channel p and one call runs it (the reply goes to a remote
// channel).
func arrivals(a *shipRouter, p uint32, n int) []site.Delivery {
	ds := make([]site.Delivery, 0, 2*n)
	for i := 0; i < n; i++ {
		ds = append(ds,
			site.Delivery{Src: 2, Op: wire.OpRef{Site: 2, Epoch: 1, ID: uint64(2*i + 1)},
				Obj: &site.ObjDelivery{Heap: p, Code: a.unit.Encoded, Table: a.table, Frame: a.frame}},
			site.Delivery{Src: 2, Op: wire.OpRef{Site: 2, Epoch: 1, ID: uint64(2*i + 2)},
				Msg: &site.MsgDelivery{Heap: p, Label: "val", Args: []wire.Value{
					{Kind: wire.WInt, I: int64(i)}, {Kind: wire.WNet, Net: vm.NetRef{Heap: 9, Site: 2, Node: 2}}}}})
	}
	return ds
}

// TestWarmArrivalCostIndependentOfCodeSize: once a client has linked an
// applet, a later arrival of it costs a lookup, not a decode and a link,
// so it allocates the same bytes whether the applet is 64 or 1024
// instructions long.
func TestWarmArrivalCostIndependentOfCodeSize(t *testing.T) {
	if testutil.Race {
		t.Skip("the race detector changes what allocates")
	}
	const warm = 200
	var perArrival []uint64
	for _, terms := range []int{31, 511} {
		a := shippedApplet(t, terms)
		u, err := asm.Decode(a.unit.Encoded)
		if err != nil {
			t.Fatal(err)
		}
		instrs := 0
		for _, b := range u.Blocks {
			instrs += len(b.Code)
		}
		c, p := turnSite(t, "client", appletClientSrc, "p", site.Config{Router: &shipRouter{}})
		ds := arrivals(a, p, warm+1)
		serve(t, c, ds[0]) // the cold arrival links
		serve(t, c, ds[1])
		n := testutil.AllocBytes(func() {
			for _, d := range ds[2:] {
				serve(t, c, d)
			}
		})
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		if c.UnitsLinked != 2 || c.LinkCacheHits != warm {
			t.Fatalf("%d-instruction applet: %d units linked, %d cache hits; want 2 and %d", instrs, c.UnitsLinked, c.LinkCacheHits, warm)
		}
		t.Logf("%d-instruction applet (%d bytes): %d bytes per warm arrival", instrs, len(a.unit.Encoded), n/warm)
		perArrival = append(perArrival, n/warm)
	}
	if small, big := perArrival[0], perArrival[1]; big > small+small/50 {
		t.Errorf("a warm arrival allocates %d bytes for the small applet, %d for the large one", small, big)
	}
}

// BenchmarkObjArrival times one warm arrival of a shipped applet at a
// client: the object delivery (a link-cache hit) and the call that runs
// it.
func BenchmarkObjArrival(b *testing.B) {
	a := shippedApplet(b, 31)
	c, p := turnSite(b, "client", appletClientSrc, "p", site.Config{Router: &shipRouter{}})
	ds := arrivals(a, p, b.N+1)
	serve(b, c, ds[0])
	serve(b, c, ds[1])
	b.ReportAllocs()
	b.ResetTimer()
	for _, d := range ds[2:] {
		serve(b, c, d)
	}
	if err := c.Err(); err != nil {
		b.Fatal(err)
	}
}
