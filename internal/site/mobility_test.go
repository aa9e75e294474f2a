package site_test

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/nameservice"
	"repro/internal/node"
	"repro/internal/site"
	"repro/internal/testutil"
	"repro/internal/vm"
	"repro/internal/wire"
)

// loopRouter connects sites directly (an in-package stand-in for the
// node's TyCOd), exercising the full egress → ingress path including
// extraction and linking.
type loopRouter struct {
	sites map[uint32]*site.Site
}

func (l *loopRouter) add(s *site.Site) { l.sites[s.ID()] = s }

func (l *loopRouter) RouteMsg(from *site.Site, op wire.OpRef, ref vm.NetRef, label string, args []site.WireVal) error {
	dst := l.sites[ref.Site]
	args = slices.Clone(args) // valid only during the call
	return dst.Deliver(site.Delivery{Op: op, Msg: &site.MsgDelivery{Heap: ref.Heap, Label: label, Args: args}})
}
func (l *loopRouter) RouteObj(from *site.Site, op wire.OpRef, ref vm.NetRef, unit *asm.Unit, table int, frame []site.WireVal) error {
	dst := l.sites[ref.Site]
	return dst.Deliver(site.Delivery{Op: op, Obj: &site.ObjDelivery{Heap: ref.Heap, Unit: unit, Table: table, Frame: frame}})
}
func (l *loopRouter) RouteFetch(from *site.Site, op wire.OpRef, owner site.Addr, class string, reqID uint64) error {
	dst := l.sites[owner.Site]
	return dst.Deliver(site.Delivery{Op: op, Fetch: &site.FetchDelivery{Class: class, ReqID: reqID, Reply: from.Addr()}})
}
func (l *loopRouter) RouteFetchRep(from *site.Site, op wire.OpRef, to site.Addr, rep *site.FetchRepDelivery) error {
	dst := l.sites[to.Site]
	return dst.Deliver(site.Delivery{Op: op, FetchRep: rep})
}

// twoSites stands up a connected pair running the given programs.
func twoSites(t *testing.T, srcA, srcB string) (*site.Site, *site.Site, *testutil.Buf, *testutil.Buf, func()) {
	t.Helper()
	ns := nameservice.NewCentral()
	router := &loopRouter{sites: map[uint32]*site.Site{}}
	outA, outB := &testutil.Buf{}, &testutil.Buf{}
	mk := func(name string, id uint32, src string, out *testutil.Buf) *site.Site {
		prog, err := node.CompileSubmission(name, src)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		s := site.New(site.Config{Name: name, ID: id, NodeID: 1, NS: ns, Router: router, Out: out,
			ImportTimeout: 10 * time.Second})
		router.add(s)
		if err := s.Load(prog); err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := mk("alpha", 1, srcA, outA)
	b := mk("beta", 2, srcB, outB)
	go a.Run()
	go b.Run()
	cleanup := func() {
		a.Stop()
		b.Stop()
		<-a.Done()
		<-b.Done()
		if a.Err() != nil {
			t.Errorf("site alpha: %v", a.Err())
		}
		if b.Err() != nil {
			t.Errorf("site beta: %v", b.Err())
		}
	}
	return a, b, outA, outB, cleanup
}

func TestMobilityRemoteMessage(t *testing.T) {
	_, _, outA, _, cleanup := twoSites(t,
		`export new box (box?(v) = println("box", v))`,
		`import box from alpha in box![11]`)
	defer cleanup()
	waitSite(t, func() bool { return outA.String() == "box 11\n" })
}

func TestMobilityObjectShipsWithState(t *testing.T) {
	// The shipped object captures both a data value and a channel of
	// its home site; after migration the channel reference must still
	// point home (σ-translation round trip).
	_, _, outA, outB, cleanup := twoSites(t, `
new home (
  (home?(v) = println("home heard", v)) |
  def Server(self) =
    self ? { get(p) = (p?(x) = (println("applet at client", x) | home![x])) | Server[self] }
  in export new svc Server[svc]
)`, `
import svc from alpha in
new p (svc!get[p] | p![5])`)
	defer cleanup()
	// The applet's print happens at beta (code moved), but its
	// message to home lands at alpha (reference preserved).
	waitSite(t, func() bool {
		return strings.Contains(outB.String(), "applet at client 5") &&
			strings.Contains(outA.String(), "home heard 5")
	})
}

func TestMobilityFetchClassWithCapturedChannel(t *testing.T) {
	// SETI pattern at the site level: the fetched class's free name is
	// a channel of the exporting site.
	_, _, outA, outB, cleanup := twoSites(t, `
new db (
  def Pump(self, n) = self?{ next(r) = r![n] | Pump[self, n + 10] }
  in Pump[db, 100] |
  export def Work(r) = let v = db!next[] in (println("worked", v) | r![v])
  in inaction
)`, `
import Work from alpha in
new done (Work[done] | done?(v) = println("client got", v))`)
	defer cleanup()
	waitSite(t, func() bool {
		return strings.Contains(outB.String(), "worked 100") &&
			strings.Contains(outB.String(), "client got 100")
	})
	_ = outA
}

func TestMobilityClassValueTravelsInsideObjectFrame(t *testing.T) {
	// An object whose frame captures a class closure migrates; the
	// class's code (its def group) must travel and instantiate at the
	// destination.
	_, _, _, outB, cleanup := twoSites(t, `
def Greet(who) = println("hi", who)
in def Server(self) =
  self ? { get(p) = (p?(x) = Greet[x]) | Server[self] }
in export new svc Server[svc]`, `
import svc from alpha in
new p (svc!get[p] | p!["beta"])`)
	defer cleanup()
	waitSite(t, func() bool { return outB.String() == "hi beta\n" })
}

func TestMobilityFetchCacheHits(t *testing.T) {
	_, b, _, outB, cleanup := twoSites(t,
		`export def A(r) = r![1] in inaction`, `
import A from alpha in
def Use(k) = if k == 0 then println("done")
             else new r (A[r] | r?(v) = Use[k - 1])
in Use[5]`)
	defer cleanup()
	waitSite(t, func() bool { return outB.String() == "done\n" })
	if b.ClassesFetched != 1 {
		t.Fatalf("fetched %d times", b.ClassesFetched)
	}
	if b.FetchCacheHits != 4 {
		t.Fatalf("cache hits = %d, want 4", b.FetchCacheHits)
	}
}

func TestMobilityBidirectional(t *testing.T) {
	// Both sites export and import from each other (a dependency
	// cycle resolved by parked imports).
	_, _, outA, outB, cleanup := twoSites(t, `
export new ping (
  import pong from beta in
  ping?(v) = (println("alpha", v) | pong![v + 1])
)`, `
export new pong (
  import ping from alpha in
  (pong?(v) = println("beta", v)) | ping![1]
)`)
	defer cleanup()
	waitSite(t, func() bool {
		return outA.String() == "alpha 1\n" && outB.String() == "beta 2\n"
	})
}

func TestMobilityFetchUnknownClassFaults(t *testing.T) {
	ns := nameservice.NewCentral()
	router := &loopRouter{sites: map[uint32]*site.Site{}}
	progA, err := node.CompileSubmission("alpha", `inaction`)
	if err != nil {
		t.Fatal(err)
	}
	a := site.New(site.Config{Name: "alpha", ID: 1, NodeID: 1, NS: ns, Router: router})
	router.add(a)
	if err := a.Load(progA); err != nil {
		t.Fatal(err)
	}
	go a.Run()
	defer func() { a.Stop(); <-a.Done() }()
	// Forge a class registration that the site never made, then
	// import it: the fetch must fail cleanly at the requester.
	if err := ns.RegisterClass(context.Background(), "alpha", "Ghost", ""); err != nil {
		t.Fatal(err)
	}
	progB, err := node.CompileSubmission("beta", `import Ghost from alpha in Ghost[]`)
	if err != nil {
		t.Fatal(err)
	}
	b := site.New(site.Config{Name: "beta", ID: 2, NodeID: 1, NS: ns, Router: router})
	router.add(b)
	if err := b.Load(progB); err != nil {
		t.Fatal(err)
	}
	go b.Run()
	defer func() { b.Stop(); <-b.Done() }()
	waitSite(t, func() bool { return b.Err() != nil })
	if !strings.Contains(b.Err().Error(), "exports no class") {
		t.Fatalf("err = %v", b.Err())
	}
}
