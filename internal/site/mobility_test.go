package site_test

import (
	"context"
	"fmt"
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
	return dst.Deliver(site.Delivery{Op: op, Obj: &site.ObjDelivery{Heap: ref.Heap, Code: unit.Encoded, Table: table, Frame: frame}})
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
	ss, outs, cleanup := connectedSites(t, srcA, srcB)
	return ss[0], ss[1], outs[0], outs[1], cleanup
}

// connectedSites stands up sites alpha, beta, gamma (ids 1, 2, 3), as
// many as there are programs, connected by one loopRouter.
func connectedSites(t *testing.T, srcs ...string) ([]*site.Site, []*testutil.Buf, func()) {
	t.Helper()
	ns := nameservice.NewCentral()
	router := &loopRouter{sites: map[uint32]*site.Site{}}
	names := []string{"alpha", "beta", "gamma"}
	var ss []*site.Site
	var outs []*testutil.Buf
	for i, src := range srcs {
		prog, err := node.CompileSubmission(names[i], src)
		if err != nil {
			t.Fatalf("compile %s: %v", names[i], err)
		}
		out := &testutil.Buf{}
		s := site.New(site.Config{Name: names[i], ID: uint32(i + 1), NodeID: 1, NS: ns, Router: router, Out: out,
			ImportTimeout: 10 * time.Second})
		router.add(s)
		if err := s.Load(prog); err != nil {
			t.Fatal(err)
		}
		ss = append(ss, s)
		outs = append(outs, out)
	}
	for _, s := range ss {
		go s.Run()
	}
	cleanup := func() {
		for _, s := range ss {
			s.Stop()
		}
		for _, s := range ss {
			<-s.Done()
			if s.Err() != nil {
				t.Errorf("site %s: %v", s.Name(), s.Err())
			}
		}
	}
	return ss, outs, cleanup
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

// appletServerSrc ships an applet object on every get.
const appletServerSrc = `
def AppletServer(self) = self ? { get(p) = (p?(n, r) = r![n + 1]) | AppletServer[self] }
in export new appletserver AppletServer[appletserver]`

// TestMobilityShippedCodeLinksOnce: a client that receives the same
// applet n times decodes and links it once; every later arrival is a
// link-cache hit, and the client's program area stops growing after the
// first arrival.
func TestMobilityShippedCodeLinksOnce(t *testing.T) {
	blocks := map[int]int{}
	for _, n := range []int{1, 8} {
		_, b, _, outB, cleanup := twoSites(t, appletServerSrc, fmt.Sprintf(`
import appletserver from alpha in
def Use(k) = if k == 0 then println("done")
             else new p (appletserver!get[p] | new r (p![k, r] | r?(v) = Use[k - 1]))
in Use[%d]`, n))
		waitSite(t, func() bool { return outB.String() == "done\n" })
		cleanup() // after Done the counters and program are safe to read
		if b.UnitsLinked != 2 || b.LinkCacheHits != uint64(n-1) {
			t.Errorf("%d arrivals: %d units linked (own program included), %d cache hits; want 2 and %d",
				n, b.UnitsLinked, b.LinkCacheHits, n-1)
		}
		blocks[n] = len(b.Machine().Prog.Blocks)
	}
	if blocks[8] != blocks[1] {
		t.Errorf("program area: %d blocks after 1 arrival, %d after 8", blocks[1], blocks[8])
	}
}

// TestMobilityDistinctCodeLinksSeparately: alpha and gamma run the same
// program, whose applet code reaches its home channel through an
// import — a constant naming its own site. The two applets therefore
// differ in their bytes, link separately at beta, and each later arrival
// reuses the placement of its own bytes: every value lands at the home
// of the site that shipped it.
func TestMobilityDistinctCodeLinksSeparately(t *testing.T) {
	server := func(name string) string {
		return fmt.Sprintf(`
def Home(self) = self ? { val(v) = (println("home heard", v) | Home[self]), ping(r) = (r![0] | Home[self]) }
in export new home (Home[home] |
  import home from %s in
  def Server(self) = self ? { get(p) = (p?(x) = home![x]) | Server[self] }
  in let z = home!ping[] in export new svc Server[svc])`, name)
	}
	ss, outs, cleanup := connectedSites(t, server("alpha"), `
(import svc from alpha in new p (svc!get[p] | p![1]) | new p (svc!get[p] | p![3])) |
(import svc from gamma in new p (svc!get[p] | p![2]) | new p (svc!get[p] | p![4]))`, server("gamma"))
	heard := func(out *testutil.Buf, a, b int) bool {
		return strings.Contains(out.String(), fmt.Sprintf("home heard %d", a)) &&
			strings.Contains(out.String(), fmt.Sprintf("home heard %d", b))
	}
	waitSite(t, func() bool { return heard(outs[0], 1, 3) && heard(outs[2], 2, 4) })
	cleanup()
	if got := outs[0].String() + outs[2].String(); strings.Count(got, "home heard") != 4 {
		t.Errorf("homes heard %q, want each value once", got)
	}
	if b := ss[1]; b.UnitsLinked != 3 || b.LinkCacheHits != 2 {
		t.Errorf("beta linked %d units (own program included) with %d cache hits; want 3 and 2", b.UnitsLinked, b.LinkCacheHits)
	}
}
