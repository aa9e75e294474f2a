package node_test

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/nameservice"
	"repro/internal/node"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// twoNodes builds a two-node network over an in-memory fabric.
func twoNodes(t *testing.T, force bool) (*node.Node, *node.Node, func()) {
	t.Helper()
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	fabric := transport.NewFabric(transport.Ideal)
	t1, err := fabric.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := fabric.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	n1 := node.New(node.Config{ID: 1, NS: ns, Transport: t1, ForceMarshalLocal: force})
	n2 := node.New(node.Config{ID: 2, NS: ns, Transport: t2, ForceMarshalLocal: force})
	return n1, n2, func() {
		n1.Stop()
		n2.Stop()
		fabric.Close()
	}
}

func submit(t *testing.T, n *node.Node, siteName, src string, out *testutil.Buf) {
	t.Helper()
	prog, err := node.CompileSubmission(siteName, src)
	if err != nil {
		t.Fatalf("compile %s: %v", siteName, err)
	}
	if _, err := n.Spawn(siteName, prog, out); err != nil {
		t.Fatalf("spawn %s: %v", siteName, err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
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

func TestCrossNodeMessage(t *testing.T) {
	n1, n2, cleanup := twoNodes(t, false)
	defer cleanup()
	var serverOut testutil.Buf
	submit(t, n1, "server", `export new chat (chat?(v) = println("n1 got", v))`, &serverOut)
	submit(t, n2, "client", `import chat from server in chat![7]`, &testutil.Buf{})
	waitFor(t, func() bool { return strings.Contains(serverOut.String(), "n1 got 7") })
	if n1.RemoteDeliveries() == 0 {
		t.Fatal("message did not cross the transport")
	}
}

func TestSameNodeFastPath(t *testing.T) {
	n1, _, cleanup := twoNodes(t, false)
	defer cleanup()
	var out testutil.Buf
	submit(t, n1, "server", `export new chat (chat?(v) = println("got", v))`, &out)
	submit(t, n1, "client", `import chat from server in chat![9]`, &testutil.Buf{})
	waitFor(t, func() bool { return strings.Contains(out.String(), "got 9") })
	if n1.LocalDeliveries() == 0 {
		t.Fatal("local delivery did not use the fast path counter")
	}
	if n1.RemoteDeliveries() != 0 {
		t.Fatal("same-node traffic went over the transport")
	}
}

func TestForceMarshalAblation(t *testing.T) {
	n1, _, cleanup := twoNodes(t, true)
	defer cleanup()
	var out testutil.Buf
	submit(t, n1, "server", `export new chat (chat?(v) = println("got", v))`, &out)
	submit(t, n1, "client", `import chat from server in chat!["marshalled"]`, &testutil.Buf{})
	waitFor(t, func() bool { return strings.Contains(out.String(), "got marshalled") })
}

func TestObjectMigrationAcrossNodes(t *testing.T) {
	n1, n2, cleanup := twoNodes(t, false)
	defer cleanup()
	var clientOut testutil.Buf
	submit(t, n1, "server", `
def S(self) = self ? { put(p) = (p?(x) = println("migrated saw", x)) | S[self] }
in export new svc S[svc]`, &testutil.Buf{})
	submit(t, n2, "client", `
import svc from server in new p (svc!put[p] | p![33])`, &clientOut)
	waitFor(t, func() bool { return strings.Contains(clientOut.String(), "migrated saw 33") })
	client, ok := n2.SiteByName("client")
	if !ok {
		t.Fatal("client site missing")
	}
	if client.UnitsLinked < 2 {
		t.Fatalf("client linked %d units; the migrated object's code should have been linked", client.UnitsLinked)
	}
}

func TestClassFetchAcrossNodes(t *testing.T) {
	n1, n2, cleanup := twoNodes(t, false)
	defer cleanup()
	var clientOut testutil.Buf
	submit(t, n1, "server", `export def W(n) = println("fetched applet", n) in inaction`, &testutil.Buf{})
	submit(t, n2, "client", `import W from server in (W[1] | W[2])`, &clientOut)
	waitFor(t, func() bool {
		s := clientOut.String()
		return strings.Contains(s, "fetched applet 1") && strings.Contains(s, "fetched applet 2")
	})
	client, _ := n2.SiteByName("client")
	if client.ClassesFetched != 1 {
		t.Fatalf("fetched %d times; the cache should coalesce to 1", client.ClassesFetched)
	}
}

func TestDuplicateSiteNameRejected(t *testing.T) {
	n1, _, cleanup := twoNodes(t, false)
	defer cleanup()
	submit(t, n1, "dup", `inaction`, &testutil.Buf{})
	prog, err := node.CompileSubmission("dup", `inaction`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n1.Spawn("dup", prog, nil); err == nil {
		t.Fatal("duplicate site name accepted")
	}
}

func TestSiteIDsAreUniqueAcrossNodes(t *testing.T) {
	n1, n2, cleanup := twoNodes(t, false)
	defer cleanup()
	submit(t, n1, "a", `inaction`, nil)
	submit(t, n2, "b", `inaction`, nil)
	a, _ := n1.SiteByName("a")
	b, _ := n2.SiteByName("b")
	if a.ID() == b.ID() {
		t.Fatalf("site ids collide: %d", a.ID())
	}
}

func TestTyCOiSubmission(t *testing.T) {
	// Full shell protocol: submit source over TCP, read streamed
	// output (the tycosh path).
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	fabric := transport.NewFabric(transport.Ideal)
	tr, err := fabric.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	n := node.New(node.Config{ID: 1, NS: ns, Transport: tr})
	defer func() { n.Stop(); fabric.Close() }()
	ti, err := n.ServeTyCOi("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ti.Close()

	conn, err := net.Dial("tcp", ti.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := node.WriteString(conn, "shelltest"); err != nil {
		t.Fatal(err)
	}
	if err := node.WriteString(conn, `println("hello from tycosh")`); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	sawBanner, sawOutput := false, false
	deadline := time.Now().Add(10 * time.Second)
	conn.SetReadDeadline(deadline)
	for !sawBanner || !sawOutput {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read: %v (banner=%v output=%v)", err, sawBanner, sawOutput)
		}
		if strings.Contains(line, "site shelltest started") {
			sawBanner = true
		}
		if strings.Contains(line, "hello from tycosh") {
			sawOutput = true
		}
	}
}

func TestTyCOiCompileErrorReported(t *testing.T) {
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	fabric := transport.NewFabric(transport.Ideal)
	tr, _ := fabric.Attach(1)
	n := node.New(node.Config{ID: 1, NS: ns, Transport: tr})
	defer func() { n.Stop(); fabric.Close() }()
	ti, err := n.ServeTyCOi("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ti.Close()

	conn, err := net.Dial("tcp", ti.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	node.WriteString(conn, "broken")
	node.WriteString(conn, `println(1 + true)`) // type error
	r := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "!") {
		t.Fatalf("expected error line, got %q", line)
	}
}

func TestControlFramesRoundTrip(t *testing.T) {
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	fabric := transport.NewFabric(transport.Ideal)
	t1, _ := fabric.Attach(1)
	t2, _ := fabric.Attach(2)
	type ctrl struct {
		ft      wire.FrameType
		src     uint32
		payload string
	}
	got := make(chan ctrl, 2)
	n1 := node.New(node.Config{ID: 1, NS: ns, Transport: t1})
	n2 := node.New(node.Config{ID: 2, NS: ns, Transport: t2,
		OnControl: func(ft wire.FrameType, src uint32, payload []byte) {
			got <- ctrl{ft: ft, src: src, payload: string(payload)}
		}})
	defer func() { n1.Stop(); n2.Stop(); fabric.Close() }()

	if err := n1.SendControl(wire.FGossip, 2, []byte("beat")); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-got:
		if c.ft != wire.FGossip || c.src != 1 || c.payload != "beat" {
			t.Fatalf("control frame = %+v", c)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("control frame never arrived")
	}
	// Self-addressed control loops back without the transport.
	if err := n2.SendControl(wire.FTerm, 2, []byte("self")); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-got:
		if c.ft != wire.FTerm || c.src != 2 || c.payload != "self" {
			t.Fatalf("loopback frame = %+v", c)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("loopback frame never arrived")
	}
}
