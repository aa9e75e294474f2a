package core_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nameservice"
	"repro/internal/netcalc"
	"repro/internal/node"
	"repro/internal/syntax"
	"repro/internal/testutil"
	"repro/internal/transport"
)

func TestImportCycleRing(t *testing.T) {
	// Mutually importing sites: a 3-member token ring. Exercises the
	// park-on-import machinery (every site imports its successor
	// before any of them has finished exporting).
	ring := func(i, k, token int) string {
		next := (i + 1) % k
		inject := ""
		if i == 0 {
			inject = fmt.Sprintf(" | tok%d![%d]", i, token)
		}
		return fmt.Sprintf(`
export new tok%d (
  import tok%d from s%d in
  def Fwd(self) =
    self?(tq) = (if tq == 0 then println("ring done") else tok%d![tq - 1]) | Fwd[self]
  in Fwd[tok%d]%s
)`, i, next, next, next, i, inject)
	}
	const k, laps = 3, 4
	progs := make([]prog, k)
	for i := 0; i < k; i++ {
		progs[i] = prog{node: i, site: fmt.Sprintf("s%d", i), src: ring(i, k, laps*k)}
	}
	out := runCluster(t, k, progs)
	all := out["s0"] + out["s1"] + out["s2"]
	if !strings.Contains(all, "ring done") {
		t.Fatalf("ring never completed: %v", out)
	}
}

func TestLinkModelsDoNotChangeSemantics(t *testing.T) {
	for _, profile := range []string{"ideal", "myrinet", "fastether"} {
		model, _ := transport.Profile(profile)
		cl, err := core.NewCluster(core.ClusterConfig{Nodes: 2, Link: model})
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if _, err := cl.Submit(0, "server", `
def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p]) in export new p Serve[p]`, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Submit(1, "client", `
import p from server in
def Go(n, acc) = if n == 0 then println("sum", acc)
                 else let v = p![n] in Go[n - 1, acc + v]
in Go[10, 0]`, &out); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = cl.Wait(ctx)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", profile, err)
		}
		cl.Stop()
		// sum of (n+1) for n=10..1 = 55+10 = 65
		if got := out.String(); got != "sum 65\n" {
			t.Fatalf("%s: out = %q", profile, got)
		}
	}
}

func TestForceMarshalSemanticsUnchanged(t *testing.T) {
	cl, err := core.NewCluster(core.ClusterConfig{Nodes: 1, ForceMarshalLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	var out strings.Builder
	if _, err := cl.Submit(0, "server", `export new p (p?(x, r) = r![x * 3])`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(0, "client", `import p from server in let y = p![7] in println(y)`, &out); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := cl.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if out.String() != "21\n" {
		t.Fatalf("out = %q", out.String())
	}
}

func TestFetchCacheDisabledStillCorrect(t *testing.T) {
	cl, err := core.NewCluster(core.ClusterConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	var out strings.Builder
	if _, err := cl.Submit(0, "server", `export def A(n) = println("a", n) in inaction`, nil); err != nil {
		t.Fatal(err)
	}
	client, err := cl.Submit(1, "client", `import A from server in (A[1] | A[2] | A[3])`, &out,
		node.WithFetchCacheDisabled())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := cl.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	sort.Strings(lines)
	if strings.Join(lines, ",") != "a 1,a 2,a 3" {
		t.Fatalf("out = %q", out.String())
	}
	if client.ClassesFetched < 1 {
		t.Fatalf("fetched = %d", client.ClassesFetched)
	}
}

// Differential test: the runtime and the reference network semantics
// agree on per-site outputs across the paper's scenarios.
func TestRuntimeAgreesWithNetcalc(t *testing.T) {
	scenarios := [][]prog{
		{
			{0, "server", `export new chat (chat?(v) = println("got", v))`},
			{1, "client", `import chat from server in chat![42]`},
		},
		{
			{0, "server", `export new p (def S(q) = q?(x, r) = (r![x * x] | S[q]) in S[p])`},
			{1, "client", `import p from server in let y = p![6] in println("r", y)`},
		},
		{
			{0, "server", `export def Applet(x) = println("ap", x) in inaction`},
			{1, "client", `import Applet from server in Applet[3]`},
		},
		{
			{0, "seti", `
new database (
  def Data(self, next) = self ? { newChunk(r) = r![next] | Data[self, next + 1] }
  in Data[database, 1] |
  export def Install(limit) = Go[limit]
  and Go(n) = if n == 0 then inaction
              else let d = database!newChunk[] in (println("p", d) | Go[n - 1])
  in inaction
)`},
			{1, "client", `import Install from seti in Install[2]`},
		},
	}
	for si, sc := range scenarios {
		// Runtime.
		rt := runCluster(t, 2, sc)
		// Reference network semantics.
		n := netcalc.New(0)
		for _, p := range sc {
			n.Add(p.site, syntax.MustParse(p.src))
		}
		if err := n.Run(); err != nil {
			t.Fatalf("scenario %d netcalc: %v", si, err)
		}
		for _, p := range sc {
			want := sortedOut(n.Output(p.site))
			got := sortedOut(rt[p.site])
			if want != got {
				t.Fatalf("scenario %d site %s:\nruntime: %q\nnetcalc: %q", si, p.site, got, want)
			}
		}
	}
}

func sortedOut(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestTCPClusterEndToEnd deploys the full production stack in-process:
// a TCP name service, two nodes on TCP transports, cross-node
// messaging, code fetching and object shipping over real sockets.
func TestTCPClusterEndToEnd(t *testing.T) {
	nsSrv, err := nameservice.NewServer(nameservice.NewSharded(nameservice.ShardedConfig{}), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nsSrv.Close()

	ns1, err := nameservice.Dial(nsSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ns1.Close()
	ns2, err := nameservice.Dial(nsSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ns2.Close()

	// Node 2 (the server) comes up first with no peers; node 1 (the
	// client) knows node 2's address. The flow is one-directional:
	// client messages stream 1→2.
	t2, err := transport.NewTCP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	t1, err := transport.NewTCP(1, "127.0.0.1:0", map[uint32]string{2: t2.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()

	n1 := node.New(node.Config{ID: 1, NS: ns1, Transport: t1})
	n2 := node.New(node.Config{ID: 2, NS: ns2, Transport: t2})
	defer n1.Stop()
	defer n2.Stop()

	var serverOut testutil.Buf
	srvProg, err := node.CompileSubmission("server", `export new sink (def D(s) = s?(v) = (println("tcp got", v) | D[s]) in D[sink])`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n2.Spawn("server", srvProg, &serverOut); err != nil {
		t.Fatal(err)
	}
	cliProg, err := node.CompileSubmission("client", `import sink from server in (sink![1] | sink![2])`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n1.Spawn("client", cliProg, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(20 * time.Second)
	for {
		s := serverOut.String()
		if strings.Contains(s, "tcp got 1") && strings.Contains(s, "tcp got 2") {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("cross-TCP messages never arrived: %q", serverOut.String())
		case <-time.After(time.Millisecond):
		}
	}
}

func TestClusterErrSurfacesSiteFault(t *testing.T) {
	cl, err := core.NewCluster(core.ClusterConfig{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	if _, err := cl.Submit(0, "faulty", `println(1 / 0)`, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := cl.Wait(ctx); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("wait should surface the site fault, got %v", err)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := core.Compile("x", `new X inaction`); err == nil {
		t.Fatal("parse error not surfaced")
	}
	if _, err := core.Compile("x", `println(1 + true)`); err == nil {
		t.Fatal("type error not surfaced")
	}
	if _, err := core.Compile("x", `new x (x![1] | x?(v) = println(v))`); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

func TestRunLocalHelper(t *testing.T) {
	var out strings.Builder
	if err := core.RunLocal("quick", `println("runlocal")`, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != "runlocal\n" {
		t.Fatalf("out = %q", out.String())
	}
}
