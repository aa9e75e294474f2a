package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// siteSpec is one generated DiTyCO program together with the output
// the harness expects from it. The program under test receives only
// src; expect is computed here, never by running the program.
type siteSpec struct {
	node   int
	name   string
	src    string
	expect []string // exact "done …" lines, in order
	ops    int      // ops this site's correct done lines verify
	// probe is the expected reply lines of the site's probe caller, if
	// it has one: a single sequential caller whose println per reply
	// the harness's writer timestamps. Its calls are not ops.
	probe []string
}

// inputs is everything one window of a workload submits.
type inputs struct {
	pre  []siteSpec // server sites, submitted before timing starts
	load []siteSpec // submitted at t0; the window ends at their (and pre's) last done line
}

// all returns every site of the window, servers first.
func (in *inputs) all() []*siteSpec {
	var out []*siteSpec
	for i := range in.pre {
		out = append(out, &in.pre[i])
	}
	for i := range in.load {
		out = append(out, &in.load[i])
	}
	return out
}

// ops is the number of verified operations a clean window completes.
func (in *inputs) ops() int {
	n := 0
	for _, s := range in.all() {
		n += s.ops
	}
	return n
}

// probeReplies is the number of latency samples a clean window yields:
// the gaps between each probe's reply lines or, where no site has a
// probe (launch), one per load site.
func (in *inputs) probeReplies() int {
	n := 0
	for _, s := range in.all() {
		if len(s.probe) > 0 {
			n += len(s.probe) - 1
		}
	}
	if n == 0 {
		return len(in.load)
	}
	return n
}

// sources returns every program text of the workload (the front-end
// drivers replay them).
func (in *inputs) sources() []string {
	var out []string
	for _, s := range in.all() {
		out = append(out, s.src)
	}
	return out
}

// workload describes one closed-loop workload. All load comes from
// TyCO client sites; every cluster uses the Ideal in-process fabric
// (the modelled links busy-spin a pump goroutine, which on two cores
// measures the Go scheduler rather than DiTyCO).
type workload struct {
	name string
	why  string
	// opsPerSec and probeUs (mean probe latency) are sizing hints from
	// a 2-core run at half-second windows: they turn the window length
	// into a fixed amount of work, so the same seed always generates
	// the same inputs.
	opsPerSec float64
	probeUs   float64
	// sequential submits the load sites one after another from source,
	// waiting for each site's done line (launch); the per-site interval
	// is the probe latency.
	sequential bool
	// maxOps, when set, caps a window's ops. launch keeps every site it
	// starts alive (about 150 KB each), so its windows must stay short.
	maxOps   int
	config   func() core.ClusterConfig
	generate func(rng *rand.Rand, ops, probeOps int) *inputs
}

// workloadByName returns the named workload, or nil.
func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloads() []*workload {
	return []*workload{
		{
			name:      "rpc_fanin",
			why:       "remote invocation at the smallest message: wire, outbound ring, Reliable and the site inbox dominate, the scheduler idles",
			opsPerSec: 96000, probeUs: 1350,
			config: func() core.ClusterConfig {
				return core.ClusterConfig{Nodes: 2, Reliability: &transport.ReliableConfig{}}
			},
			generate: func(rng *rand.Rand, ops, probeOps int) *inputs {
				return genRPC(rng, ops, probeOps, 1, 128, 1)
			},
		},
		{
			name:      "rpc_full",
			why:       "rpc_fanin with journal, telemetry and admission on: the cost of the production planes on the same path",
			opsPerSec: 56000, probeUs: 1900,
			config: func() core.ClusterConfig {
				return core.ClusterConfig{
					Nodes:       2,
					Reliability: &transport.ReliableConfig{},
					Journal:     journal.NewMemFactory(),
					Telemetry:   &telemetry.Config{},
					Admission:   &admission.Config{},
				}
			},
			generate: func(rng *rand.Rand, ops, probeOps int) *inputs {
				return genRPC(rng, ops, probeOps, 1, 128, 1)
			},
		},
		{
			name:      "local_sites",
			why:       "16 sites on one node: same-node fast path, so site.Turn, inbox, vm and the work-stealing scheduler carry the cost; wire and transport must not move it",
			opsPerSec: 130000, probeUs: 1100,
			config: func() core.ClusterConfig {
				return core.ClusterConfig{Nodes: 1}
			},
			generate: func(rng *rand.Rand, ops, probeOps int) *inputs {
				return genRPC(rng, ops, probeOps, 8, 16, 0)
			},
		},
		{
			name:      "stream_1k",
			why:       "one-way 1 KiB floods: the same wire/ring/Reliable layers at per-byte cost with full windows and dedicated acks; the probe sees head-of-line blocking",
			opsPerSec: 210000, probeUs: 12000,
			config: func() core.ClusterConfig {
				return core.ClusterConfig{Nodes: 2, Reliability: &transport.ReliableConfig{}}
			},
			generate: genStream,
		},
		{
			name:      "mobility",
			why:       "SHIPO applets plus one cold FETCH per client: Extract, asm encode/decode/verify, dynamic Link and export-table translation do the work",
			opsPerSec: 42000, probeUs: 500,
			config: func() core.ClusterConfig {
				return core.ClusterConfig{Nodes: 2, Reliability: &transport.ReliableConfig{}}
			},
			generate: genMobility,
		},
		{
			name:      "launch",
			why:       "programs submitted from source one after another: parse, check, compile, Spawn, name-service register and blocking lookup, site-table growth",
			opsPerSec: 5200, probeUs: 180,
			sequential: true,
			maxOps:     2000,
			config: func() core.ClusterConfig {
				return core.ClusterConfig{Nodes: 2, Reliability: &transport.ReliableConfig{}}
			},
			generate: genLaunch,
		},
	}
}

const rpcServerSrc = `
def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p])
in export new p Serve[p]`

// rpcProbe is a single sequential caller of p that prints every
// reply. It returns its class definition, its instantiation and the
// lines it must print.
func rpcProbe(rng *rand.Rand, calls int) (def, inst string, expect []string) {
	a := rng.Intn(1 << 20)
	def = "Probe(a, n) = if n == 0 then inaction else let y = p![a] in (println(y) | Probe[a + 1, n - 1])"
	inst = fmt.Sprintf("Probe[%d, %d]", a, calls)
	expect = make([]string, calls)
	for i := range expect {
		expect[i] = fmt.Sprint(a + i + 1)
	}
	return def, inst, expect
}

// genRPC builds pairs server/client sites: every client runs callers
// concurrent callers, each making sequential one-integer calls and
// summing the replies; the client prints the grand total. Every
// client also runs a probe, one more caller beside the silent ones,
// so its latency is what a caller in that crowd waits; with a probe
// in every client, how the scheduler shares the cores among the sites
// in one window averages out. clientNode 0 puts everything on one
// node (local_sites).
func genRPC(rng *rand.Rand, ops, probeOps, pairs, callers, clientNode int) *inputs {
	calls := ops / (pairs * callers)
	if calls < 1 {
		calls = 1
	}
	in := &inputs{}
	for i := 0; i < pairs; i++ {
		server := "server"
		client := "client"
		if pairs > 1 {
			server = fmt.Sprintf("server%d", i)
			client = fmt.Sprintf("client%d", i)
		}
		in.pre = append(in.pre, siteSpec{node: 0, name: server, src: rpcServerSrc})
		spec := siteSpec{node: clientNode, name: client, ops: callers * calls}
		var b strings.Builder
		fmt.Fprintf(&b, "import p from %s in\n", server)
		b.WriteString("def Caller(a, n, acc, fin) = if n == 0 then fin![acc] else let y = p![a] in Caller[a + 1, n - 1, acc + y, fin]\n")
		b.WriteString("and Join(k, t, fin) = if k == 0 then println(\"done\", t) else fin?(v) = Join[k - 1, t + v, fin]\n")
		def, inst, expect := rpcProbe(rng, probeOps)
		fmt.Fprintf(&b, "and %s\n", def)
		spec.probe = expect
		fmt.Fprintf(&b, "in new fin (Join[%d, 0, fin] | %s", callers, inst)
		total := 0
		for c := 0; c < callers; c++ {
			a := rng.Intn(1 << 20)
			fmt.Fprintf(&b, " | Caller[%d, %d, 0, fin]", a, calls)
			// Σ_{j<calls} (a + j + 1)
			total += calls*(a+1) + calls*(calls-1)/2
		}
		b.WriteString(")")
		spec.src = b.String()
		spec.expect = []string{fmt.Sprintf("done %d", total)}
		in.load = append(in.load, spec)
	}
	return in
}

// payload is a printable string of n seed-chosen bytes.
func payload(rng *rand.Rand, n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// genStream builds 4 producers on node 1, each flooding (i, 1 KiB)
// messages at its own sink on node 0. A sink prints the sum of the
// indices whose payload arrived intact, which the harness knows to be
// N(N+1)/2. Every producer also runs a probe: integer round trips to
// a server on the sinks' node, each request queued behind that
// producer's own flood, so its latency is the head-of-line blocking
// of small calls behind bulk traffic.
func genStream(rng *rand.Rand, ops, probeOps int) *inputs {
	const pairs = 4
	n := ops / pairs
	if n < 1 {
		n = 1
	}
	in := &inputs{pre: []siteSpec{{node: 0, name: "server", src: rpcServerSrc}}}
	for i := 0; i < pairs; i++ {
		sink := fmt.Sprintf("sink%d", i)
		data := payload(rng, 1024)
		in.pre = append(in.pre, siteSpec{
			node: 0, name: sink,
			src: fmt.Sprintf(`
def Sink(q, k, sum, w) = if k == 0 then println("done", sum)
  else q?(i, s) = if s == w then Sink[q, k - 1, sum + i, w] else Sink[q, k - 1, sum, w]
in export new q Sink[q, %d, 0, "%s"]`, n, data),
			expect: []string{fmt.Sprintf("done %d", n*(n+1)/2)},
			ops:    n,
		})
		spec := siteSpec{node: 1, name: fmt.Sprintf("producer%d", i), expect: []string{"done"}}
		flood := fmt.Sprintf(`Flood[%d, "%s"]`, n, data)
		def, inst, expect := rpcProbe(rng, probeOps)
		spec.probe = expect
		spec.src = fmt.Sprintf(`import q from %s in
import p from server in
def %s
and Flood(i, s) = if i == 0 then println("done") else (q![i, s] | Flood[i - 1, s])
in (%s | %s)`, sink, def, flood, inst)
		in.load = append(in.load, spec)
	}
	return in
}

// appletSum renders "n + c1 + c2 …" with terms seed-chosen constants
// (two instructions each) and returns their sum.
func appletSum(rng *rand.Rand, terms int) (string, int) {
	var b strings.Builder
	b.WriteString("n")
	sum := 0
	for i := 0; i < terms; i++ {
		c := 1 + rng.Intn(9)
		fmt.Fprintf(&b, " + %d", c)
		sum += c
	}
	return b.String(), sum
}

// appletTerms gives the shipped applet a body of about 64 instructions.
const appletTerms = 31

// mobilityServer exports one class for the cold FETCH and an applet
// server whose get method ships an applet object (SHIPO) to the name
// the client provides.
func mobilityServer(rng *rand.Rand) (src string, coldSum, appletK int) {
	cold, coldSum := appletSum(rng, appletTerms)
	applet, appletK := appletSum(rng, appletTerms)
	src = fmt.Sprintf(`
export def Cold(n, r) = r![%s] in
def AppletServer(self) = self ? { get(p) = (p?(n, r) = r![%s]) | AppletServer[self] }
in export new appletserver AppletServer[appletserver]`, cold, applet)
	return src, coldSum, appletK
}

// genMobility builds 4 client sites × 4 users on node 1 against one
// applet server on node 0. Each client first instantiates the fetched
// class once (cold: clusters are fresh per window), then its users
// loop "get an applet, invoke it, await the result".
func genMobility(rng *rand.Rand, ops, probeOps int) *inputs {
	const clients, users = 4, 4
	uses := ops / (clients * users)
	if uses < 1 {
		uses = 1
	}
	server, coldSum, k := mobilityServer(rng)
	in := &inputs{pre: []siteSpec{{node: 0, name: "server", src: server}}}
	for c := 0; c < clients; c++ {
		arg := rng.Intn(1 << 20)
		spec := siteSpec{node: 1, name: fmt.Sprintf("client%d", c), ops: users * uses}
		var b strings.Builder
		b.WriteString(`import Cold from server in
import appletserver from server in
def Use(k, acc, fin) = if k == 0 then fin![acc]
  else new p (appletserver!get[p] | new r (p![k, r] | r?(v) = Use[k - 1, acc + v, fin]))
and Join(k, t, fin) = if k == 0 then println("done", t) else fin?(v) = Join[k - 1, t + v, fin]
and Probe(k) = if k == 0 then inaction
  else new p (appletserver!get[p] | new r (p![k, r] | r?(v) = (println(v) | Probe[k - 1])))
`)
		// The probe is one more user beside the client's silent ones.
		for i := 0; i < probeOps; i++ {
			spec.probe = append(spec.probe, fmt.Sprint(probeOps-i+k))
		}
		fmt.Fprintf(&b, "in new r0 (Cold[%d, r0] | r0?(c) = new fin (Join[%d, c, fin] | Probe[%d]", arg, users, probeOps)
		for u := 0; u < users; u++ {
			fmt.Fprintf(&b, " | Use[%d, 0, fin]", uses)
		}
		b.WriteString("))")
		// Σ_{k=1..uses} (k + K) per user, plus the cold instantiation.
		total := arg + coldSum + users*(uses*(uses+1)/2+uses*k)
		spec.src = b.String()
		spec.expect = []string{fmt.Sprintf("done %d", total)}
		in.load = append(in.load, spec)
	}
	return in
}

// genLaunch builds a chain of small programs: site i imports the name
// site i-1 exported, calls it once and exports its own. Names
// alternate between a and b so import and export never share a
// lexeme. Placement on the two nodes is seed-chosen.
func genLaunch(rng *rand.Rand, ops, _ int) *inputs {
	names := [2]string{"a", "b"}
	prevK := 1 + rng.Intn(1000)
	in := &inputs{pre: []siteSpec{{
		node: 0, name: "root",
		src: fmt.Sprintf("export new b (b?(x, r) = r![x + %d])", prevK),
	}}}
	prev := "root"
	for i := 0; i < ops; i++ {
		exp, imp := names[i%2], names[(i+1)%2]
		k := 1 + rng.Intn(1000)
		x := rng.Intn(1 << 20)
		name := fmt.Sprintf("s%d", i)
		in.load = append(in.load, siteSpec{
			node: rng.Intn(2), name: name,
			src: fmt.Sprintf(`import %s from %s in
export new %s ((%s?(x, r) = r![x + %d]) | (let y = %s![%d] in println("done", y)))`,
				imp, prev, exp, exp, k, imp, x),
			expect: []string{fmt.Sprintf("done %d", x+prevK)},
			ops:    1,
		})
		prev, prevK = name, k
	}
	return in
}
