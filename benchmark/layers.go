package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/nameservice"
	"repro/internal/site"
	"repro/internal/syntax"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/vm"
	"repro/internal/wire"
)

// The drivers below replay the workloads' own generated shapes (the
// one-integer call, the 1 KiB message, the applet unit, the site
// sources) through one layer's public API and report ns/op and
// allocs/op. Each runs driverReps times; the median is reported.
const driverReps = 3

// sink keeps driver results alive so the compiler cannot drop a call.
var sink any

// timeLoop runs f n times and returns ns and heap allocations per call.
func timeLoop(n int, f func(i int)) (ns, allocs float64) {
	var nss, als []float64
	var a, b runtime.MemStats
	for rep := 0; rep < driverReps; rep++ {
		runtime.ReadMemStats(&a)
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		el := time.Since(start)
		runtime.ReadMemStats(&b)
		nss = append(nss, float64(el)/float64(n))
		als = append(als, float64(b.Mallocs-a.Mallocs)/float64(n))
	}
	return summarize(nss).median, summarize(als).median
}

// callMsg is the request of a one-integer call: the argument and the
// reply channel. bigMsg is stream_1k's (index, 1 KiB string).
func callMsg() *wire.Msg {
	return &wire.Msg{
		Op:    wire.OpRef{Site: 2<<20 | 1, Epoch: 1, ID: 7},
		To:    vm.NetRef{Heap: 1, Site: 1<<20 | 1, Node: 1},
		Label: "val",
		Args: []wire.Value{
			{Kind: wire.WInt, I: 123456},
			{Kind: wire.WNet, Net: vm.NetRef{Heap: 9, Site: 2<<20 | 1, Node: 2}},
		},
	}
}

func bigMsg(rng *rand.Rand) *wire.Msg {
	m := callMsg()
	m.Args = []wire.Value{{Kind: wire.WInt, I: 123456}, {Kind: wire.WStr, S: payload(rng, 1024)}}
	return m
}

// wireDrivers times the producer's payload encoding, the decode, and
// building plus walking a 64-entry batch frame.
func wireDrivers(out map[string]float64, suffix string, m *wire.Msg, n int) {
	encNs, encAl := timeLoop(n, func(int) {
		w := wire.GetWriter()
		m.AppendPayload(w)
		sink = w.Detach()
		wire.PutWriter(w)
	})
	encoded := m.Encode()
	decNs, decAl := timeLoop(n, func(int) {
		d, err := wire.DecodeMsg(encoded)
		if err != nil {
			panic(err)
		}
		sink = d
	})
	const entries = 64
	bb := wire.NewBatchBuilder()
	defer bb.Release()
	batchNs, _ := timeLoop(n/entries+1, func(int) {
		for e := 0; e < entries; e++ {
			w := bb.BeginEntry(wire.FMsg, 2, 1, 0, 0)
			w.Raw(encoded)
			bb.EndEntry()
		}
		frame := bb.TakeFrame()
		it, err := wire.NewBatchIter(frame)
		if err != nil {
			panic(err)
		}
		var env wire.Envelope
		for {
			ok, err := it.Next(&env)
			if err != nil {
				panic(err)
			}
			if !ok {
				break
			}
		}
	})
	out["wire.encode_ns_per_msg"+suffix] = encNs
	out["wire.decode_ns_per_msg"+suffix] = decNs
	out["wire.allocs_per_msg"+suffix] = encAl + decAl
	out["wire.batch_ns_per_entry"+suffix] = batchNs / entries
}

// transportDrivers times a frame through the Ideal fabric alone, and
// through a NewReliable pair on top of it (Send → peer Recv, echoed
// back so acks piggyback as they do under request/reply traffic).
func transportDrivers(out map[string]float64, n int) error {
	frame := (&wire.Envelope{Type: wire.FMsg, SrcNode: 1, DstNode: 2, Payload: callMsg().Encode()}).Encode()
	fab := transport.NewFabric(transport.Ideal)
	defer fab.Close()
	a, err := fab.Attach(1)
	if err != nil {
		return err
	}
	b, err := fab.Attach(2)
	if err != nil {
		return err
	}
	const burst = 256 // below the endpoint's receive buffer
	memNs, _ := timeLoop(n/burst+1, func(int) {
		for i := 0; i < burst; i++ {
			if err := a.Send(2, frame); err != nil {
				panic(err)
			}
		}
		for i := 0; i < burst; i++ {
			<-b.Recv()
		}
	})
	out["transport.mem_ns_per_frame"] = memNs / burst

	ra := transport.NewReliable(a, transport.ReliableConfig{})
	rb := transport.NewReliable(b, transport.ReliableConfig{})
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for f := range rb.Recv() {
			if err := rb.Send(1, f); err != nil {
				return
			}
		}
	}()
	const inflight = 64
	relNs, relAl := timeLoop(n/inflight+1, func(int) {
		for i := 0; i < inflight; i++ {
			if err := ra.Send(2, frame); err != nil {
				panic(err)
			}
		}
		for i := 0; i < inflight; i++ {
			<-ra.Recv()
		}
	})
	out["transport.reliable_ns_per_frame"] = relNs / (2 * inflight)
	out["transport.reliable_allocs_per_frame"] = relAl / (2 * inflight)
	_ = ra.Close()
	_ = rb.Close()
	<-echoed
	return nil
}

// nullRouter is the stub site.Router of the site drivers: it drops
// what the site routes out, keeping the last shipped object's unit.
type nullRouter struct {
	unit *asm.Unit
}

func (r *nullRouter) RouteMsg(*site.Site, wire.OpRef, vm.NetRef, string, []site.WireVal) error {
	return nil
}

func (r *nullRouter) RouteObj(_ *site.Site, _ wire.OpRef, _ vm.NetRef, unit *asm.Unit, _ int, _ []site.WireVal) error {
	r.unit = unit
	return nil
}

func (r *nullRouter) RouteFetch(*site.Site, wire.OpRef, site.Addr, string, uint64) error { return nil }

func (r *nullRouter) RouteFetchRep(*site.Site, wire.OpRef, site.Addr, *site.FetchRepDelivery) error {
	return nil
}

// bareSite loads src into a site outside any node and runs it until
// idle, returning the heap id it exported name under.
func bareSite(ns nameservice.Service, router site.Router, siteName, src, name string) (*site.Site, uint32, error) {
	prog, err := core.Compile(siteName, src)
	if err != nil {
		return nil, 0, err
	}
	s := site.New(site.Config{Name: siteName, ID: 1<<20 | 1, NodeID: 1, NS: ns, Router: router})
	if err := s.Load(prog.SiteProgram()); err != nil {
		return nil, 0, err
	}
	for s.Turn() == site.TurnMore {
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ref, _, err := ns.LookupName(ctx, siteName, name)
	if err != nil {
		return nil, 0, err
	}
	return s, ref.Heap, s.Err()
}

// stopSite ends a turn-driven site.
func stopSite(s *site.Site) {
	s.Stop()
	s.Turn()
}

// siteDrivers feeds the rpc server one-integer calls through
// TryDeliver + Turn, 64 at a time as the node's batches arrive.
func siteDrivers(out map[string]float64, ns nameservice.Service, n int) error {
	s, heap, err := bareSite(ns, &nullRouter{}, "driver-server", rpcServerSrc, "p")
	if err != nil {
		return err
	}
	defer stopSite(s)
	const batch = 64
	reply := vm.NetRef{Heap: 9, Site: 2<<20 | 1, Node: 2}
	id := uint64(0)
	ns1, al := timeLoop(n/batch+1, func(int) {
		for i := 0; i < batch; i++ {
			id++
			d := site.Delivery{
				Src: 2,
				Op:  wire.OpRef{Site: 2<<20 | 1, Epoch: 1, ID: id},
				Msg: &site.MsgDelivery{Heap: heap, Label: "val", Args: []wire.Value{
					{Kind: wire.WInt, I: int64(id)}, {Kind: wire.WNet, Net: reply},
				}},
			}
			if ok, err := s.TryDeliver(d); !ok || err != nil {
				panic(fmt.Sprint("site driver: delivery refused: ", err))
			}
		}
		for s.Turn() == site.TurnMore {
		}
	})
	out["site.turn_ns_per_delivery"] = ns1 / batch
	out["site.turn_allocs_per_delivery"] = al / batch
	return s.Err()
}

// vmDriver runs the same-site ping-pong on a bare machine.
func vmDriver(out map[string]float64, rounds int) error {
	src := fmt.Sprintf(`
def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p])
and Call(p, n) = if n == 0 then inaction else let y = p![n] in Call[p, n - 1]
in new p (Serve[p] | Call[p, %d])`, rounds)
	proc, err := syntax.Parse(src)
	if err != nil {
		return err
	}
	unit, err := compiler.Compile(proc, "pingpong")
	if err != nil {
		return err
	}
	var reductions float64
	ns, al := timeLoop(1, func(int) {
		prog := vm.NewProgram()
		linked, err := prog.Link(unit, nil, nil)
		if err != nil {
			panic(err)
		}
		m := vm.NewMachine(prog, io.Discard, nil)
		m.Spawn(linked.Entry, nil)
		if err := m.RunToQuiescence(); err != nil {
			panic(err)
		}
		reductions = float64(m.Stats.Communications + m.Stats.Instantiations)
	})
	out["vm.ns_per_reduction"] = ns / reductions
	out["vm.allocs_per_reduction"] = al / reductions
	return nil
}

// mobilityDrivers obtains the applet unit exactly as the workload
// ships it — by asking a bare applet-server site for one and catching
// it in the stub router — then times each step of moving it.
func mobilityDrivers(out map[string]float64, ns nameservice.Service, rng *rand.Rand, n int) error {
	router := &nullRouter{}
	src, _, _ := mobilityServer(rng)
	s, heap, err := bareSite(ns, router, "driver-applets", src, "appletserver")
	if err != nil {
		return err
	}
	defer stopSite(s)
	d := site.Delivery{Src: 2, Op: wire.OpRef{Site: 2<<20 | 1, Epoch: 1, ID: 1},
		Msg: &site.MsgDelivery{Heap: heap, Label: "get", Args: []wire.Value{
			{Kind: wire.WNet, Net: vm.NetRef{Heap: 9, Site: 2<<20 | 1, Node: 2}}}}}
	if _, err := s.TryDeliver(d); err != nil {
		return err
	}
	for s.Turn() == site.TurnMore {
	}
	if router.unit == nil {
		return fmt.Errorf("mobility driver: applet server shipped no object (site: %v)", s.Err())
	}
	unit := router.unit
	encoded := asm.Encode(unit)

	// The shipped object's method table is the one whose extraction
	// reproduces the unit the site shipped.
	prog := s.Machine().Prog
	egress := func(v vm.Value) (asm.Const, error) {
		return asm.Const{Heap: v.Net.Heap, Site: v.Net.Site, Node: v.Net.Node}, nil
	}
	table := -1
	for t := range prog.Tables {
		u, _, err := prog.Extract([]int{t}, nil, egress)
		if err == nil && bytes.Equal(asm.Encode(u), encoded) {
			table = t
			break
		}
	}
	if table < 0 {
		return fmt.Errorf("mobility driver: no method table extracts to the shipped unit")
	}
	extNs, _ := timeLoop(n, func(int) {
		u, _, err := prog.Extract([]int{table}, nil, egress)
		if err != nil {
			panic(err)
		}
		sink = u
	})
	encNs, _ := timeLoop(n, func(int) { sink = asm.Encode(unit) })
	decNs, _ := timeLoop(n, func(int) {
		u, err := asm.Decode(encoded)
		if err != nil {
			panic(err)
		}
		if err := asm.Verify(u); err != nil {
			panic(err)
		}
		sink = u
	})
	// A client links every arriving applet into the same, growing
	// program; so does the driver.
	client := vm.NewProgram()
	linkNs, _ := timeLoop(n, func(int) {
		l, err := client.Link(unit, nil, nil)
		if err != nil {
			panic(err)
		}
		sink = l
	})
	out["vm.extract_us"] = extNs / 1e3
	out["vm.link_us"] = linkNs / 1e3
	out["asm.encode_us"] = encNs / 1e3
	out["asm.decode_verify_us"] = decNs / 1e3
	out["asm.unit_bytes"] = float64(len(encoded))
	return nil
}

// frontendDrivers runs the three compiler passes over the workload's
// own site sources (at most 200 of them). They are the only drivers
// that depend on the workload.
func frontendDrivers(sources []string) (map[string]float64, error) {
	if len(sources) > 200 {
		sources = sources[:200]
	}
	var parse, check, comp []float64
	for rep := 0; rep < driverReps; rep++ {
		var tp, tc, tk time.Duration
		for i, src := range sources {
			t0 := time.Now()
			proc, err := syntax.Parse(src)
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			info, err := types.Check(proc)
			t2 := time.Now()
			if err != nil {
				return nil, err
			}
			unit, err := compiler.Compile(proc, fmt.Sprint("s", i))
			t3 := time.Now()
			if err != nil {
				return nil, err
			}
			sink = info
			sink = unit
			tp += t1.Sub(t0)
			tc += t2.Sub(t1)
			tk += t3.Sub(t2)
		}
		per := float64(len(sources)) * 1e3
		parse = append(parse, float64(tp)/per)
		check = append(check, float64(tc)/per)
		comp = append(comp, float64(tk)/per)
	}
	return map[string]float64{
		"syntax.parse_us_per_site":     summarize(parse).median,
		"types.check_us_per_site":      summarize(check).median,
		"compiler.compile_us_per_site": summarize(comp).median,
	}, nil
}

// nameserviceDrivers times registrations and (non-blocking, already
// satisfied) lookups on the service Cluster.NS() returns.
func nameserviceDrivers(out map[string]float64, ns nameservice.Service, n int) {
	ctx := context.Background()
	sites := make([]string, n)
	for i := range sites {
		sites[i] = fmt.Sprint("nsdrv", i)
	}
	// A name registers once, so the registrations are a single timed
	// pass rather than timeLoop's median of repetitions.
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	for i, s := range sites {
		if err := ns.RegisterSite(ctx, s, uint32(3<<20|i), 3, 1); err != nil {
			panic(err)
		}
		if err := ns.RegisterName(ctx, s, "a", uint32(i), ""); err != nil {
			panic(err)
		}
	}
	regNs := float64(time.Since(start)) / float64(2*n)
	runtime.ReadMemStats(&b)
	regAl := float64(b.Mallocs-a.Mallocs) / float64(2*n)
	lookNs, lookAl := timeLoop(n, func(i int) {
		ref, _, err := ns.LookupName(ctx, sites[i], "a")
		if err != nil {
			panic(err)
		}
		sink = ref
	})
	out["nameservice.register_ns"] = regNs
	out["nameservice.lookup_ns"] = lookNs
	out["nameservice.allocs_per_call"] = (regAl + lookAl) / 2
}

// planeDrivers times what one message pays each production plane on
// rpc_full: the accepted-record append, the telemetry instruments,
// and one histogram observation.
func planeDrivers(out map[string]float64, n int) error {
	st, err := journal.NewMemFactory().Open("driver")
	if err != nil {
		return err
	}
	jl := site.NewJournal(st)
	body := callMsg().Encode()
	out["journal.append_ns"], _ = timeLoop(n, func(int) {
		if err := jl.AppendAccepted(wire.FMsg, 2, body); err != nil {
			panic(err)
		}
	})
	_ = jl.Close()

	tel := telemetry.New(1, telemetry.Config{})
	op := wire.OpRef{Site: 2<<20 | 1, Epoch: 1, ID: 7}
	out["telemetry.record_ns"], _ = timeLoop(n, func(int) {
		tel.Ship(0, wire.FMsg, op, 2)
		tel.ObserveSojourn(50 * time.Microsecond)
		tel.Deliver(0, wire.FMsg, op, 1<<20|1, false)
	})
	h := telemetry.NewRegistry().Histogram("driver")
	out["stats.observe_ns"], _ = timeLoop(n, func(i int) { h.Observe(float64(1000 + i)) })
	return nil
}

// runDrivers runs the drivers that replay fixed shapes, the same
// whatever the workload, so once per invocation. rng draws the 1 KiB
// payload and the applet constants.
func runDrivers(rng *rand.Rand, smoke bool) (map[string]float64, error) {
	n := 100000
	if smoke {
		n = 2000
	}
	out := map[string]float64{}
	donor, err := core.NewCluster(core.ClusterConfig{})
	if err != nil {
		return nil, err
	}
	defer donor.Stop()
	ns := donor.NS()

	wireDrivers(out, "", callMsg(), n)
	wireDrivers(out, "_1k", bigMsg(rng), n/4)
	if err := transportDrivers(out, n); err != nil {
		return nil, err
	}
	if err := siteDrivers(out, ns, n); err != nil {
		return nil, err
	}
	if err := vmDriver(out, n/2); err != nil {
		return nil, err
	}
	if err := mobilityDrivers(out, ns, rng, n/50); err != nil {
		return nil, err
	}
	nameserviceDrivers(out, ns, n/10)
	if err := planeDrivers(out, n); err != nil {
		return nil, err
	}
	return out, nil
}

// perOp divides a counter by the traced window's op count.
func perOp(v uint64, ops int) float64 { return float64(v) / float64(ops) }

// layerMetrics joins the invocation's shared metrics with the traced
// window's counters and spans and the front-end drivers into the
// workload's per-layer metric set.
func layerMetrics(r *result, shared map[string]float64) map[string]float64 {
	lc, rec := r.counters, r.rec
	m := map[string]float64{}
	for k, v := range shared {
		m[k] = v
	}
	for k, v := range r.front {
		m[k] = v
	}
	frames := lc.rel.DataSent + lc.rel.Retransmits + lc.rel.AcksSent + lc.rel.RawSent
	m["node.remote_deliveries_per_op"] = perOp(lc.remote, lc.ops)
	m["node.local_deliveries_per_op"] = perOp(lc.local, lc.ops)
	m["node.delivery_failures"] = float64(lc.deliveryFailures)
	m["node.msgs_per_frame"] = 0
	m["transport.retransmit_ratio"] = 0
	m["transport.acks_per_data"] = 0
	if lc.rel.DataSent > 0 {
		m["node.msgs_per_frame"] = float64(lc.remote) / float64(lc.rel.DataSent)
		m["transport.retransmit_ratio"] = float64(lc.rel.Retransmits) / float64(lc.rel.DataSent)
		m["transport.acks_per_data"] = float64(lc.rel.AcksSent) / float64(lc.rel.DataSent)
	}
	m["node.sched_steals_per_kop"] = 1000 * perOp(lc.steals, lc.ops)
	m["node.sched_workers"] = float64(lc.workers)
	m["transport.frames_per_op"] = perOp(frames, lc.ops)
	m["transport.expired"] = float64(lc.rel.Expired)
	m["site.fetch_retries"] = float64(lc.fetchRetries)
	m["site.expired_drops"] = float64(lc.expiredDrops)
	m["site.units_linked_per_op"] = perOp(lc.unitsLinked, lc.ops)
	m["nameservice.calls_per_site"] = float64(lc.nsCalls) / float64(lc.sites)
	waits := append([]float64(nil), lc.lookupWaits...)
	sort.Float64s(waits)
	m["nameservice.lookup_wait_us_p50"] = quantile(waits, 0.5) / 1e3
	m["journal.appends_per_op"] = perOp(lc.journalAppends, lc.ops)
	m["journal.bytes_per_op"] = perOp(lc.journalBytes, lc.ops)
	m["termination.detect_ms"] = float64(lc.detect) / 1e6
	m["core.cluster_new_ms"] = summarize(rec.durations("core.cluster_new")).median / 1e6
	m["core.stop_ms"] = summarize(rec.durations("core.stop")).median / 1e6
	m["core.submit_us"] = summarize(rec.durations("core.submit")).median / 1e3

	// A first outside estimate of "Σ stages ≈ end-to-end": what the
	// path drivers say this workload's deliveries and frames cost,
	// against the CPU the whole process spent per op. site.turn
	// already contains the server's VM reductions.
	suffix := ""
	if r.w.name == "stream_1k" {
		suffix = "_1k"
	}
	perRemote := m["wire.encode_ns_per_msg"+suffix] + m["wire.batch_ns_per_entry"+suffix] +
		m["wire.decode_ns_per_msg"+suffix] + m["site.turn_ns_per_delivery"]
	sum := m["node.remote_deliveries_per_op"]*perRemote +
		m["node.local_deliveries_per_op"]*m["site.turn_ns_per_delivery"] +
		m["transport.frames_per_op"]*(m["transport.reliable_ns_per_frame"]+m["transport.mem_ns_per_frame"])
	untraced := r.e2e["ops_per_s"].median
	m["layers.sum_us_per_op"] = sum / 1e3
	m["layers.coverage_ratio"] = sum / 1e3 / r.e2e["cpu_us_per_op"].median
	m["trace.overhead_pct"] = 100 * (untraced - r.tracedOps) / untraced
	return m
}
