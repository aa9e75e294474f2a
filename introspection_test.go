// Introspection-plane integration tests (DESIGN.md §12): the
// aggregated tycotop cluster view over live /metrics + /statusz +
// /healthz endpoints, and the stall detector's two contracted
// behaviours — a site wedged on a crashed, never-recovering exporter
// is flagged within the threshold, while the same wedge under a mere
// partition (failure detector suspicion active) is suppressed.
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/nameservice"
	"repro/internal/node"
	"repro/internal/slo"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// appletServer exports a class; instantiating it from another node
// forces a class-code fetch (FFetchReq) — the wedge vehicle for the
// stall tests, and real mobility traffic for the cluster view.
const appletServer = `export def Applet(x) = println("applet running", x) in inaction`

// saveStatuszArtifact scrapes the whole cluster and writes the
// aggregated view under TEST_TELEMETRY_DIR, so the CI soak jobs
// upload a /statusz snapshot alongside the journals and trace dumps.
func saveStatuszArtifact(t *testing.T, cl *core.Cluster) {
	t.Cleanup(func() {
		base := os.Getenv("TEST_TELEMETRY_DIR")
		if base == "" {
			return
		}
		if err := os.MkdirAll(base, 0o755); err != nil {
			t.Logf("statusz dir: %v", err)
			return
		}
		view := telemetry.ScrapeCluster(cl.IntrospectionAddrs(), 3*time.Second)
		name := strings.ReplaceAll(t.Name(), "/", "_") + "-statusz.json"
		path := filepath.Join(base, name)
		if err := os.WriteFile(path, view.JSON(), 0o644); err != nil {
			t.Logf("statusz artifact: %v", err)
			return
		}
		t.Logf("statusz artifact written to %s", path)
		// When the cluster runs the analytics plane, split the retained
		// time series and SLO verdicts into their own artifacts so the
		// soak uploads a browsable trend/verdict history.
		type analytics struct {
			Node uint32                 `json:"node"`
			TS   *telemetry.TSDoc       `json:"ts,omitempty"`
			SLO  []telemetry.SLOVerdict `json:"slo,omitempty"`
		}
		var docs []analytics
		for _, v := range view.Nodes {
			if v.TS != nil || len(v.Status.SLO) > 0 {
				docs = append(docs, analytics{Node: v.Node, TS: v.TS, SLO: v.Status.SLO})
			}
		}
		if len(docs) == 0 {
			return
		}
		data, err := json.MarshalIndent(docs, "", "  ")
		if err != nil {
			t.Logf("analytics artifact: %v", err)
			return
		}
		apath := filepath.Join(base, strings.ReplaceAll(t.Name(), "/", "_")+"-analytics.json")
		if err := os.WriteFile(apath, append(data, '\n'), 0o644); err != nil {
			t.Logf("analytics artifact: %v", err)
			return
		}
		t.Logf("analytics artifact written to %s", apath)
	})
}

// TestIntrospectionClusterView boots a 3-node cluster with the
// Introspection knob, runs real cross-node traffic, and drives the
// exact pipeline tycotop uses: enumerate endpoints via the name
// service, scrape every node (strict OpenMetrics parse included), and
// render the aggregated table.
func TestIntrospectionClusterView(t *testing.T) {
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes:       3,
		Reliability: &transport.ReliableConfig{},
		Introspection: &node.IntrospectConfig{
			TimeSeries: telemetry.TSConfig{Interval: 50 * time.Millisecond, Capacity: 64},
			SLO: &slo.Config{
				Objectives: []string{"p99(deliver.sojourn_nanos)<50ms"},
				FastWindow: 200 * time.Millisecond,
				SlowWindow: time.Second,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	// Registered after cl.Stop so the LIFO cleanup order scrapes the
	// still-live cluster before it is torn down.
	saveStatuszArtifact(t, cl)

	hubOut := &lockedWriter{}
	if _, err := cl.Submit(0, "hub", `export new bus (def Pump(self) = self?(v) = (println("hub", v) | Pump[self]) in Pump[bus])`, hubOut); err != nil {
		t.Fatal(err)
	}
	outs := make([]*lockedWriter, 2)
	for i := range outs {
		outs[i] = &lockedWriter{}
		src := fmt.Sprintf(`import bus from hub in bus![%d]`, i+1)
		if _, err := cl.Submit(1+i, fmt.Sprintf("spoke%d", i), src, outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := cl.Wait(ctx); err != nil {
		t.Fatalf("cluster never terminated: %v", err)
	}

	// Endpoint advertisement: the name service must enumerate exactly
	// the addresses the nodes bound.
	addrs := cl.IntrospectionAddrs()
	if len(addrs) != 3 {
		t.Fatalf("IntrospectionAddrs = %v, want 3 entries", addrs)
	}
	eps, err := cl.NS().Endpoints(ctx, nameservice.EndpointIntrospect)
	if err != nil {
		t.Fatalf("NS endpoint enumeration: %v", err)
	}
	for id, addr := range addrs {
		if eps[id] != addr {
			t.Errorf("NS advertises node %d at %q, bound at %q", id, eps[id], addr)
		}
	}

	// The tycotop pipeline proper. ScrapeNode strict-parses /metrics,
	// so an exposition a real ingester would reject fails here.
	view := telemetry.ScrapeCluster(eps, 5*time.Second)
	if len(view.Nodes) != 3 {
		t.Fatalf("cluster view has %d nodes, want 3", len(view.Nodes))
	}
	for _, v := range view.Nodes {
		if v.Err != "" {
			t.Fatalf("node %d scrape failed: %s", v.Node, v.Err)
		}
		if v.Health.Status != telemetry.HealthOK {
			t.Errorf("node %d health = %q (%v), want ok", v.Node, v.Health.Status, v.Health.Reasons)
		}
		if _, ok := v.Metrics["dityco_deliver_local_total"]; !ok {
			t.Errorf("node %d /metrics missing dityco_deliver_local_total: %d keys", v.Node, len(v.Metrics))
		}
	}
	// /statusz carries the per-site rows: the hub exported its bus and
	// exchanged termination-accounted messages with the spokes.
	var hub *telemetry.SiteStatus
	for i := range view.Nodes[0].Status.Sites {
		if view.Nodes[0].Status.Sites[i].Name == "hub" {
			hub = &view.Nodes[0].Status.Sites[i]
		}
	}
	if hub == nil {
		t.Fatalf("node 1 /statusz has no hub site: %+v", view.Nodes[0].Status.Sites)
	}
	if hub.Exports == 0 {
		t.Errorf("hub export-table size = 0, want > 0")
	}
	if hub.Recv == 0 {
		t.Errorf("hub recv counter = 0, want > 0")
	}

	// The analytics plane end to end: every node retains time series,
	// serves them over /timeseries, and evaluates its SLO objective.
	// The hub delivered real traffic, so node 1's retained sojourn
	// histogram must merge into a non-empty cluster distribution.
	waitCond(t, 10*time.Second, func() bool {
		view = telemetry.ScrapeCluster(eps, 5*time.Second)
		for _, v := range view.Nodes {
			if v.Err != "" || v.TS == nil || len(v.Status.SLO) == 0 {
				return false
			}
		}
		return view.WindowDist("deliver.sojourn_nanos", time.Minute).Total() > 0
	})
	for _, v := range view.Nodes {
		if v.TS.IntervalMs != 50 {
			t.Errorf("node %d /timeseries interval %dms, want 50", v.Node, v.TS.IntervalMs)
		}
		for _, sv := range v.Status.SLO {
			if sv.Name != "p99-deliver.sojourn_nanos" || sv.State == "" {
				t.Errorf("node %d verdict %+v", v.Node, sv)
			}
		}
	}
	merged := view.WindowDist("deliver.sojourn_nanos", time.Minute)
	if merged.Total() == 0 || merged.Quantile(99) <= 0 {
		t.Errorf("cluster-merged sojourn distribution empty: total %d", merged.Total())
	}

	table := view.RenderTable()
	for _, want := range []string{"NODE", "HEALTH", "SLO", "BURN", "all"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	for _, addr := range addrs {
		if !strings.Contains(table, addr) {
			t.Errorf("table missing endpoint %s:\n%s", addr, table)
		}
	}
	if strings.Count(table, "\n") < 4 { // header + 3 rows + totals
		t.Errorf("table too short:\n%s", table)
	}
}

// TestStallDetectorFlagsCrashedExporter wedges two sites on a node
// that crashed and never recovers — one mid class fetch, one on an
// import that can never resolve — with no failure detector running,
// so nothing is marked down and suppression must not engage. Both
// wedges have to surface in /statusz, /healthz, and the
// dityco_stalls_suspected counter within the configured threshold
// (plus sampling slack).
func TestStallDetectorFlagsCrashedExporter(t *testing.T) {
	const threshold = 250 * time.Millisecond
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes:       2,
		Chaos:       &transport.ChaosConfig{Seed: *chaosSeed}, // zero rates: fault injection only for Crash blackholing
		Reliability: &transport.ReliableConfig{},
		Introspection: &node.IntrospectConfig{
			Stall: node.StallConfig{Threshold: threshold, Interval: threshold / 5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	// Registered after cl.Stop so the LIFO cleanup order scrapes the
	// still-live cluster before it is torn down.
	saveStatuszArtifact(t, cl)

	serverOut := &lockedWriter{}
	if _, err := cl.Submit(1, "server", appletServer, serverOut); err != nil {
		t.Fatal(err)
	}
	// Prove the export is registered and fetchable before the crash.
	warmOut := &lockedWriter{}
	if _, err := cl.Submit(0, "warmup", `import Applet from server in Applet[0]`, warmOut); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 30*time.Second, func() bool {
		return strings.Contains(warmOut.String(), "applet running 0")
	})

	cl.Crash(1)

	// wedged resolves its import from the (still-registered) name
	// service, then fetches class code from the dead node: fetch wedge.
	// ghostly imports from a site that never existed: import wedge.
	start := time.Now()
	if _, err := cl.Submit(0, "wedged", `import Applet from server in Applet[7]`, &lockedWriter{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(0, "ghostly", `import x from nowhere in x![1]`, &lockedWriter{}); err != nil {
		t.Fatal(err)
	}

	stallKinds := func() map[string]bool {
		kinds := map[string]bool{}
		for _, r := range cl.Node(0).Status().Stalls {
			kinds[r.Name+"/"+r.Kind] = true
		}
		return kinds
	}
	waitCond(t, 10*time.Second, func() bool {
		k := stallKinds()
		return k["wedged/fetch"] && k["ghostly/import"]
	})
	elapsed := time.Since(start)
	if elapsed > 10*threshold {
		t.Errorf("stalls took %v to surface with threshold %v", elapsed, threshold)
	}
	t.Logf("both wedges flagged after %v (threshold %v)", elapsed, threshold)

	// End to end through the HTTP plane: the counter ticked once per
	// (site, cause) transition, the gauge shows both active, and
	// /healthz degraded with stall reasons.
	v := telemetry.ScrapeNode(nil, 1, cl.Node(0).IntrospectionAddr())
	if v.Err != "" {
		t.Fatalf("scrape: %s", v.Err)
	}
	if got := v.Metrics["dityco_stalls_suspected_total"]; got < 2 {
		t.Errorf("dityco_stalls_suspected_total = %v, want >= 2", got)
	}
	if got := v.Metrics["dityco_stalls_active"]; got < 2 {
		t.Errorf("dityco_stalls_active = %v, want >= 2", got)
	}
	if v.Health.Status != telemetry.HealthDegraded {
		t.Errorf("health = %q (%v), want degraded", v.Health.Status, v.Health.Reasons)
	}
	found := false
	for _, r := range v.Health.Reasons {
		if strings.Contains(r, "suspected stall") {
			found = true
		}
	}
	if !found {
		t.Errorf("healthz reasons carry no stall: %v", v.Health.Reasons)
	}
}

// TestStallDetectorSuppressedDuringPartition is the false-positive
// control: the identical class-fetch wedge, but the exporter's node is
// merely partitioned and the failure detector is running. Suspicion
// marks the peer down at the reliable layer, which must suppress the
// stall verdict — the wedge has a known external cause. After Heal the
// parked fetch flushes and the computation completes.
func TestStallDetectorSuppressedDuringPartition(t *testing.T) {
	const threshold = 300 * time.Millisecond
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes: 2,
		Chaos: &transport.ChaosConfig{Seed: *chaosSeed},
		// Park, so the wedged fetch survives the suspicion window and
		// flushes after Heal instead of being dropped fail-fast.
		Reliability: &transport.ReliableConfig{Park: true},
		Detect:      &membership.Config{ProbeInterval: 10 * time.Millisecond, SuspectAfter: 80 * time.Millisecond},
		Introspection: &node.IntrospectConfig{
			Stall: node.StallConfig{Threshold: threshold, Interval: threshold / 5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	// Registered after cl.Stop so the LIFO cleanup order scrapes the
	// still-live cluster before it is torn down.
	saveStatuszArtifact(t, cl)

	serverOut := &lockedWriter{}
	if _, err := cl.Submit(1, "server", appletServer, serverOut); err != nil {
		t.Fatal(err)
	}
	cl.Chaos().Partition(1, 2)
	// Wait for suspicion to reach the reliable layer, so the wedge
	// starts inside the suppression window rather than racing it.
	waitCond(t, 10*time.Second, func() bool {
		st := cl.Node(0).Status()
		return st.Rel != nil && len(st.Rel.DownPeers) > 0
	})

	clientOut := &lockedWriter{}
	if _, err := cl.Submit(0, "applet", `import Applet from server in Applet[7]`, clientOut); err != nil {
		t.Fatal(err)
	}

	// Hold the partition for several thresholds: the fetch is wedged
	// the whole time, and the detector must stay silent.
	deadline := time.Now().Add(4 * threshold)
	for time.Now().Before(deadline) {
		if stalls := cl.Node(0).Status().Stalls; len(stalls) > 0 {
			t.Fatalf("stall flagged during partition (peer known down): %+v", stalls)
		}
		time.Sleep(threshold / 6)
	}
	if got := cl.Node(0).TelemetrySnapshot().Metrics["stalls.suspected"]; got != 0 {
		t.Fatalf("stalls.suspected = %v during partition, want 0", got)
	}

	cl.Chaos().Heal(1, 2)
	waitCond(t, 30*time.Second, func() bool {
		return strings.Contains(clientOut.String(), "applet running 7")
	})
	t.Logf("fetch completed after heal; no stall was ever flagged during the partition")
}

// TestShardedNSClusterIntrospection boots a cluster on the full
// sharded name-service stack (DESIGN.md §16) — consistent-hash shards
// as the shared authority, a per-node circuit breaker and client
// lease cache in front — runs real import/export traffic through it,
// and asserts the NS plane surfaces everywhere an operator looks:
// /statusz NS section, dityco_ns_* gauges, and the tycotop table.
func TestShardedNSClusterIntrospection(t *testing.T) {
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes:         3,
		NSShards:      3,
		NSCache:       &nameservice.CacheConfig{TTL: 2 * time.Second},
		NSBreaker:     &nameservice.BreakerConfig{},
		Reliability:   &transport.ReliableConfig{},
		Introspection: &node.IntrospectConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	hubOut := &lockedWriter{}
	if _, err := cl.Submit(0, "hub", `export new bus (def Pump(self) = self?(v) = (println("hub", v) | Pump[self]) in Pump[bus])`, hubOut); err != nil {
		t.Fatal(err)
	}
	outs := make([]*lockedWriter, 2)
	for i := range outs {
		outs[i] = &lockedWriter{}
		src := fmt.Sprintf(`import bus from hub in bus![%d]`, i+1)
		if _, err := cl.Submit(1+i, fmt.Sprintf("spoke%d", i), src, outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := cl.Wait(ctx); err != nil {
		t.Fatalf("cluster never terminated: %v", err)
	}

	view := telemetry.ScrapeCluster(cl.IntrospectionAddrs(), 5*time.Second)
	if len(view.Nodes) != 3 {
		t.Fatalf("cluster view has %d nodes, want 3", len(view.Nodes))
	}
	var cacheTraffic uint64
	for _, v := range view.Nodes {
		if v.Err != "" {
			t.Fatalf("node %d scrape failed: %s", v.Node, v.Err)
		}
		ns := v.Status.NS
		if ns == nil {
			t.Fatalf("node %d /statusz has no ns section", v.Node)
		}
		if ns.MapVersion == 0 {
			t.Errorf("node %d sees map version 0, want the sharded map", v.Node)
		}
		if len(ns.ShardKeys) == 0 {
			t.Errorf("node %d reports no shard key counts", v.Node)
		}
		cacheTraffic += ns.CacheHits + ns.CacheNegHits + ns.CacheMisses
		if got := v.Metrics["dityco_ns_map_version"]; got == 0 {
			t.Errorf("node %d dityco_ns_map_version = %v, want > 0", v.Node, got)
		}
		if _, ok := v.Metrics["dityco_ns_cache_hit_bp"]; !ok {
			t.Errorf("node %d /metrics missing dityco_ns_cache_hit_bp", v.Node)
		}
		if _, ok := v.Metrics["dityco_ns_breaker_state"]; !ok {
			t.Errorf("node %d /metrics missing dityco_ns_breaker_state", v.Node)
		}
	}
	if cacheTraffic == 0 {
		t.Error("no node's lease cache saw any lookup traffic")
	}
	// Every shard's key count, summed across any node's view, covers
	// the three registered sites (plus the exported bus name).
	total := 0
	for _, keys := range view.Nodes[0].Status.NS.ShardKeys {
		total += keys
	}
	if total < 3 {
		t.Errorf("shard key counts sum to %d, want >= 3 registered sites", total)
	}
	table := view.RenderTable()
	if !strings.Contains(table, "ns: node") {
		t.Errorf("table missing ns detail lines:\n%s", table)
	}
}
