package node

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/admission"
	"repro/internal/nameservice"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// The node half of the introspection plane (DESIGN.md §12): the HTTP
// observability server over this node's telemetry, the /statusz and
// /healthz documents, and the stall detector that samples every site's
// scheduler probe.

// StallConfig tunes the stall detector.
type StallConfig struct {
	// Interval is the sampling period (default Threshold/4).
	Interval time.Duration
	// Threshold is how long a site may stay wedged on one cause —
	// imports unresolved, a fetch outstanding, or an inbox queued
	// against a silent run loop — before the detector flags it.
	// Default 2s. Reports are suppressed for as long as any peer is
	// down or suspect.
	Threshold time.Duration
}

func (c StallConfig) withDefaults() StallConfig {
	if c.Threshold <= 0 {
		c.Threshold = 2 * time.Second
	}
	if c.Interval <= 0 {
		c.Interval = c.Threshold / 4
	}
	return c
}

// IntrospectConfig tunes the node's observability endpoint.
type IntrospectConfig struct {
	// Listen is the HTTP bind address; default "127.0.0.1:0" (loopback,
	// kernel-assigned port — introspection is an operator plane, not a
	// public one).
	Listen string
	// Stall tunes the stall detector (zero value: defaults).
	Stall StallConfig
	// TimeSeries tunes the retained metric history served at
	// /timeseries (DESIGN.md §17). The zero value samples every second
	// into a 120-window ring; set Disable to opt out. Retention needs
	// telemetry: with ClusterConfig.Telemetry unset there is no
	// registry to sample and the store stays off.
	TimeSeries telemetry.TSConfig
	// SLO declares burn-rate objectives evaluated every analytics tick
	// against the retained time series; nil disables SLO tracking.
	SLO *slo.Config
}

// stallKey identifies one stall condition for edge detection: the
// suspected-stalls counter counts transitions, not samples.
type stallKey struct {
	site uint32
	kind string
}

// startIntrospection binds the HTTP server and starts the stall
// detector plus (when telemetry is on) the analytics ticker that
// samples the time-series store and evaluates SLO objectives. Runs
// once from New when Config.Introspect is set.
func (n *Node) startIntrospection(cfg IntrospectConfig) error {
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	var ts *telemetry.TimeSeries
	if !cfg.TimeSeries.Disable && n.tel != nil {
		ts = telemetry.NewTimeSeries(n.tel.Registry(), n.cfg.ID, cfg.TimeSeries)
	}
	var tracker *slo.Tracker
	if cfg.SLO != nil && ts != nil {
		var err error
		tracker, err = slo.NewTracker(*cfg.SLO, ts, n.tel.Registry())
		if err != nil {
			return err
		}
	}
	srv, err := telemetry.ServeIntrospection(cfg.Listen, telemetry.HTTPConfig{
		Registry:   n.tel.Registry(),
		Recorder:   n.tel.Recorder(),
		Status:     n.Status,
		Health:     n.Health,
		Refresh:    n.refreshTelemetryGauges,
		TimeSeries: ts,
	})
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.intro = srv
	n.ts = ts
	n.sloTracker = tracker
	n.mu.Unlock()
	go n.stallLoop(cfg.Stall.withDefaults())
	if ts != nil {
		go n.analyticsLoop(ts, tracker)
	}
	return nil
}

// analyticsLoop drives the time-series sampler and SLO evaluation at
// the store's interval until the node stops. Gauges are refreshed
// first so retained scalar series carry pull-time state (rel/sched/
// admission mirrors), not whatever the last /metrics scrape left.
func (n *Node) analyticsLoop(ts *telemetry.TimeSeries, tracker *slo.Tracker) {
	t := time.NewTicker(ts.Interval())
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			n.refreshTelemetryGauges()
			ts.Sample(now)
			tracker.Evaluate(now)
		case <-n.stop:
			return
		}
	}
}

// TimeSeries returns the node's retained metric history (nil when
// retention is off).
func (n *Node) TimeSeries() *telemetry.TimeSeries {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ts
}

// SLOVerdicts returns the latest objective evaluations (nil when SLO
// tracking is off or nothing has been evaluated yet).
func (n *Node) SLOVerdicts() []telemetry.SLOVerdict {
	n.mu.Lock()
	tracker := n.sloTracker
	n.mu.Unlock()
	return tracker.Verdicts()
}

// IntrospectionAddr returns the observability server's bound address
// ("" when introspection is off or failed to bind).
func (n *Node) IntrospectionAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.intro == nil {
		return ""
	}
	return n.intro.Addr()
}

// noteStrike records one supervised restart for /healthz.
func (n *Node) noteStrike(siteName string) {
	n.mu.Lock()
	if n.strikes == nil {
		n.strikes = map[string]int{}
	}
	n.strikes[siteName]++
	n.mu.Unlock()
}

// Strikes copies the supervised-restart counts per site name.
func (n *Node) Strikes() map[string]int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.strikes) == 0 {
		return nil
	}
	out := make(map[string]int, len(n.strikes))
	for k, v := range n.strikes {
		out[k] = v
	}
	return out
}

// Status samples the node's full introspection state — the /statusz
// document. Safe from any goroutine; cost is paid by the caller.
func (n *Node) Status() telemetry.NodeStatus {
	st := telemetry.NodeStatus{
		Node:             n.cfg.ID,
		Epoch:            n.cfg.Epoch,
		LocalDeliveries:  n.localDeliveries.Load(),
		RemoteDeliveries: n.remoteDeliveries.Load(),
		DeliveryFailures: n.deliveryFailures.Load(),
		Strikes:          n.Strikes(),
	}
	ss := n.sched.stats()
	st.Sched = &telemetry.SchedStatus{
		Workers: ss.workers,
		Parked:  ss.parked,
		Spares:  ss.spares,
		Steals:  ss.steals,
		Queues:  ss.queues,
	}
	sites := n.Sites()
	sort.Slice(sites, func(i, j int) bool { return sites[i].ID() < sites[j].ID() })
	for _, s := range sites {
		st.Sites = append(st.Sites, s.Status())
	}
	if n.rel != nil {
		rs := n.rel.Stats()
		rel := &telemetry.RelStatus{
			DataSent:       rs.DataSent,
			Retransmits:    rs.Retransmits,
			AcksSent:       rs.AcksSent,
			AckPiggy:       rs.AckPiggy,
			DupDrops:       rs.DupDrops,
			FailFasts:      rs.FailFasts,
			Expired:        rs.Expired,
			BudgetDeferred: rs.BudgetDeferred,
			Unacked:        n.rel.Unacked(),
			AckDebt:        n.rel.AckDebt(),
		}
		for id := range n.rel.DownPeers() {
			rel.DownPeers = append(rel.DownPeers, id)
		}
		sort.Slice(rel.DownPeers, func(i, j int) bool { return rel.DownPeers[i] < rel.DownPeers[j] })
		st.Rel = rel
	}
	if m := n.mem.Load(); m != nil {
		snap := m.Snapshot()
		sort.Slice(snap, func(i, j int) bool { return snap[i].Node < snap[j].Node })
		for _, mi := range snap {
			st.Members = append(st.Members, telemetry.MemberStatus{
				Node:        mi.Node,
				State:       mi.State.String(),
				Incarnation: mi.Inc,
				Phi:         mi.Phi,
				LastHeardMs: mi.LastHeard.Milliseconds(),
				InStateMs:   mi.InState.Milliseconds(),
			})
		}
	}
	if n.adm != nil {
		ov := &telemetry.OverloadStatus{
			State:          n.adm.State().String(),
			AdmissionSheds: n.adm.Sheds(),
			ExpiredDrops:   n.ExpiredDrops(),
		}
		if n.rel != nil {
			ov.RelExpired = n.rel.Stats().Expired
		}
		for _, s := range n.Sites() {
			ov.FetchRetries += s.FetchRetries()
		}
		st.Overload = ov
	}
	if n.cfg.NS != nil {
		if in := nameservice.Inspect(n.cfg.NS); in.HasMap || in.HasCache || in.HasBreaker {
			ns := &telemetry.NSStatus{
				MapVersion:       in.MapVersion,
				Transitions:      in.Transitions,
				Forwards:         in.Forwards,
				Migrated:         in.Migrated,
				BreakerState:     in.BreakerState,
				BreakerTrips:     in.BreakerTrips,
				BreakerFastFails: in.BreakerFastFails,
			}
			if len(in.ShardKeys) > 0 {
				ns.ShardKeys = make(map[uint32]int, len(in.ShardKeys))
				for shard, keys := range in.ShardKeys {
					ns.ShardKeys[shard] = keys.Total()
				}
			}
			if in.HasCache {
				ns.CacheHits = in.Cache.Hits
				ns.CacheNegHits = in.Cache.NegHits
				ns.CacheMisses = in.Cache.Misses
				ns.CacheFlushed = in.Cache.Flushed
				ns.CacheEntries = in.Cache.Entries
				ns.CacheHitRatio = in.Cache.HitRatio()
			}
			st.NS = ns
		}
	}
	st.SLO = n.SLOVerdicts()
	st.Draining = n.Draining()
	n.stallMu.Lock()
	st.Stalls = append([]telemetry.StallReport(nil), n.stalls...)
	n.stallMu.Unlock()
	if err := n.Err(); err != nil {
		st.Error = err.Error()
	}
	return st
}

// Health derives the /healthz verdict: a node error or a site out of
// restart budget reads down; strikes, failing leases, down peers and
// suspected stalls read degraded. Reasons list every contribution.
func (n *Node) Health() telemetry.Health {
	h := telemetry.Health{Node: n.cfg.ID, Status: telemetry.HealthOK}
	degrade := func(reason string) {
		if h.Status == telemetry.HealthOK {
			h.Status = telemetry.HealthDegraded
		}
		h.Reasons = append(h.Reasons, reason)
	}
	if err := n.Err(); err != nil {
		h.Status = telemetry.HealthDown
		h.Reasons = append(h.Reasons, "node error: "+err.Error())
	}
	strikes := n.Strikes()
	names := make([]string, 0, len(strikes))
	for name := range strikes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		degrade(fmt.Sprintf("site %q restarted %d time(s)", name, strikes[name]))
	}
	sites := n.Sites()
	sort.Slice(sites, func(i, j int) bool { return sites[i].ID() < sites[j].ID() })
	for _, s := range sites {
		st := s.Status()
		if st.LeaseError != "" {
			degrade(fmt.Sprintf("site %q lease refresh failing: %s", st.Name, st.LeaseError))
		}
	}
	if n.rel != nil {
		down := n.rel.DownPeers()
		peers := make([]uint32, 0, len(down))
		for id := range down {
			peers = append(peers, id)
		}
		sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
		for _, id := range peers {
			degrade(fmt.Sprintf("peer %d down for %s", id, time.Since(down[id]).Round(time.Millisecond)))
		}
	}
	n.stallMu.Lock()
	stalls := append([]telemetry.StallReport(nil), n.stalls...)
	n.stallMu.Unlock()
	for _, r := range stalls {
		degrade(fmt.Sprintf("suspected stall: site %q wedged on %s for %dms", r.Name, r.Kind, r.AgeMs))
	}
	return h
}

// stallLoop samples every site's scheduler probe at the configured
// period until the node stops.
func (n *Node) stallLoop(cfg StallConfig) {
	t := time.NewTicker(cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			n.sampleStalls(cfg)
		case <-n.stop:
			return
		}
	}
}

// sampleStalls runs one detector pass: read each site's probe, apply
// the wedge heuristics, suppress while a peer is known down, and
// publish transitions to the flight recorder and the
// dityco_stalls_suspected counter.
func (n *Node) sampleStalls(cfg StallConfig) {
	// Suppression: while any peer has a known outage — marked down in
	// the reliable layer, or held in the membership agent's suspect
	// state (not yet convicted, so possibly absent from DownPeers when
	// no reliable layer is attached) — a wedged site has a known
	// external cause; flagging it would be a false positive.
	suppressed := n.rel != nil && len(n.rel.DownPeers()) > 0
	if m := n.mem.Load(); m != nil && len(m.SuspectSince()) > 0 {
		suppressed = true
	}
	// While the admission controller is shedding, a backed-up inbox or
	// a slow fetch is the overload plane doing its job — expired frames
	// are dropped and fetches answered with pushback by design, not a
	// wedged scheduler. Flagging those as stalls would page an operator
	// for behaviour /statusz already explains in its overload section.
	if n.adm.State() == admission.Shed {
		suppressed = true
	}
	thresholdMs := cfg.Threshold.Milliseconds()
	var reports []telemetry.StallReport
	if !suppressed {
		for _, s := range n.Sites() {
			st := s.Status()
			if st.Error != "" {
				continue // dead sites are the supervisor's problem
			}
			switch {
			case st.ImportWaitMs >= thresholdMs:
				reports = append(reports, telemetry.StallReport{
					Site: st.ID, Name: st.Name, Kind: "import", AgeMs: st.ImportWaitMs,
					Detail: fmt.Sprintf("%d import(s) unresolved", st.WaitingImports),
				})
			case st.FetchWaitMs >= thresholdMs:
				reports = append(reports, telemetry.StallReport{
					Site: st.ID, Name: st.Name, Kind: "fetch", AgeMs: st.FetchWaitMs,
					Detail: fmt.Sprintf("%d class fetch(es) outstanding", st.PendingFetches),
				})
			case st.Inbox > 0 && st.ParkedMs == 0 && st.LoopAgeMs >= thresholdMs:
				reports = append(reports, telemetry.StallReport{
					Site: st.ID, Name: st.Name, Kind: "inbox", AgeMs: st.LoopAgeMs,
					Detail: fmt.Sprintf("%d delivery(ies) queued against a silent run loop", st.Inbox),
				})
			}
		}
		sort.Slice(reports, func(i, j int) bool { return reports[i].Site < reports[j].Site })
	}
	seen := make(map[stallKey]bool, len(reports))
	var fresh []telemetry.StallReport
	n.stallMu.Lock()
	for _, r := range reports {
		k := stallKey{site: r.Site, kind: r.Kind}
		seen[k] = true
		if !n.stallSeen[k] {
			fresh = append(fresh, r)
		}
	}
	n.stallSeen = seen
	n.stalls = reports
	n.stallMu.Unlock()
	for _, r := range fresh {
		// Transition, not level: one counter tick and one recorder
		// event per newly suspected (site, cause).
		n.tel.AddCounter("stalls.suspected", 1)
		n.tel.Recorder().Record(telemetry.Event{
			Kind: telemetry.EvStall, Node: n.cfg.ID, Site: r.Site,
		})
	}
	n.tel.SetGauge("stalls.active", int64(len(reports)))
}
