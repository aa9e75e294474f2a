package telemetry

// Shared shapes of the introspection plane (DESIGN.md §12). They live
// in telemetry — not node — because both ends of the scrape speak
// them: a node renders NodeStatus/Health into /statusz and /healthz,
// and tycotop (or a peer node answering `tycosh cluster`) unmarshals
// them back without importing the runtime.

// SiteStatus is one site's scheduler-observable state, sampled from
// outside the site goroutine via atomic mirrors the run loop keeps
// up to date (site.Status). It powers /statusz rows and feeds the
// stall detector's heuristics.
type SiteStatus struct {
	Name  string `json:"name"`
	ID    uint32 `json:"id"`
	Epoch uint32 `json:"epoch"`
	Idle  bool   `json:"idle"`
	// RunQueue is the VM's runnable-thread count as of the last
	// scheduler turn; Inbox is the incoming queue's current depth.
	RunQueue int `json:"run_queue"`
	Inbox    int `json:"inbox"`
	// ParkedMs is how long the site has been blocked waiting for input
	// (0 while running); LoopAgeMs how long since the run loop last
	// passed its top — a large value with a non-empty inbox means the
	// loop is wedged mid-iteration.
	ParkedMs  int64 `json:"parked_ms"`
	LoopAgeMs int64 `json:"loop_age_ms"`
	// WaitingImports counts program constants whose name-service
	// resolution hasn't landed; ImportWaitMs is how long the oldest
	// current wait has been outstanding.
	WaitingImports int   `json:"waiting_imports"`
	ImportWaitMs   int64 `json:"import_wait_ms"`
	// PendingFetches counts in-flight class-code requests;
	// FetchWaitMs is how long the oldest current wait has been
	// outstanding.
	PendingFetches int   `json:"pending_fetches"`
	FetchWaitMs    int64 `json:"fetch_wait_ms"`
	// Exports is the export-table size (local heap entries with
	// network identities).
	Exports int `json:"exports"`
	// Sent/Recv are the termination-accounting message counters.
	Sent uint64 `json:"sent"`
	Recv uint64 `json:"recv"`
	// Crash-recovery positions: journal appends observed, checkpoints
	// compacted, deliveries since the last checkpoint.
	JournalAppends  uint64 `json:"journal_appends,omitempty"`
	Checkpoints     uint64 `json:"checkpoints,omitempty"`
	SinceCheckpoint int    `json:"since_checkpoint,omitempty"`
	DupDrops        uint64 `json:"dup_drops,omitempty"`
	StaleDrops      uint64 `json:"stale_drops,omitempty"`
	// LeaseError is the site's last name-service keep-alive failure
	// ("" while refreshes succeed) — lease state for /healthz.
	LeaseError string `json:"lease_error,omitempty"`
	Error      string `json:"error,omitempty"`
}

// RelStatus mirrors the reliable delivery layer's counters into
// /statusz.
type RelStatus struct {
	DataSent    uint64 `json:"data_sent"`
	Retransmits uint64 `json:"retransmits"`
	AcksSent    uint64 `json:"acks_sent"`
	AckPiggy    uint64 `json:"ack_piggy"`
	DupDrops    uint64 `json:"dup_drops"`
	FailFasts   uint64 `json:"fail_fasts"`
	// Expired counts frames the layer stopped retransmitting because
	// their deadline passed; BudgetDeferred counts retransmissions
	// postponed by the per-peer retry budget (DESIGN.md §14).
	Expired        uint64   `json:"expired,omitempty"`
	BudgetDeferred uint64   `json:"budget_deferred,omitempty"`
	Unacked        int      `json:"unacked"`
	AckDebt        int      `json:"ack_debt"`
	DownPeers      []uint32 `json:"down_peers,omitempty"`
}

// OverloadStatus is the overload-protection section of /statusz
// (DESIGN.md §14): the admission controller's verdict and the
// shed-work accounting.
type OverloadStatus struct {
	// State: "ok", "warn" or "shed".
	State string `json:"state"`
	// AdmissionSheds counts admissions rejected with ErrOverloaded.
	AdmissionSheds uint64 `json:"admission_sheds"`
	// ExpiredDrops counts deliveries shed at the receiver because
	// their deadline had passed; RelExpired counts frames the sender's
	// reliable layer gave up retransmitting for the same reason.
	ExpiredDrops uint64 `json:"expired_drops"`
	RelExpired   uint64 `json:"rel_expired,omitempty"`
	// FetchRetries counts class fetches re-issued after an overloaded
	// server's pushback.
	FetchRetries uint64 `json:"fetch_retries,omitempty"`
}

// StallReport is one suspected stall: a site that has been wedged on
// the same cause beyond the detector's threshold.
type StallReport struct {
	Site uint32 `json:"site"`
	Name string `json:"name"`
	// Kind: "import" (threads parked on an unresolved import),
	// "fetch" (class-code request outstanding), or "inbox" (queued
	// deliveries with a non-progressing run loop).
	Kind   string `json:"kind"`
	AgeMs  int64  `json:"age_ms"`
	Detail string `json:"detail,omitempty"`
}

// MemberStatus is one row of a node's gossip membership table
// (DESIGN.md §13): the peer's state per this node's agent, its
// incarnation, and the phi-accrual suspicion level.
type MemberStatus struct {
	Node        uint32  `json:"node"`
	State       string  `json:"state"`
	Incarnation uint64  `json:"incarnation"`
	Phi         float64 `json:"phi"`
	LastHeardMs int64   `json:"last_heard_ms"`
	InStateMs   int64   `json:"in_state_ms"`
}

// SchedStatus is the work-stealing scheduler section of /statusz
// (DESIGN.md §15): the worker pool's shape and its per-worker queue
// depths. Queues sums with the sites' own inbox depths to give the
// node's total backlog; Steals counts successful steal batches, the
// load-imbalance signal.
type SchedStatus struct {
	Workers int `json:"workers"`
	Parked  int `json:"parked"`
	Spares  int `json:"spares,omitempty"`
	// Steals counts steal batches taken by all workers since start.
	Steals uint64 `json:"steals_total"`
	// Queues is each worker's current deque depth (ready sites).
	Queues []int `json:"queues"`
}

// RunQueueDepth sums the per-worker deques: the node-level ready-site
// backlog.
func (s *SchedStatus) RunQueueDepth() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, q := range s.Queues {
		n += q
	}
	return n
}

// NSStatus is the name-service section of /statusz (DESIGN.md §16):
// the node's view of the shard map, its client lease cache, and the
// NS circuit breaker. Layers the node runs without stay at their zero
// value and are omitted from the JSON.
type NSStatus struct {
	// MapVersion is the routing snapshot this node last observed; 0
	// means no reply from the authority has been seen yet.
	MapVersion  uint64 `json:"map_version,omitempty"`
	Transitions uint64 `json:"transitions,omitempty"`
	Forwards    uint64 `json:"forwards,omitempty"`
	Migrated    uint64 `json:"migrated,omitempty"`
	// ShardKeys is each shard's live key count (sites+names+classes),
	// present only on a node hosting the sharded authority.
	ShardKeys map[uint32]int `json:"shard_keys,omitempty"`

	CacheHits     uint64  `json:"cache_hits,omitempty"`
	CacheNegHits  uint64  `json:"cache_neg_hits,omitempty"`
	CacheMisses   uint64  `json:"cache_misses,omitempty"`
	CacheFlushed  uint64  `json:"cache_flushed,omitempty"`
	CacheEntries  int     `json:"cache_entries,omitempty"`
	CacheHitRatio float64 `json:"cache_hit_ratio,omitempty"`

	BreakerState     int    `json:"breaker_state,omitempty"`
	BreakerTrips     uint64 `json:"breaker_trips,omitempty"`
	BreakerFastFails uint64 `json:"breaker_fast_fails,omitempty"`
}

// SLOVerdict is one objective's current evaluation (DESIGN.md §17):
// the burn rates of the fast and slow windows, the observed value
// against the target, and the resulting state. It lives in telemetry
// — not slo — because both ends of the scrape speak it: the node
// renders verdicts into /statusz, tycotop and tycobench unmarshal
// them back.
type SLOVerdict struct {
	// Name identifies the objective ("deliver-p99", "error-rate").
	Name string `json:"name"`
	// Objective is the declarative spec the tracker parsed.
	Objective string `json:"objective"`
	// WindowMs is the slow (authoritative) evaluation window.
	WindowMs int64 `json:"window_ms"`
	// Observed is the measured value over the slow window: nanoseconds
	// for latency objectives, a fraction for error rates.
	Observed float64 `json:"observed"`
	// Target is the objective's threshold in the same unit.
	Target float64 `json:"target"`
	// BurnFast/BurnSlow are the error-budget burn rates of the two
	// windows (1.0 = burning exactly the budget).
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`
	// State: "ok", "warn" (one window burning) or "breach" (both).
	State string `json:"state"`
	// Trend is the recent fast-window burn history, oldest first —
	// the tycotop sparkline input.
	Trend []float64 `json:"trend,omitempty"`
}

// WorstSLOState folds a verdict set to its most severe state (""
// when empty): ok < warn < breach.
func WorstSLOState(vs []SLOVerdict) string {
	worst, rank := "", -1
	for _, v := range vs {
		if c := sloStateCode(v.State); c > rank {
			rank, worst = c, v.State
		}
	}
	return worst
}

// MaxSLOBurn folds a verdict set to its highest slow-window burn.
func MaxSLOBurn(vs []SLOVerdict) float64 {
	m := 0.0
	for _, v := range vs {
		if v.BurnSlow > m {
			m = v.BurnSlow
		}
	}
	return m
}

func sloStateCode(s string) int {
	switch s {
	case "ok":
		return 0
	case "warn":
		return 1
	case "breach":
		return 2
	}
	return -1
}

// BurnSparkline renders a burn-rate history as unicode block glyphs,
// scaled so burn 1.0 (budget exactly spent) sits mid-ramp and ≥2
// saturates — the tycotop trend column.
func BurnSparkline(trend []float64) string {
	if len(trend) == 0 {
		return ""
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	out := make([]rune, 0, len(trend))
	for _, v := range trend {
		idx := int(v / 2 * float64(len(glyphs)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(glyphs) {
			idx = len(glyphs) - 1
		}
		out = append(out, glyphs[idx])
	}
	return string(out)
}

// NodeStatus is the /statusz document: one node's full introspection
// snapshot.
type NodeStatus struct {
	Node             uint32          `json:"node"`
	Epoch            uint32          `json:"epoch"`
	LocalDeliveries  uint64          `json:"local_deliveries"`
	RemoteDeliveries uint64          `json:"remote_deliveries"`
	DeliveryFailures uint64          `json:"delivery_failures"`
	Sched            *SchedStatus    `json:"sched,omitempty"`
	Sites            []SiteStatus    `json:"sites"`
	Rel              *RelStatus      `json:"rel,omitempty"`
	Overload         *OverloadStatus `json:"overload,omitempty"`
	NS               *NSStatus       `json:"ns,omitempty"`
	SLO              []SLOVerdict    `json:"slo,omitempty"`
	Stalls           []StallReport   `json:"stalls,omitempty"`
	Strikes          map[string]int  `json:"strikes,omitempty"`
	Members          []MemberStatus  `json:"members,omitempty"`
	Draining         bool            `json:"draining,omitempty"`
	Error            string          `json:"error,omitempty"`
}

// Health statuses, ordered by severity.
const (
	HealthOK       = "ok"       // no local trouble
	HealthDegraded = "degraded" // alive, but something needs an operator's eye
	HealthDown     = "down"     // node error or a site out of restart budget
)

// Health is the /healthz document. Status is derived from membership
// state (suspected peers), lease/supervision strikes, suspected
// stalls, and terminal node errors; Reasons says why anything
// non-ok was concluded.
type Health struct {
	Node    uint32   `json:"node"`
	Status  string   `json:"status"`
	Reasons []string `json:"reasons,omitempty"`
}
