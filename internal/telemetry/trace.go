package telemetry

import (
	"fmt"
	"sort"

	"repro/internal/wire"
)

// A trace ID names one causal tree of mobility: the thread that first
// crossed a site boundary and everything its deliveries went on to
// ship. IDs are allocated at the originating node and travel in the
// wire envelope (a trailing varint, 0 = untraced), so every hop of a
// SHIPM→SHIPO→FETCH chain lands in the same tree no matter which node
// recorded it.
//
// The packing is chosen for wire size, not readability: the envelope
// field is a varint, and E12 showed that fat trace IDs are the single
// biggest telemetry cost on a byte-charged link (an ID with high bits
// set costs 5-6 bytes on every envelope). So the common form keeps
// the allocating node in the LOW six bits and the per-node counter
// above them — small node IDs and early counters yield 2-3 byte
// varints — and the rare form (node >= 64) sets the top bit and packs
// node<<32|seq below it, which cannot collide with the common form
// because that caps seq at 2^57.

// NewTraceID composes a trace ID from the allocating node and its
// monotone counter (seq starts at 1; 0 is the "untraced" encoding).
func NewTraceID(node uint32, seq uint64) uint64 {
	if node < 64 && seq < 1<<57 {
		return seq<<6 | uint64(node)
	}
	return 1<<63 | uint64(node)<<32 | (seq & 0xffffffff)
}

// TraceNode extracts the allocating node from a trace ID.
func TraceNode(id uint64) uint32 {
	if id>>63 == 0 {
		return uint32(id & 63)
	}
	return uint32(id>>32) & 0x7fffffff
}

// EventKind says what a flight-recorder event witnessed.
type EventKind uint8

const (
	// EvOrigin: a site allocated this trace ID — the root of the tree.
	EvOrigin EventKind = iota + 1
	// EvShip: a node routed an envelope carrying the trace to a peer
	// (or across the local fast path).
	EvShip
	// EvDeliver: a site applied the delivery (post-dedup — retransmits
	// and duplicates never produce one).
	EvDeliver
	// EvStall: the stall detector flagged a site wedged beyond its
	// threshold (introspection plane; always untraced — a stall is a
	// node-local observation, not a mobility hop).
	EvStall
)

func (k EventKind) String() string {
	switch k {
	case EvOrigin:
		return "origin"
	case EvShip:
		return "ship"
	case EvDeliver:
		return "deliver"
	case EvStall:
		return "stall"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one flight-recorder entry. Fields that don't apply to a
// kind stay zero (an origin has no Op; a ship to the local fast path
// has Peer == Node). Seq is the recorder-assigned per-node sequence
// number — a wall-clock timestamp here would cost a time.Now() on
// every hop of the hot path, and ordering (per node) is all the trace
// tooling needs.
type Event struct {
	Trace uint64         `json:"trace"`
	Kind  EventKind      `json:"kind"`
	Frame wire.FrameType `json:"frame,omitempty"`
	Op    wire.OpRef     `json:"op,omitempty"`
	Node  uint32         `json:"node"`
	Site  uint32         `json:"site,omitempty"`
	Peer  uint32         `json:"peer,omitempty"`
	Seq   uint64         `json:"seq"`
}

func (e Event) String() string {
	switch e.Kind {
	case EvOrigin:
		return fmt.Sprintf("trace %x: origin node=%d site=%d", e.Trace, e.Node, e.Site)
	case EvShip:
		return fmt.Sprintf("trace %x: ship %v op=%v node=%d->%d", e.Trace, e.Frame, e.Op, e.Node, e.Peer)
	default:
		return fmt.Sprintf("trace %x: deliver %v op=%v node=%d site=%d", e.Trace, e.Frame, e.Op, e.Node, e.Site)
	}
}

// Tree is one reconstructed trace: the origin event plus every hop
// recorded anywhere in the cluster, in recording order per node.
type Tree struct {
	Trace  uint64  `json:"trace"`
	Events []Event `json:"events"`
}

// BuildTrees groups events from any number of recorders into one tree
// per trace ID, ordered by trace ID. Untraced events (Trace == 0) are
// dropped — they belong to infrastructure traffic (heartbeats,
// control probes) that never carries a trace.
func BuildTrees(events []Event) []Tree {
	byTrace := map[uint64][]Event{}
	for _, e := range events {
		if e.Trace == 0 {
			continue
		}
		byTrace[e.Trace] = append(byTrace[e.Trace], e)
	}
	ids := make([]uint64, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	trees := make([]Tree, 0, len(ids))
	for _, id := range ids {
		trees = append(trees, Tree{Trace: id, Events: byTrace[id]})
	}
	return trees
}

// VerifyTraces checks the completeness invariant of E12 over a merged
// event stream: every trace tree has exactly one origin, and every
// delivered envelope belongs to exactly one tree — concretely, each
// EvDeliver pairs with an EvShip of the same (trace, op) bound for the
// node that delivered it (op ids count per destination site, so two
// first ops of one trace to two sites share an id and must not vouch
// for each other), and no trace ID was allocated twice. Ship events
// may outnumber delivers (a hop
// shipped but dropped by chaos and retried is recorded once per
// routing decision, and the terminal drop of a crashed peer never
// delivers); a deliver without a ship means a hop was recorded
// nowhere, which is the bug this invariant exists to catch.
func VerifyTraces(events []Event) error {
	type hop struct {
		trace uint64
		op    wire.OpRef
		node  uint32 // destination: the ship's Peer, the deliver's Node
	}
	origins := map[uint64]int{}
	ships := map[hop]int{}
	var delivers []Event
	for _, e := range events {
		if e.Trace == 0 {
			if e.Kind == EvDeliver {
				return fmt.Errorf("telemetry: untraced deliver event %v", e)
			}
			continue
		}
		switch e.Kind {
		case EvOrigin:
			origins[e.Trace]++
		case EvShip:
			ships[hop{e.Trace, e.Op, e.Peer}]++
		case EvDeliver:
			delivers = append(delivers, e)
		}
	}
	for id, n := range origins {
		if n != 1 {
			return fmt.Errorf("telemetry: trace %x has %d origin events, want 1", id, n)
		}
	}
	for _, d := range delivers {
		if origins[d.Trace] == 0 {
			return fmt.Errorf("telemetry: deliver without origin: %v", d)
		}
		if ships[hop{d.Trace, d.Op, d.Node}] == 0 {
			return fmt.Errorf("telemetry: deliver without matching ship: %v", d)
		}
	}
	return nil
}
