package nameservice

import (
	"fmt"
	"sort"

	"repro/internal/wire"
)

// The shard map (DESIGN.md §16) partitions the namespace by
// consistent hashing: each live member of the name-service ring owns
// the key ranges whose hash falls between its virtual nodes and the
// previous ones. Site names are the sharding key — a site's exported
// identifiers and classes hash with it, so one shard owns a site's
// whole namespace and the lease/epoch invariants travel with the name.
//
// The map is versioned: every membership change (a member evicted by
// the gossip layer's conviction, a rejoin, an operator resize)
// produces a new map under version+1. Versions are carried on every
// NS protocol reply, which is how client lease caches learn their
// routing snapshot went stale and flush exactly the moved key ranges.

// Ring-shape bounds. They exist for the decoder: a shard map arrives
// over the wire (opShardMap), and a hostile or corrupt frame must not
// allocate an unbounded ring.
const (
	maxShardMembers = 4096
	maxVnodes       = 1024
	// DefaultVnodes is the virtual-node count per member when a config
	// leaves it zero. 64 keeps the ring balanced within a few percent
	// while a full rebuild stays microseconds.
	DefaultVnodes = 64
)

// ringPoint is one virtual node: a position on the hash circle owned
// by a member.
type ringPoint struct {
	h      uint64
	member uint32
}

// ShardMap is one immutable version of the namespace partition.
// Build new maps with NewShardMap; never mutate a published one —
// readers hold references without locks.
type ShardMap struct {
	Version uint64
	Members []uint32 // sorted, unique
	Vnodes  int
	ring    []ringPoint // sorted by hash
}

// fnv64 hashes a key onto the circle: FNV-1a (inlined to keep the hot
// lookup path allocation-free) followed by a splitmix64-style
// finalizer. The finalizer is load-bearing — raw FNV-1a concentrates
// the difference between near-identical short keys ("site-17",
// "site-18") in a narrow band of bits, and ring placement is a
// total-order comparison, so without avalanching such key families
// cluster onto a handful of arcs and the shards go lopsided.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer (Stafford variant 13).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pointHash places a member's v-th virtual node on the circle. The
// avalanche step (splitmix64 finalizer) matters: member ids are tiny
// sequential integers, and raw FNV over them clusters.
func pointHash(member uint32, v int) uint64 {
	return mix64(uint64(member)<<32 | uint64(uint32(v)))
}

// NewShardMap builds the ring for the given members at the given
// version. Members are deduplicated and sorted; vnodes <= 0 selects
// DefaultVnodes. An empty member set yields a map that owns nothing
// (Owner reports false) — the caller decides whether that is legal.
func NewShardMap(version uint64, members []uint32, vnodes int) *ShardMap {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	seen := map[uint32]bool{}
	ms := make([]uint32, 0, len(members))
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			ms = append(ms, m)
		}
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	sm := &ShardMap{Version: version, Members: ms, Vnodes: vnodes}
	sm.ring = make([]ringPoint, 0, len(ms)*vnodes)
	for _, m := range ms {
		for v := 0; v < vnodes; v++ {
			sm.ring = append(sm.ring, ringPoint{h: pointHash(m, v), member: m})
		}
	}
	sort.Slice(sm.ring, func(i, j int) bool {
		if sm.ring[i].h != sm.ring[j].h {
			return sm.ring[i].h < sm.ring[j].h
		}
		return sm.ring[i].member < sm.ring[j].member
	})
	return sm
}

// Owner returns the member owning key's hash (the first virtual node
// clockwise from it). ok is false only for an empty map.
func (m *ShardMap) Owner(key string) (uint32, bool) {
	if m == nil || len(m.ring) == 0 {
		return 0, false
	}
	h := fnv64(key)
	i := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].h >= h })
	if i == len(m.ring) {
		i = 0 // wrap: the circle's first point owns the top arc
	}
	return m.ring[i].member, true
}

// Moved reports whether key's owner differs between two map versions —
// the per-key predicate behind selective cache flushes (only moved
// ranges are invalidated, DESIGN.md §16).
func Moved(old, new *ShardMap, key string) bool {
	if old == nil || new == nil {
		return true // no old snapshot: everything is suspect
	}
	oo, ook := old.Owner(key)
	no, nok := new.Owner(key)
	return ook != nok || oo != no
}

// EncodeShardMap serializes a map for the opShardMap protocol reply.
// Only the generators travel (version, vnodes, members); the ring is
// rebuilt deterministically on decode.
func EncodeShardMap(m *ShardMap) []byte {
	var w wire.Writer
	w.U(m.Version)
	w.U(uint64(m.Vnodes))
	w.U(uint64(len(m.Members)))
	for _, id := range m.Members {
		w.U(uint64(id))
	}
	return w.Bytes()
}

// DecodeShardMap parses an encoded shard map, rejecting malformed or
// oversized input without panicking (fuzzed: FuzzShardMap).
func DecodeShardMap(data []byte) (*ShardMap, error) {
	r := wire.NewReader(data)
	version, err := r.U()
	if err != nil {
		return nil, fmt.Errorf("nameservice: shard map version: %w", err)
	}
	vn, err := r.U()
	if err != nil {
		return nil, fmt.Errorf("nameservice: shard map vnodes: %w", err)
	}
	if vn == 0 || vn > maxVnodes {
		return nil, fmt.Errorf("nameservice: shard map vnodes %d out of range [1,%d]", vn, maxVnodes)
	}
	n, err := r.U()
	if err != nil {
		return nil, fmt.Errorf("nameservice: shard map member count: %w", err)
	}
	if n > maxShardMembers {
		return nil, fmt.Errorf("nameservice: shard map member count %d exceeds %d", n, maxShardMembers)
	}
	members := make([]uint32, 0, n)
	var prev uint64
	for i := uint64(0); i < n; i++ {
		id, err := r.U()
		if err != nil {
			return nil, fmt.Errorf("nameservice: shard map member %d: %w", i, err)
		}
		if id > 1<<32-1 {
			return nil, fmt.Errorf("nameservice: shard map member %d overflows uint32", id)
		}
		if i > 0 && id <= prev {
			return nil, fmt.Errorf("nameservice: shard map members not strictly ascending (%d after %d)", id, prev)
		}
		prev = id
		members = append(members, uint32(id))
	}
	if !r.Done() {
		return nil, fmt.Errorf("nameservice: %d trailing bytes after shard map", len(r.Rest()))
	}
	return NewShardMap(version, members, int(vn)), nil
}
