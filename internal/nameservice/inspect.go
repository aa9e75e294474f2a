package nameservice

// Introspection is a flattened snapshot of whatever a node's NS stack
// exposes — cache, breaker, shard map — for /metrics, /statusz and
// tycotop. Absent layers leave their Has* flag false.
type Introspection struct {
	HasMap      bool
	MapVersion  uint64
	Transitions uint64
	Forwards    uint64
	Migrated    uint64
	ShardKeys   map[uint32]ShardKeyCounts

	HasCache bool
	Cache    CacheStats

	HasBreaker       bool
	BreakerState     int
	BreakerTrips     uint64
	BreakerFastFails uint64
}

// unwrapper is implemented by the Service decorators (Cache, Breaker).
type unwrapper interface {
	Unwrap() Service
}

// Inspect walks a Service decorator chain and collects every layer's
// introspection snapshot. It accepts any Service; layers it does not
// know contribute nothing.
func Inspect(svc Service) Introspection {
	var out Introspection
	for svc != nil {
		switch t := svc.(type) {
		case *Cache:
			out.HasCache = true
			out.Cache = t.Stats()
		case *Breaker:
			out.HasBreaker = true
			out.BreakerState = t.State()
			out.BreakerTrips = t.Trips()
			out.BreakerFastFails = t.FastFails()
		case *Sharded:
			st := t.Stats()
			out.HasMap = true
			out.MapVersion = st.MapVersion
			out.Transitions = st.Transitions
			out.Forwards = st.Forwards
			out.Migrated = st.Migrated
			out.ShardKeys = st.ShardKeys
		case *Client:
			if v := t.MapVersion(); v > 0 {
				out.HasMap = true
				out.MapVersion = v
			}
		}
		u, ok := svc.(unwrapper)
		if !ok {
			break
		}
		svc = u.Unwrap()
	}
	return out
}
