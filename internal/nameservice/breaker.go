package nameservice

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/vm"
)

// Circuit breaker for the name service (DESIGN.md §14). A client whose
// lookups keep timing out against a sick server should stop hammering
// it — every doomed call holds a goroutine, a pending table slot, and a
// share of the server's queue that paying customers need. The breaker
// wraps any Service (normally a *Client) and fails lookups fast while
// the downstream is sick.
//
// It keeps one circuit per shard owner, routed by the same key → owner
// mapping the authority uses, so a hot or dead shard opens only its own
// circuit and lookups under every other key range keep flowing. With no
// shard map (the wrapped service is not a MapSource, or the map fetch
// failed), a single-member ring, or no key (Endpoints), calls share
// circuit 0.
//
// Only the blocking lookups are gated. Registrations and KeepAlive are
// control traffic: they are what lets a site keep its lease and a node
// re-advertise itself, exactly the calls that must keep flowing during
// overload, so they pass through untouched (and unobserved — a slow
// register must not blow the breaker for lookups).

// ErrCircuitOpen is returned by gated calls while the key's circuit is
// open. It is retryable pushback, not a verdict about the name being
// looked up.
var ErrCircuitOpen = errors.New("nameservice: circuit open")

// Breaker states, ordered by severity (exported for telemetry gauges).
const (
	BreakerClosed   = 0 // normal operation
	BreakerHalfOpen = 1 // cooling down; one probe call allowed through
	BreakerOpen     = 2 // failing fast
)

// BreakerConfig tunes a Breaker. The zero value of any field selects
// its default.
type BreakerConfig struct {
	// Failures is how many consecutive tripping failures open a
	// circuit (default 5).
	Failures int
	// Cooldown is how long a circuit stays open before it turns
	// half-open (default 1s). A half-open circuit admits one probe call
	// at a time: its success closes the circuit, its failure re-opens
	// it for another Cooldown.
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Failures <= 0 {
		c.Failures = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	return c
}

// circuit is one shard owner's breaker state.
type circuit struct {
	state     int
	failures  int       // consecutive tripping failures while closed
	openedAt  time.Time // when the circuit last opened
	probing   bool      // a half-open probe is in flight
	trips     uint64    // closed→open transitions
	fastFails uint64    // calls rejected without touching the service
}

// Breaker is a Service wrapper that fails lookups fast, per shard
// owner, while the wrapped service is unreachable or timing out.
type Breaker struct {
	inner Service
	src   MapSource // nil when the wrapped service carries no map
	cfg   BreakerConfig
	now   func() time.Time

	mu       sync.Mutex
	circuits map[uint32]*circuit // keyed by shard owner; 0 = shared
}

var _ Service = (*Breaker)(nil)

// NewBreaker wraps svc in per-shard circuit breakers.
func NewBreaker(svc Service, cfg BreakerConfig) *Breaker {
	b := &Breaker{inner: svc, cfg: cfg.withDefaults(), now: time.Now, circuits: map[uint32]*circuit{}}
	b.src, _ = svc.(MapSource)
	return b
}

// Unwrap returns the wrapped service (introspection walks the chain).
func (b *Breaker) Unwrap() Service { return b.inner }

// State reports the worst state across all circuits — the single-gauge
// summary for telemetry (a namespace with one open shard reads open).
func (b *Breaker) State() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	worst := BreakerClosed
	for _, c := range b.circuits {
		if s := b.stateLocked(c); s > worst {
			worst = s
		}
	}
	return worst
}

// Trips sums closed→open transitions across all circuits.
func (b *Breaker) Trips() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var n uint64
	for _, c := range b.circuits {
		n += c.trips
	}
	return n
}

// FastFails sums gated calls rejected across all circuits.
func (b *Breaker) FastFails() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var n uint64
	for _, c := range b.circuits {
		n += c.fastFails
	}
	return n
}

// stateLocked folds cooldown expiry into the read: an open circuit
// whose cooldown has elapsed reads (and becomes) half-open.
func (b *Breaker) stateLocked(c *circuit) int {
	if c.state == BreakerOpen && b.now().Sub(c.openedAt) >= b.cfg.Cooldown {
		c.state = BreakerHalfOpen
		c.probing = false
	}
	return c.state
}

// owner resolves the circuit key for a lookup key. The map read is
// cheap: the authority answers from memory and the TCP client caches
// the map by version.
func (b *Breaker) owner(ctx context.Context, key string) uint32 {
	if b.src == nil || key == "" {
		return 0
	}
	m, err := b.src.ShardMap(ctx)
	if err != nil || len(m.Members) < 2 {
		return 0
	}
	o, _ := m.Owner(key)
	return o
}

// MapVersion implements MapSource (pass-through), so a Cache stacked
// on the breaker still flushes moved key ranges.
func (b *Breaker) MapVersion() uint64 {
	if b.src == nil {
		return 0
	}
	return b.src.MapVersion()
}

// ShardMap implements MapSource (pass-through).
func (b *Breaker) ShardMap(ctx context.Context) (*ShardMap, error) {
	if b.src == nil {
		return nil, errors.New("nameservice: no shard map source")
	}
	return b.src.ShardMap(ctx)
}

// gate runs one lookup through key's circuit.
func (b *Breaker) gate(ctx context.Context, key string, call func() error) error {
	owner := b.owner(ctx, key)
	b.mu.Lock()
	c := b.circuits[owner]
	if c == nil {
		c = &circuit{}
		b.circuits[owner] = c
	}
	switch b.stateLocked(c) {
	case BreakerOpen:
		c.fastFails++
		b.mu.Unlock()
		return ErrCircuitOpen
	case BreakerHalfOpen:
		if c.probing {
			c.fastFails++
			b.mu.Unlock()
			return ErrCircuitOpen
		}
		c.probing = true
	}
	b.mu.Unlock()
	err := call()
	b.settle(c, err)
	return err
}

// settle records one gated call's outcome and drives c's state machine.
func (b *Breaker) settle(c *circuit, err error) {
	tripping := isTripping(err)
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case c.state == BreakerHalfOpen:
		c.probing = false
		if tripping {
			// The probe failed: the downstream is still sick.
			c.state = BreakerOpen
			c.openedAt = b.now()
			c.trips++
		} else {
			// One good probe closes the circuit; terminal server-side
			// errors (unknown name) prove liveness just as well.
			c.state = BreakerClosed
			c.failures = 0
		}
	case !tripping:
		c.failures = 0
	default: // closed, tripping
		c.failures++
		if c.failures >= b.cfg.Failures {
			c.state = BreakerOpen
			c.openedAt = b.now()
			c.trips++
		}
	}
}

// isTripping classifies failures that indicate a sick downstream —
// deadline expiry, network timeouts, a lost connection — as opposed to
// terminal per-name verdicts (unknown name, signature clash), which
// prove the service is alive and answering.
func isTripping(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return isTransient(err)
}

// LookupSite implements Service (gated per shard).
func (b *Breaker) LookupSite(ctx context.Context, name string) (site, node uint32, err error) {
	err = b.gate(ctx, name, func() error {
		site, node, err = b.inner.LookupSite(ctx, name)
		return err
	})
	return
}

// LookupName implements Service (gated per shard).
func (b *Breaker) LookupName(ctx context.Context, siteName, id string) (ref vm.NetRef, sig string, err error) {
	err = b.gate(ctx, siteName, func() error {
		ref, sig, err = b.inner.LookupName(ctx, siteName, id)
		return err
	})
	return
}

// LookupClass implements Service (gated per shard).
func (b *Breaker) LookupClass(ctx context.Context, siteName, class string) (nc vm.NetClass, sig string, err error) {
	err = b.gate(ctx, siteName, func() error {
		nc, sig, err = b.inner.LookupClass(ctx, siteName, class)
		return err
	})
	return
}

// Endpoints implements Service (gated on circuit 0: enumeration has no
// shard key).
func (b *Breaker) Endpoints(ctx context.Context, kind string) (eps map[uint32]string, err error) {
	err = b.gate(ctx, "", func() error {
		eps, err = b.inner.Endpoints(ctx, kind)
		return err
	})
	return
}

// RegisterSite implements Service (control traffic; not gated).
func (b *Breaker) RegisterSite(ctx context.Context, name string, site, node, epoch uint32) error {
	return b.inner.RegisterSite(ctx, name, site, node, epoch)
}

// RegisterName implements Service (control traffic; not gated).
func (b *Breaker) RegisterName(ctx context.Context, siteName, id string, heap uint32, sig string) error {
	return b.inner.RegisterName(ctx, siteName, id, heap, sig)
}

// RegisterClass implements Service (control traffic; not gated).
func (b *Breaker) RegisterClass(ctx context.Context, siteName, class string, sig string) error {
	return b.inner.RegisterClass(ctx, siteName, class, sig)
}

// KeepAlive implements Service (control traffic; not gated).
func (b *Breaker) KeepAlive(ctx context.Context, siteName string, epoch uint32) error {
	return b.inner.KeepAlive(ctx, siteName, epoch)
}

// RegisterEndpoint implements Service (control traffic; not gated).
func (b *Breaker) RegisterEndpoint(ctx context.Context, node uint32, kind, addr string) error {
	return b.inner.RegisterEndpoint(ctx, node, kind, addr)
}
