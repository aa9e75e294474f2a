package nameservice

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vm"
)

// flakySvc is a Service whose lookups fail with a programmable error.
type flakySvc struct {
	mu    sync.Mutex
	err   error
	calls int
}

func (f *flakySvc) lookupErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	return f.err
}

func (f *flakySvc) setErr(err error) {
	f.mu.Lock()
	f.err = err
	f.mu.Unlock()
}

func (f *flakySvc) lookups() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func (f *flakySvc) LookupSite(ctx context.Context, name string) (uint32, uint32, error) {
	return 1, 2, f.lookupErr()
}
func (f *flakySvc) LookupName(ctx context.Context, siteName, id string) (vm.NetRef, string, error) {
	return vm.NetRef{}, "", f.lookupErr()
}
func (f *flakySvc) LookupClass(ctx context.Context, siteName, class string) (vm.NetClass, string, error) {
	return vm.NetClass{}, "", f.lookupErr()
}
func (f *flakySvc) Endpoints(ctx context.Context, kind string) (map[uint32]string, error) {
	return nil, f.lookupErr()
}
func (f *flakySvc) RegisterSite(ctx context.Context, name string, site, node, epoch uint32) error {
	return nil
}
func (f *flakySvc) RegisterName(ctx context.Context, siteName, id string, heap uint32, sig string) error {
	return nil
}
func (f *flakySvc) RegisterClass(ctx context.Context, siteName, class string, sig string) error {
	return nil
}
func (f *flakySvc) KeepAlive(ctx context.Context, siteName string, epoch uint32) error { return nil }
func (f *flakySvc) RegisterEndpoint(ctx context.Context, node uint32, kind, addr string) error {
	return nil
}

func TestBreakerOpensOnOverload(t *testing.T) {
	// An overloaded name server shows up as lookups missing their
	// deadlines.
	svc := &flakySvc{}
	svc.setErr(context.DeadlineExceeded)
	b := NewBreaker(svc, BreakerConfig{Failures: 3, Cooldown: time.Hour})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, _, err := b.LookupSite(ctx, "a"); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d: want DeadlineExceeded, got %v", i, err)
		}
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after %d failures = %d, want open", 3, got)
	}
	before := svc.lookups()
	if _, _, err := b.LookupSite(ctx, "a"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker: want ErrCircuitOpen, got %v", err)
	}
	if svc.lookups() != before {
		t.Fatal("open breaker must not touch the inner service")
	}
	if b.FastFails() == 0 {
		t.Fatal("fast-fail not counted")
	}
}

func TestBreakerTerminalErrorsDoNotTrip(t *testing.T) {
	svc := &flakySvc{}
	svc.setErr(errors.New("nameservice: signature clash"))
	b := NewBreaker(svc, BreakerConfig{Failures: 2, Cooldown: time.Hour})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		b.LookupSite(ctx, "a")
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("terminal errors tripped the breaker (state %d)", got)
	}
}

func TestBreakerHalfOpenRecovers(t *testing.T) {
	svc := &flakySvc{}
	svc.setErr(context.DeadlineExceeded)
	b := NewBreaker(svc, BreakerConfig{Failures: 1, Cooldown: 50 * time.Millisecond})
	clock := time.Now()
	b.now = func() time.Time { return clock }
	ctx := context.Background()

	b.LookupSite(ctx, "a")
	if b.State() != BreakerOpen {
		t.Fatal("breaker should be open")
	}
	// Cooldown elapses; one probe is admitted and succeeds.
	clock = clock.Add(100 * time.Millisecond)
	svc.setErr(nil)
	if _, _, err := b.LookupSite(ctx, "a"); err != nil {
		t.Fatalf("probe after cooldown: %v", err)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after good probe = %d, want closed", got)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	svc := &flakySvc{}
	svc.setErr(context.DeadlineExceeded)
	b := NewBreaker(svc, BreakerConfig{Failures: 1, Cooldown: 50 * time.Millisecond})
	clock := time.Now()
	b.now = func() time.Time { return clock }
	ctx := context.Background()

	b.LookupSite(ctx, "a")
	clock = clock.Add(100 * time.Millisecond)
	// Probe still fails: back to open for another full cooldown.
	b.LookupSite(ctx, "a")
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %d, want open", got)
	}
	if got := b.Trips(); got != 2 {
		t.Fatalf("trips = %d, want 2", got)
	}
	// A second call within the new cooldown fails fast.
	before := svc.lookups()
	if _, _, err := b.LookupSite(ctx, "a"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}
	if svc.lookups() != before {
		t.Fatal("re-opened breaker must not touch the inner service")
	}
}

// holdingSvc is a flakySvc whose next LookupSite, once hold is set,
// signals entered and waits for release.
type holdingSvc struct {
	flakySvc
	hold             atomic.Bool
	entered, release chan struct{}
}

func (s *holdingSvc) LookupSite(ctx context.Context, name string) (uint32, uint32, error) {
	err := s.lookupErr()
	if s.hold.CompareAndSwap(true, false) {
		close(s.entered)
		<-s.release
	}
	return 1, 2, err
}

// TestBreakerHalfOpenAdmitsOneProbe: while the half-open probe is in
// flight, a concurrent call fails fast without reaching the service.
func TestBreakerHalfOpenAdmitsOneProbe(t *testing.T) {
	svc := &holdingSvc{entered: make(chan struct{}), release: make(chan struct{})}
	svc.setErr(context.DeadlineExceeded)
	b := NewBreaker(svc, BreakerConfig{Failures: 1, Cooldown: 50 * time.Millisecond})
	clock := time.Now()
	b.now = func() time.Time { return clock }
	ctx := context.Background()

	b.LookupSite(ctx, "a")
	clock = clock.Add(100 * time.Millisecond)
	svc.setErr(nil)
	svc.hold.Store(true)
	probe := make(chan error, 1)
	go func() {
		_, _, err := b.LookupSite(ctx, "a")
		probe <- err
	}()
	<-svc.entered
	before := svc.lookups()
	_, _, err := b.LookupSite(ctx, "a")
	inner := svc.lookups() - before
	close(svc.release)
	if !errors.Is(err, ErrCircuitOpen) || inner != 0 {
		t.Fatalf("call during the probe: err %v, %d inner lookups; want ErrCircuitOpen and 0", err, inner)
	}
	if err := <-probe; err != nil {
		t.Fatalf("probe: %v", err)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after good probe = %d, want closed", got)
	}
}

func TestBreakerRegistrationsBypass(t *testing.T) {
	svc := &flakySvc{}
	svc.setErr(context.DeadlineExceeded)
	b := NewBreaker(svc, BreakerConfig{Failures: 1, Cooldown: time.Hour})
	ctx := context.Background()
	b.LookupSite(ctx, "a") // trips
	if b.State() != BreakerOpen {
		t.Fatal("breaker should be open")
	}
	// Control traffic flows regardless.
	if err := b.KeepAlive(ctx, "a", 1); err != nil {
		t.Fatalf("KeepAlive through open breaker: %v", err)
	}
	if err := b.RegisterSite(ctx, "a", 1, 1, 1); err != nil {
		t.Fatalf("RegisterSite through open breaker: %v", err)
	}
}

// shardedFlaky is a MapSource whose lookups time out for the keys its
// map assigns to one sick owner.
type shardedFlaky struct {
	flakySvc
	m    *ShardMap
	sick uint32
}

func (f *shardedFlaky) MapVersion() uint64                          { return f.m.Version }
func (f *shardedFlaky) ShardMap(context.Context) (*ShardMap, error) { return f.m, nil }
func (f *shardedFlaky) LookupSite(ctx context.Context, name string) (uint32, uint32, error) {
	if o, _ := f.m.Owner(name); o == f.sick {
		return 0, 0, context.DeadlineExceeded
	}
	return 1, 2, nil
}

func TestBreakerCircuitPerShard(t *testing.T) {
	// One sick shard opens only its own circuit: keys the map routes to
	// healthy owners keep resolving.
	svc := &shardedFlaky{m: NewShardMap(1, []uint32{1, 2, 3}, 16), sick: 2}
	b := NewBreaker(svc, BreakerConfig{Failures: 1, Cooldown: time.Hour})
	var sickKey, healthyKey string
	for i := 0; sickKey == "" || healthyKey == ""; i++ {
		k := fmt.Sprintf("site-%d", i)
		if o, _ := svc.m.Owner(k); o == svc.sick {
			sickKey = k
		} else {
			healthyKey = k
		}
	}
	ctx := context.Background()
	b.LookupSite(ctx, sickKey) // trips shard 2's circuit
	if _, _, err := b.LookupSite(ctx, sickKey); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("sick shard: want ErrCircuitOpen, got %v", err)
	}
	if _, _, err := b.LookupSite(ctx, healthyKey); err != nil {
		t.Fatalf("healthy shard blinded by a sick one: %v", err)
	}
	if b.State() != BreakerOpen || b.Trips() != 1 {
		t.Fatalf("state=%d trips=%d, want the worst circuit open after 1 trip", b.State(), b.Trips())
	}
}
