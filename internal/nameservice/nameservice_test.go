package nameservice_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/nameservice"
	"repro/internal/vm"
)

// rings are the authority shapes the behavioural tests run over: the
// default one-member ring (the paper's centralized service) and a
// three-member one.
var rings = []struct {
	name string
	cfg  nameservice.ShardedConfig
}{
	{"one-member", nameservice.ShardedConfig{}},
	{"three-members", nameservice.ShardedConfig{Members: []uint32{1, 2, 3}}},
}

// eachRing runs f as one subtest per ring shape.
func eachRing(t *testing.T, f func(t *testing.T, cfg nameservice.ShardedConfig)) {
	for _, r := range rings {
		t.Run(r.name, func(t *testing.T) { f(t, r.cfg) })
	}
}

func TestAuthorityBasics(t *testing.T) { eachRing(t, testAuthorityBasics) }

func testAuthorityBasics(t *testing.T, cfg nameservice.ShardedConfig) {
	ns := nameservice.NewSharded(cfg)
	if err := ns.RegisterSite(context.Background(), "server", 7, 2, 1); err != nil {
		t.Fatal(err)
	}
	site, node, err := ns.LookupSite(context.Background(), "server")
	if err != nil || site != 7 || node != 2 {
		t.Fatalf("lookup site: %d %d %v", site, node, err)
	}
	if err := ns.RegisterName(context.Background(), "server", "chat", 41, "val/1 ..."); err != nil {
		t.Fatal(err)
	}
	ref, sig, err := ns.LookupName(context.Background(), "server", "chat")
	if err != nil {
		t.Fatal(err)
	}
	if ref != (vm.NetRef{Heap: 41, Site: 7, Node: 2}) || sig != "val/1 ..." {
		t.Fatalf("ref=%v sig=%q", ref, sig)
	}
	if err := ns.RegisterClass(context.Background(), "server", "Applet", "class/2"); err != nil {
		t.Fatal(err)
	}
	nc, csig, err := ns.LookupClass(context.Background(), "server", "Applet")
	if err != nil || nc.Name != "Applet" || nc.Site != 7 || nc.Node != 2 || csig != "class/2" {
		t.Fatalf("class lookup: %v %q %v", nc, csig, err)
	}
}

func TestAuthorityBlockingLookup(t *testing.T) { eachRing(t, testAuthorityBlockingLookup) }

func testAuthorityBlockingLookup(t *testing.T, cfg nameservice.ShardedConfig) {
	ns := nameservice.NewSharded(cfg)
	done := make(chan vm.NetRef, 1)
	go func() {
		ref, _, err := ns.LookupName(context.Background(), "late", "x")
		if err == nil {
			done <- ref
		}
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("lookup returned before export")
	default:
	}
	if err := ns.RegisterName(context.Background(), "late", "x", 9, ""); err != nil {
		t.Fatal(err)
	}
	if err := ns.RegisterSite(context.Background(), "late", 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	select {
	case ref := <-done:
		if ref.Heap != 9 {
			t.Fatalf("ref = %v", ref)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lookup never unblocked")
	}
}

func TestAuthorityLookupContextCancel(t *testing.T) {
	eachRing(t, func(t *testing.T, cfg nameservice.ShardedConfig) {
		ns := nameservice.NewSharded(cfg)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if _, _, err := ns.LookupName(ctx, "ghost", "x"); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("lookup = %v, want a wrapped DeadlineExceeded", err)
		}
	})
}

func TestAuthorityConflicts(t *testing.T) { eachRing(t, testAuthorityConflicts) }

func testAuthorityConflicts(t *testing.T, cfg nameservice.ShardedConfig) {
	ns := nameservice.NewSharded(cfg)
	if err := ns.RegisterSite(context.Background(), "s", 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := ns.RegisterSite(context.Background(), "s", 1, 1, 1); err != nil {
		t.Fatal("idempotent re-registration should pass:", err)
	}
	if err := ns.RegisterSite(context.Background(), "s", 2, 1, 1); err == nil {
		t.Fatal("conflicting site registration accepted")
	}
	if err := ns.RegisterName(context.Background(), "s", "x", 1, ""); err != nil {
		t.Fatal(err)
	}
	if err := ns.RegisterName(context.Background(), "s", "x", 2, ""); err == nil {
		t.Fatal("conflicting name registration accepted")
	}
}

func TestAuthorityConcurrentExportImport(t *testing.T) {
	eachRing(t, testAuthorityConcurrentExportImport)
}

func testAuthorityConcurrentExportImport(t *testing.T, cfg nameservice.ShardedConfig) {
	// Many concurrent importers and exporters: every importer must
	// see exactly the value its exporter registered.
	ns := nameservice.NewSharded(cfg)
	if err := ns.RegisterSite(context.Background(), "hub", 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	const n = 50
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ref, _, err := ns.LookupName(context.Background(), "hub", name(i))
			if err != nil {
				errs <- err
				return
			}
			if int(ref.Heap) != i {
				errs <- errMismatch(i, int(ref.Heap))
			}
		}(i)
	}
	for i := 0; i < n; i++ {
		go func(i int) {
			_ = ns.RegisterName(context.Background(), "hub", name(i), uint32(i), "")
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func name(i int) string { return string(rune('a'+i%26)) + string(rune('0'+i/26)) }

type errMismatchT struct{ want, got int }

func errMismatch(w, g int) error { return errMismatchT{w, g} }
func (e errMismatchT) Error() string {
	return "heap mismatch"
}

func TestTCPProtocol(t *testing.T) {
	srv, err := nameservice.NewServer(nameservice.NewSharded(nameservice.ShardedConfig{}), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := nameservice.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if err := cli.RegisterSite(context.Background(), "remote", 3, 4, 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.RegisterName(context.Background(), "remote", "p", 11, "val/2 ..."); err != nil {
		t.Fatal(err)
	}
	if err := cli.RegisterClass(context.Background(), "remote", "K", "class/1"); err != nil {
		t.Fatal(err)
	}
	ref, sig, err := cli.LookupName(context.Background(), "remote", "p")
	if err != nil || ref != (vm.NetRef{Heap: 11, Site: 3, Node: 4}) || sig != "val/2 ..." {
		t.Fatalf("lookup over tcp: %v %q %v", ref, sig, err)
	}
	nc, csig, err := cli.LookupClass(context.Background(), "remote", "K")
	if err != nil || nc.Site != 3 || csig != "class/1" {
		t.Fatalf("class lookup over tcp: %v %q %v", nc, csig, err)
	}
	s, n, err := cli.LookupSite(context.Background(), "remote")
	if err != nil || s != 3 || n != 4 {
		t.Fatalf("site lookup over tcp: %d %d %v", s, n, err)
	}
}

func TestTCPBlockingLookupAcrossClients(t *testing.T) {
	srv, err := nameservice.NewServer(nameservice.NewSharded(nameservice.ShardedConfig{}), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	importer, err := nameservice.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer importer.Close()
	exporter, err := nameservice.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer exporter.Close()

	got := make(chan vm.NetRef, 1)
	go func() {
		ref, _, err := importer.LookupName(context.Background(), "s", "x")
		if err == nil {
			got <- ref
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if err := exporter.RegisterSite(context.Background(), "s", 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := exporter.RegisterName(context.Background(), "s", "x", 5, ""); err != nil {
		t.Fatal(err)
	}
	select {
	case ref := <-got:
		if ref.Heap != 5 {
			t.Fatalf("ref = %v", ref)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked TCP lookup never completed")
	}
}

func TestTCPLookupErrorPropagates(t *testing.T) {
	srv, err := nameservice.NewServer(nameservice.NewSharded(nameservice.ShardedConfig{}), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := nameservice.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, _, err := cli.LookupName(ctx, "nobody", "x"); err == nil {
		t.Fatal("expected timeout error")
	}
}

// leaseClock is a manually advanced nameservice.Clock for lease tests
// (the injected-clock pattern from internal/membership): expiry is
// driven by Advance, never by wall-clock sleeps, so the suite stays
// deterministic under -race on slow runners.
type leaseClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *leaseClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *leaseClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestLeaseExpiryFailsFast(t *testing.T) { eachRing(t, testLeaseExpiryFailsFast) }

func testLeaseExpiryFailsFast(t *testing.T, cfg nameservice.ShardedConfig) {
	clk := &leaseClock{now: time.Unix(1000, 0)}
	cfg.LeaseTTL, cfg.Clock = time.Minute, clk
	ns := nameservice.NewSharded(cfg)
	ctx := context.Background()
	if err := ns.RegisterSite(ctx, "server", 7, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := ns.RegisterName(ctx, "server", "chat", 41, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ns.LookupName(ctx, "server", "chat"); err != nil {
		t.Fatalf("fresh lease: %v", err)
	}
	clk.Advance(2 * time.Minute)
	// Expired names fail fast with the typed error instead of blocking
	// the importer forever: the site behind them is dead.
	if _, _, err := ns.LookupName(ctx, "server", "chat"); !errors.Is(err, nameservice.ErrNameExpired) {
		t.Fatalf("lookup after expiry = %v, want ErrNameExpired", err)
	}
	if _, _, err := ns.LookupSite(ctx, "server"); !errors.Is(err, nameservice.ErrNameExpired) {
		t.Fatalf("site lookup after expiry = %v, want ErrNameExpired", err)
	}
}

func TestLeaseKeepAliveRefreshes(t *testing.T) { eachRing(t, testLeaseKeepAliveRefreshes) }

func testLeaseKeepAliveRefreshes(t *testing.T, cfg nameservice.ShardedConfig) {
	clk := &leaseClock{now: time.Unix(1000, 0)}
	cfg.LeaseTTL, cfg.Clock = time.Minute, clk
	ns := nameservice.NewSharded(cfg)
	ctx := context.Background()
	if err := ns.RegisterSite(ctx, "server", 7, 2, 1); err != nil {
		t.Fatal(err)
	}
	// Heartbeats every 40s keep a 60s lease alive indefinitely.
	for i := 0; i < 5; i++ {
		clk.Advance(40 * time.Second)
		if err := ns.KeepAlive(ctx, "server", 1); err != nil {
			t.Fatalf("beat %d: %v", i, err)
		}
	}
	if _, _, err := ns.LookupSite(ctx, "server"); err != nil {
		t.Fatalf("kept-alive site expired: %v", err)
	}
	// A heartbeat from a dead incarnation must not resurrect the lease
	// once a recovered incarnation registered under a higher epoch.
	if err := ns.RegisterSite(ctx, "server", 7, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := ns.KeepAlive(ctx, "server", 1); err == nil {
		t.Fatal("stale-epoch keepalive accepted")
	}
}

func TestLeaseSupersededByRecoveredEpoch(t *testing.T) {
	eachRing(t, testLeaseSupersededByRecoveredEpoch)
}

func testLeaseSupersededByRecoveredEpoch(t *testing.T, cfg nameservice.ShardedConfig) {
	clk := &leaseClock{now: time.Unix(1000, 0)}
	cfg.LeaseTTL, cfg.Clock = time.Minute, clk
	ns := nameservice.NewSharded(cfg)
	ctx := context.Background()
	if err := ns.RegisterSite(ctx, "server", 7, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := ns.RegisterName(ctx, "server", "chat", 41, ""); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	// Recovery: the supervisor re-registers the site under epoch 2. The
	// exported names are kept — replay restores the same heap ids — so
	// the lookup resolves again without re-exporting.
	if err := ns.RegisterSite(ctx, "server", 7, 2, 2); err != nil {
		t.Fatal(err)
	}
	ref, _, err := ns.LookupName(ctx, "server", "chat")
	if err != nil {
		t.Fatalf("lookup after recovery: %v", err)
	}
	if ref != (vm.NetRef{Heap: 41, Site: 7, Node: 2}) {
		t.Fatalf("ref after recovery = %v", ref)
	}
	// The dead incarnation cannot re-register beneath the survivor.
	if err := ns.RegisterSite(ctx, "server", 7, 2, 1); err == nil {
		t.Fatal("stale-epoch re-registration accepted")
	}
}
