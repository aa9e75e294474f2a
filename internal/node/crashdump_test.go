package node_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/nameservice"
	"repro/internal/node"
	"repro/internal/telemetry"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// TestSiteCrashDumpsFlightRecorder kills a supervised site and checks
// the node drops a telemetry snapshot — metrics plus retained flight
// recorder — into CrashDumpDir before restarting it.
func TestSiteCrashDumpsFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	fabric := transport.NewFabric(transport.Ideal)
	defer fabric.Close()
	tr, err := fabric.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	n := node.New(node.Config{
		ID: 1, NS: ns, Transport: tr,
		Journals:     journal.NewMemFactory(),
		Supervise:    true,
		Telemetry:    telemetry.New(1, telemetry.Config{Trace: true}),
		CrashDumpDir: dir,
	})
	defer n.Stop()

	var out testutil.Buf
	submit(t, n, "svr", `def Loop(p) = p?(v) = (println("got", v) | Loop[p]) in export new p Loop[p]`, &out)
	submit(t, n, "c1", `import p from svr in p![1]`, &testutil.Buf{})
	waitFor(t, func() bool { return strings.Contains(out.String(), "got 1") })

	victim, ok := n.SiteByName("svr")
	if !ok {
		t.Fatal("svr not running")
	}
	victim.Kill(errors.New("injected fault"))
	<-victim.Done()

	// The file appears in the directory before its bytes do: wait for
	// the write, not for the name.
	var dump string
	var raw []byte
	waitFor(t, func() bool {
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) == 0 {
			return false
		}
		dump = filepath.Join(dir, entries[0].Name())
		raw, err = os.ReadFile(dump)
		return err == nil && len(raw) > 0
	})
	if !strings.Contains(dump, "node1-svr-crash0") {
		t.Errorf("dump name %q, want node1-svr-crash0 prefix", dump)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("crash dump is not a telemetry snapshot: %v", err)
	}
	if snap.Node != 1 || snap.TotalEvents == 0 || len(snap.Metrics) == 0 {
		t.Errorf("crash dump lacks evidence: node=%d events=%d metrics=%d",
			snap.Node, snap.TotalEvents, len(snap.Metrics))
	}
}
