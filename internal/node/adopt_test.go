package node_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/journal"
	"repro/internal/nameservice"
	"repro/internal/node"
	"repro/internal/telemetry"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// deadlineTap counts the message envelopes a node sends, split by
// whether they carry a deadline.
type deadlineTap struct {
	transport.Transport
	mu             sync.Mutex
	stamped, plain int
}

func (d *deadlineTap) Send(dst transport.NodeID, frame []byte) error {
	var envs []wire.Envelope
	if wire.IsBatch(frame) {
		if it, err := wire.NewBatchIter(frame); err == nil {
			var env wire.Envelope
			for ok, _ := it.Next(&env); ok; ok, _ = it.Next(&env) {
				envs = append(envs, env)
			}
		}
	} else if env, err := wire.DecodeEnvelope(frame); err == nil {
		envs = append(envs, *env)
	}
	d.mu.Lock()
	for _, env := range envs {
		switch {
		case env.Type != wire.FMsg:
		case env.Deadline != 0:
			d.stamped++
		default:
			d.plain++
		}
	}
	d.mu.Unlock()
	return d.Transport.Send(dst, frame)
}

func (d *deadlineTap) counts() (stamped, plain int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stamped, d.plain
}

// TestAdoptedSiteRunsUnderNodeConfig drains a site from one node and
// adopts it on a node with telemetry, admission and OpDeadline on. The
// adopted site must run under the same configuration as a site spawned
// there: its deliveries feed deliver.sojourn_nanos, and the messages it
// originates carry a deadline.
func TestAdoptedSiteRunsUnderNodeConfig(t *testing.T) {
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	fabric := transport.NewFabric(transport.Ideal)
	defer fabric.Close()
	attach := func(id uint32) transport.Transport {
		tr, err := fabric.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	tap := &deadlineTap{Transport: attach(1)}
	tel := telemetry.New(1, telemetry.Config{})
	adopter := node.New(node.Config{ID: 1, NS: ns, Transport: tap,
		Journals: journal.NewMemFactory(), Telemetry: tel,
		Admission: &admission.Config{}, OpDeadline: time.Minute})
	defer adopter.Stop()
	donor := node.New(node.Config{ID: 2, NS: ns, Transport: attach(2), Journals: journal.NewMemFactory()})
	defer donor.Stop()
	// The clients and the sink live on a node without OpDeadline, so
	// the relay's messages carry a deadline only if it stamps them.
	far := node.New(node.Config{ID: 3, NS: ns, Transport: attach(3)})
	defer far.Stop()

	var sink testutil.Buf
	submit(t, far, "sink", `def S(q) = q?(v) = (println(v) | S[q]) in export new q S[q]`, &sink)
	const relay = `import q from sink in def L(p) = p?(v) = (q![v] | L[p]) in export new p L[p]`
	submit(t, adopter, "spawned", relay, nil)
	submit(t, donor, "moved", relay, nil)
	submit(t, far, "warm", `import p from moved in p![0]`, nil)
	waitFor(t, func() bool { return strings.Contains(sink.String(), "0\n") })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	evs, err := donor.Drain(ctx, func(string, uint32) (uint32, error) { return adopter.ID(), nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if _, err := adopter.AdoptSite(ev.Name, ev.Journal, nil); err != nil {
			t.Fatal(err)
		}
	}

	sojourn := tel.Registry().Histogram("deliver.sojourn_nanos")
	// round sends three messages from the far node to target and
	// returns how many sojourn samples the adopter took meanwhile.
	round := func(target string, first int) uint64 {
		t.Helper()
		before := sojourn.Count()
		submit(t, far, "client-"+target, fmt.Sprintf(`import p from %s in (p![%d] | p![%d] | p![%d])`,
			target, first, first+1, first+2), nil)
		waitFor(t, func() bool {
			for v := first; v < first+3; v++ {
				if !strings.Contains(sink.String(), fmt.Sprintf("%d\n", v)) {
					return false
				}
			}
			return true
		})
		return sojourn.Count() - before
	}
	spawned := round("spawned", 10)
	adopted := round("moved", 20)
	if spawned == 0 || adopted != spawned {
		t.Errorf("sojourn samples: spawned site %d, adopted site %d", spawned, adopted)
	}
	// Replay may re-ship the relay's pre-drain message, so at least six.
	if stamped, plain := tap.counts(); plain != 0 || stamped < 6 {
		t.Errorf("messages leaving the adopter: %d with a deadline, %d without; want ≥ 6 and 0", stamped, plain)
	}
}
