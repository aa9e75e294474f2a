package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// fullTelemetry exercises every instrument family the telemetry fabric
// registers, so the exposition under test covers the complete /metrics
// surface: per-frame ship counters, control spillover, local/remote
// delivery counters, journal appends, trace allocation, all four
// histograms, a per-peer counter, plus ad-hoc gauges and counters of
// the kind the node's pull-time refresh publishes.
func fullTelemetry(t *testing.T) *Telemetry {
	t.Helper()
	tel := New(3, Config{Trace: true})
	for _, f := range []wire.FrameType{wire.FMsg, wire.FObj, wire.FFetchReq, wire.FFetchRep} {
		tel.Ship(0, f, wire.OpRef{}, 7)
	}
	tel.Ship(0, wire.FBatch, wire.OpRef{}, 7) // no cached counter → ship.control
	tel.Deliver(0, wire.FMsg, wire.OpRef{}, 1, true)
	tel.Deliver(0, wire.FMsg, wire.OpRef{}, 1, false)
	tel.JournalAppend(1)
	tel.Origin(tel.NextTrace(), 1)
	tel.ObserveBatch(4, 512)
	tel.ObserveInboxDepth(9)
	tel.ObserveCheckpoint(42 * time.Millisecond)
	tel.SetGauge("rel.unacked", 5)
	tel.SetGauge("stalls.active", 0)
	tel.AddCounter("stalls.suspected", 2)
	return tel
}

// TestOpenMetricsRoundTrip renders a fully-populated registry and
// feeds it back through the strict parser: every registry instrument
// must survive as a correctly-typed family with its value intact.
func TestOpenMetricsRoundTrip(t *testing.T) {
	tel := fullTelemetry(t)
	reg := tel.Registry()

	text := RenderOpenMetrics(reg)
	if !bytes.HasSuffix(text, []byte("# EOF\n")) {
		t.Fatalf("exposition missing terminal # EOF:\n%s", text)
	}
	fams, err := ParseOpenMetrics(text)
	if err != nil {
		t.Fatalf("strict parse of our own exposition failed: %v\n%s", err, text)
	}
	byName := map[string]OMFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}

	vals := OMValues(fams)
	for _, m := range reg.Export() {
		name := sanitizeMetricName(m.Name)
		fam, ok := byName[name]
		if !ok {
			t.Errorf("registry instrument %q has no family %q in the exposition", m.Name, name)
			continue
		}
		switch m.Kind {
		case KindCounter:
			if fam.Type != "counter" {
				t.Errorf("%s: got type %q, want counter", name, fam.Type)
			}
			if got := vals[name+"_total"]; got != m.Value {
				t.Errorf("%s_total = %v, want %v", name, got, m.Value)
			}
		case KindGauge:
			if fam.Type != "gauge" {
				t.Errorf("%s: got type %q, want gauge", name, fam.Type)
			}
			if got := vals[name]; got != m.Value {
				t.Errorf("%s = %v, want %v", name, got, m.Value)
			}
		case KindHistogram:
			if fam.Type != "histogram" {
				t.Errorf("%s: got type %q, want histogram", name, fam.Type)
			}
			if got := vals[name+"_count"]; got != float64(m.Hist.Count) {
				t.Errorf("%s_count = %v, want %d", name, got, m.Hist.Count)
			}
			if got := vals[name+"_sum"]; got != m.Hist.Sum {
				t.Errorf("%s_sum = %v, want %v", name, got, m.Hist.Sum)
			}
			// Real cumulative buckets: the +Inf bucket must exist and
			// equal _count (the parser enforces monotonicity and the le
			// ladder shape; here we pin the terminal invariant).
			infKey := name + `_bucket{le="+Inf"}`
			if got, ok := vals[infKey]; !ok || got != float64(m.Hist.Count) {
				t.Errorf("%s = %v (present=%v), want %d", infKey, got, ok, m.Hist.Count)
			}
			var buckets int
			for _, s := range fam.Samples {
				if strings.HasSuffix(s.Name, "_bucket") {
					buckets++
				}
			}
			if m.Hist.Count > 0 && buckets < 2 {
				t.Errorf("%s: only %d bucket lines for %d observations", name, buckets, m.Hist.Count)
			}
			// Quantiles ride as a sibling summary for cheap consumers.
			qFam, ok := byName[name+"_quantiles"]
			if !ok || qFam.Type != "summary" {
				t.Errorf("%s_quantiles sibling summary missing (family %+v)", name, qFam)
			}
			for q, want := range map[string]float64{"0.5": m.Hist.P50, "0.95": m.Hist.P95, "0.99": m.Hist.P99, "0.999": m.Hist.P999} {
				key := name + `_quantiles{quantile="` + q + `"}`
				if got := vals[key]; got != want {
					t.Errorf("%s = %v, want %v", key, got, want)
				}
			}
			// The max rides as a sibling gauge (histograms have no max sample).
			maxFam, ok := byName[name+"_max"]
			if !ok || maxFam.Type != "gauge" {
				t.Errorf("%s_max sibling gauge missing (family %+v)", name, maxFam)
			} else if got := vals[name+"_max"]; got != m.Hist.Max {
				t.Errorf("%s_max = %v, want %v", name, got, m.Hist.Max)
			}
		}
	}

	// Spot-check the concrete names the satellite tooling greps for.
	for _, want := range []string{
		"dityco_ship_msg", "dityco_ship_control", "dityco_deliver_local",
		"dityco_deliver_remote", "dityco_journal_appends", "dityco_traces_allocated",
		"dityco_batch_bytes", "dityco_batch_entries", "dityco_inbox_depth",
		"dityco_checkpoint_nanos", "dityco_peer_7_frames_out",
		"dityco_rel_unacked", "dityco_stalls_active", "dityco_stalls_suspected",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("expected family %q in exposition", want)
		}
	}
}

// TestOpenMetricsDeterministic pins the byte-stability the goldens and
// scrape diffing rely on: same registry state → identical exposition.
func TestOpenMetricsDeterministic(t *testing.T) {
	tel := fullTelemetry(t)
	a := RenderOpenMetrics(tel.Registry())
	b := RenderOpenMetrics(tel.Registry())
	if !bytes.Equal(a, b) {
		t.Fatalf("two renders of the same registry differ:\n%s\n----\n%s", a, b)
	}
}

// TestOpenMetricsEmptyRegistry: a nil registry still renders a valid
// (empty) exposition — the telemetry-off /metrics answer.
func TestOpenMetricsEmptyRegistry(t *testing.T) {
	text := RenderOpenMetrics(nil)
	fams, err := ParseOpenMetrics(text)
	if err != nil {
		t.Fatalf("empty exposition rejected: %v", err)
	}
	if len(fams) != 0 {
		t.Fatalf("empty registry produced %d families", len(fams))
	}
}

// TestParseOpenMetricsRejects drives the strict parser over documents
// a lenient one would wave through; every case must fail with a
// message mentioning the offending construct.
func TestParseOpenMetricsRejects(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"missing EOF", "# TYPE a counter\na_total 1\n", "# EOF"},
		{"no trailing newline", "# TYPE a counter\na_total 1\n# EOF", "newline"},
		{"sample before TYPE", "a_total 1\n# EOF\n", "no TYPE-declared family"},
		{"duplicate TYPE", "# TYPE a counter\n# TYPE a counter\n# EOF\n", "duplicate TYPE"},
		{"unknown type", "# TYPE a widget\n# EOF\n", "unknown metric type"},
		{"bad metric name", "# TYPE 9lives counter\n# EOF\n", "bad metric name"},
		{"counter without _total", "# TYPE a counter\na 1\n# EOF\n", "not allowed"},
		{"interleaved families", "# TYPE a counter\n# TYPE b gauge\na_total 1\n# EOF\n", "interleaves"},
		{"bad value", "# TYPE a gauge\na one\n# EOF\n", "bad value"},
		{"missing value", "# TYPE a gauge\na\n# EOF\n", "no value"},
		{"blank line", "# TYPE a gauge\n\na 1\n# EOF\n", "blank line"},
		{"unterminated labels", "# TYPE a gauge\na{x=\"y 1\n# EOF\n", "unterminated"},
		{"unquoted label value", "# TYPE a gauge\na{x=y} 1\n# EOF\n", "unquoted"},
		{"duplicate label", "# TYPE a gauge\na{x=\"1\",x=\"2\"} 1\n# EOF\n", "duplicate label"},
		{"bad escape", `# TYPE a gauge` + "\n" + `a{x="\q"} 1` + "\n# EOF\n", "bad escape"},
		{"unknown directive", "# FOO a bar\n# EOF\n", "unknown comment directive"},
		// Histogram semantics (the export/parse asymmetry fix): buckets
		// must be labelled, cumulative, ascending, and +Inf-terminated.
		{"bucket without le", "# TYPE a histogram\na_bucket 1\n# EOF\n", "without le label"},
		{"bad le value", "# TYPE a histogram\na_bucket{le=\"wide\"} 1\n# EOF\n", "bad le value"},
		{"non-ascending le", "# TYPE a histogram\na_bucket{le=\"3\"} 1\na_bucket{le=\"1\"} 2\na_bucket{le=\"+Inf\"} 2\n# EOF\n", "not ascending"},
		{"decreasing cumulative", "# TYPE a histogram\na_bucket{le=\"1\"} 5\na_bucket{le=\"3\"} 4\na_bucket{le=\"+Inf\"} 5\n# EOF\n", "decrease"},
		{"missing +Inf bucket", "# TYPE a histogram\na_bucket{le=\"1\"} 1\n# EOF\n", "missing le=\"+Inf\""},
		{"+Inf disagrees with count", "# TYPE a histogram\na_bucket{le=\"+Inf\"} 5\na_count 6\n# EOF\n", "!= _count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseOpenMetrics([]byte(tc.doc))
			if err == nil {
				t.Fatalf("parser accepted invalid document:\n%s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
