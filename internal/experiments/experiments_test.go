package experiments_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// quickShapes is each quick-mode table's header and row count, as
// EXPERIMENTS.md documents them: a sweep that loses a point or a
// column that goes missing fails here, not in a reader's diff.
var quickShapes = map[string]struct {
	header string
	rows   int
}{
	"e1":  {"callers ideal myrinet fastether", 3},
	"e2":  {"placement rounds total us/round", 5},
	"e3":  {"program threads instr i/thr mean i/thr p95 reductions Minstr/s Mred/s", 5},
	"e4":  {"strategy uses code arrivals links total us/use", 7},
	"e5":  {"measure value", 7},
	"e6":  {"crunch workers chunks total chunks/s speedup", 6},
	"e7":  {"payload bytes encode ns decode ns MB/s rt", 6},
	"e8":  {"measure parameter value", 3},
	"e9":  {"scenario parameter chunks total chunks/s retransmits dup-drops acks fail-fasts", 3},
	"e10": {"scenario parameter chunks total resume journal checkpoint bytes chunks/s overhead", 8},
	"e11": {"link batch msgs/s allocs/msg acks/data", 4},
	"e12": {"phase config msgs/s overhead traces events verified", 4},
	"e13": {"phase config msgs/s overhead latency", 4},
	"e14": {"phase n gossip budget", 7},
	"e15": {"offered msgs applied rejected expired goodput/s p99 drain", 3},
	"e16": {"gomaxprocs msgs/s efficiency steals", 3}, // GOMAXPROCS 1, 2, 4
	"e17": {"phase ops elapsed ops/s detail", 3},
}

// TestAllExperimentsQuick runs every experiment at CI scale and checks
// each table's shape. This keeps the harness itself from rotting.
// E18 is left to CI's slo-smoke lane (tycobench -quick -e e18, which
// fails on the same errors): its burn-rate drill runs on the wall
// clock, and on a loaded host its verdicts miss their windows.
func TestAllExperimentsQuick(t *testing.T) {
	for _, r := range experiments.All() {
		r := r
		if r.ID == "e18" {
			continue
		}
		t.Run(r.ID, func(t *testing.T) {
			table, err := r.Run(experiments.Options{Quick: true})
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			want, ok := quickShapes[r.ID]
			if !ok {
				t.Fatalf("%s: no quick shape on record", r.ID)
			}
			if got := strings.Join(table.Header, " "); got != want.header || len(table.Rows) != want.rows {
				t.Fatalf("%s: header %q with %d rows, want %q with %d", r.ID, got, len(table.Rows), want.header, want.rows)
			}
			for i, row := range table.Rows {
				if len(row) != len(table.Header) {
					t.Fatalf("%s row %d: %d cells for %d columns", r.ID, i, len(row), len(table.Header))
				}
			}
			if out := table.Render(); !strings.Contains(out, table.ID) {
				t.Fatalf("%s: render missing id", r.ID)
			}
		})
	}
}

// TestE5TwoShipInvariant pins the paper's central quantitative claim.
func TestE5TwoShipInvariant(t *testing.T) {
	table, err := experiments.E5(experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		if row[0] == "SHIPM per call" && row[1] != "2.00" {
			t.Fatalf("SHIPM per call = %s, want 2.00", row[1])
		}
	}
}

// TestE4CacheInvariant: the cached-fetch strategy must move exactly
// one code unit regardless of use count.
func TestE4CacheInvariant(t *testing.T) {
	table, err := experiments.E4(experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		uses, arrivals, links := row[1], row[2], row[3]
		switch row[0] {
		case "fetch (cached)":
			if arrivals != "1" || links != "1" {
				t.Fatalf("cached fetch: %s code arrivals, %s links; want 1 and 1", arrivals, links)
			}
		case "fetch (no cache)":
			if arrivals != uses || links != uses {
				t.Fatalf("uncached fetch: %s code arrivals, %s links; want one each per use (%s)", arrivals, links, uses)
			}
		case "ship":
			if arrivals != uses || links != "1" {
				t.Fatalf("ship: %s code arrivals, %s links; want one arrival per use (%s) and one link", arrivals, links, uses)
			}
		}
	}
}

// TestE3GranularityInvariant: thread bodies stay within "a few tens"
// of instructions on every probe program.
func TestE3GranularityInvariant(t *testing.T) {
	table, err := experiments.E3(experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		mean, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad mean %q", row[3])
		}
		if mean <= 0 || mean > 100 {
			t.Fatalf("%s: %v instructions/thread is outside the paper's granularity claim", row[0], mean)
		}
	}
}
