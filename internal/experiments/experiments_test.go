package experiments_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestAllExperimentsQuick runs every experiment at CI scale and sanity
// checks table shapes. This keeps the harness itself from rotting.
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
			if table.ID == "" || len(table.Header) == 0 || len(table.Rows) == 0 {
				t.Fatalf("%s: empty table", r.ID)
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
