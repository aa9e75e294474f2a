package experiments

import (
	"math"
	"testing"
)

// The two values below depend only on each experiment's seed and the
// code under test, not on machine speed: both read the same on every
// run. Each bound leaves a little slack around the measured value, so
// a failure means cache behaviour or histogram resolution changed.

// TestE17CacheHitRatioFloor: with 95% of lookups on a 1% hot set, the
// client lease caches must keep absorbing the skew. The hit ratio is a
// property of the skew and the invalidation rules. E17 itself fails
// below 0.90; this floor sits half a percent under the measured value.
func TestE17CacheHitRatioFloor(t *testing.T) {
	const measured = 0.91144
	table, err := E17(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := table.Metrics["e17/cache_hit_ratio"]; got < 0.995*measured {
		t.Fatalf("e17/cache_hit_ratio %.5f, floor %.5f (0.995 x %.5f)", got, 0.995*measured, measured)
	}
}

// TestE18MergedP999Pinned: the merged p999 of E18's seeded synthetic
// cluster is a function of the seed and the bucket scheme alone. A
// quantile reads its bucket's midpoint, and a change of resolution
// moves that midpoint either way (coarser octaves moved it from −0.3%
// to +0.8%), so the band is two-sided and a tenth of a percent wide.
func TestE18MergedP999Pinned(t *testing.T) {
	const measured = 46_792_703.5 // ns
	res, err := e18Merge(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.p999-measured) > 0.001*measured {
		t.Fatalf("merged p999 %.1fns, want %.1fns ± 0.1%%", res.p999, measured)
	}
}
