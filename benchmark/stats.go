package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted values by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summary is the median and quartiles of one metric over the windows
// of a run.
type summary struct {
	q1, median, q3 float64
}

func summarize(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return summary{quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)}
}

// tailLevels are the percentiles the tail may be read at.
var tailLevels = []int{99, 95, 90, 75}

// tailLevel is the highest of tailLevels that still has at least ten
// of n samples beyond it; a tail read off fewer samples is one
// outlier, not a percentile. It falls back to 50.
func tailLevel(n int) int {
	for _, level := range tailLevels {
		if n*(100-level) >= 10*100 {
			return level
		}
	}
	return 50
}

// percentiles returns the median of one window's probe replies and
// their percentile at level, one sample per reply.
func percentiles(samples []float64, level int) (p50, tail float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile(s, 0.5), quantile(s, float64(level)/100)
}

// relDiff is how much worse b is than a, as a share of a, given the
// metric's direction. Negative means b is better.
func relDiff(a, b float64, higherIsBetter bool) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if higherIsBetter {
		return -d
	}
	return d
}
