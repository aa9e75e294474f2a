// Package slo is the objective-tracking layer of the analytics plane
// (DESIGN.md §17). A node declares objectives in a compact spec
// grammar, and a Tracker evaluates them every analytics tick against
// the node's time-series store using the multi-window burn-rate
// method: a FAST window (seconds) catches regressions quickly, a SLOW
// window (a minute) confirms they are real. The burn rate is
//
//	burn = badFraction / errorBudget
//
// where for `p99(metric) < T` the budget is 1% (the fraction of
// observations ALLOWED above T before the p99 crosses it) and
// badFraction is the measured fraction above T; for
// `ratio(bad,total) < R` the budget is R itself. burn ≥ 1 means the
// objective is being missed in that window. One burning window is
// "warn" (could be a blip or an old window draining); both burning is
// "breach" — the regression is current AND sustained, which is the
// state CI and operators alert on.
//
// Spec grammar (whitespace optional):
//
//	p99(deliver.sojourn_nanos) < 5ms @ 60s     latency quantile
//	ratio(rel.expired, deliver.local) < 0.1%   error rate
//
// The quantile may be p50/p90/p95/p99/p999; thresholds take Go
// duration syntax for latency and %/fraction for ratios. `@window`
// overrides the tracker's slow window per objective.
package slo

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Config declares a node's objectives.
type Config struct {
	// Objectives are spec strings (grammar above).
	Objectives []string
	// FastWindow (default 5s) and SlowWindow (default 60s) are the two
	// burn-rate evaluation windows.
	FastWindow time.Duration
	SlowWindow time.Duration
}

// trendLen bounds the retained fast-burn history per objective (the
// sparkline width).
const trendLen = 24

func (c Config) fast() time.Duration {
	if c.FastWindow <= 0 {
		return 5 * time.Second
	}
	return c.FastWindow
}

func (c Config) slow() time.Duration {
	if c.SlowWindow <= 0 {
		return 60 * time.Second
	}
	return c.SlowWindow
}

// objKind distinguishes the two objective families.
type objKind uint8

const (
	kindLatency objKind = iota + 1 // pQQ(hist) < duration
	kindRatio                      // ratio(bad, total) < fraction
)

// Objective is one parsed spec.
type Objective struct {
	Name     string // derived: "p99-deliver.sojourn_nanos" etc.
	Spec     string // original text
	kind     objKind
	metric   string  // histogram name (latency) or bad counter (ratio)
	total    string  // total counter (ratio only)
	quantile float64 // 99, 99.9, … (latency only)
	target   float64 // ns (latency) or fraction (ratio)
	budget   float64 // allowed bad fraction
	window   time.Duration
}

var (
	latencyRe = regexp.MustCompile(`^p(\d+(?:\.\d+)?)\(([^)]+)\)<(.+)$`)
	ratioRe   = regexp.MustCompile(`^ratio\(([^,]+),([^)]+)\)<(.+)$`)
)

// Parse compiles one spec string.
func Parse(spec string) (Objective, error) {
	o := Objective{Spec: spec}
	s := strings.ReplaceAll(spec, " ", "")
	if at := strings.IndexByte(s, '@'); at >= 0 {
		w, err := time.ParseDuration(s[at+1:])
		if err != nil || w <= 0 {
			return o, fmt.Errorf("slo: bad window in %q: %v", spec, err)
		}
		o.window = w
		s = s[:at]
	}
	if m := latencyRe.FindStringSubmatch(s); m != nil {
		q, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return o, fmt.Errorf("slo: bad quantile in %q", spec)
		}
		// pQQQ shorthand: p999 → 99.9, p9999 → 99.99 (only for
		// dot-less specs; p100 stays 100 and is rejected below).
		if !strings.Contains(m[1], ".") {
			for q > 100 {
				q /= 10
			}
		}
		if q <= 0 || q >= 100 {
			return o, fmt.Errorf("slo: bad quantile in %q", spec)
		}
		d, err := time.ParseDuration(m[3])
		if err != nil || d <= 0 {
			return o, fmt.Errorf("slo: bad latency threshold in %q: %v", spec, err)
		}
		o.kind = kindLatency
		o.metric = m[2]
		o.quantile = q
		o.target = float64(d.Nanoseconds())
		o.budget = (100 - q) / 100
		o.Name = fmt.Sprintf("p%s-%s", m[1], o.metric)
		return o, nil
	}
	if m := ratioRe.FindStringSubmatch(s); m != nil {
		frac, err := parseFraction(m[3])
		if err != nil {
			return o, fmt.Errorf("slo: bad ratio threshold in %q: %v", spec, err)
		}
		o.kind = kindRatio
		o.metric = m[1]
		o.total = m[2]
		o.target = frac
		o.budget = frac
		o.Name = fmt.Sprintf("ratio-%s", o.metric)
		return o, nil
	}
	return o, fmt.Errorf("slo: unparseable objective %q (want pQQ(metric)<dur or ratio(bad,total)<frac)", spec)
}

// parseFraction accepts "0.1%", "0.001" or "1e-3".
func parseFraction(s string) (float64, error) {
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, err
	}
	if pct {
		v /= 100
	}
	if v <= 0 || v >= 1 {
		return 0, fmt.Errorf("fraction %v out of (0,1)", v)
	}
	return v, nil
}

// Window returns the objective's slow window (fallback when the spec
// carried no @window).
func (o Objective) Window(fallback time.Duration) time.Duration {
	if o.window > 0 {
		return o.window
	}
	return fallback
}

// Tracker evaluates a node's objectives against its time-series
// store and publishes the verdicts as registry gauges:
//
//	slo.<name>.burn_fast_milli / .burn_slow_milli / .state
//
// (state 0=ok 1=warn 2=breach; burns in thousandths so integer gauges
// carry them).
type Tracker struct {
	cfg  Config
	objs []Objective
	ts   *telemetry.TimeSeries
	reg  *telemetry.Registry

	mu    sync.Mutex
	trend map[string][]float64 // objective name → recent fast burns
	last  []telemetry.SLOVerdict
}

// NewTracker parses the config's objectives. The registry may be the
// same one the time-series store samples — verdict gauges then show up
// in /metrics and the retained series like any other instrument.
func NewTracker(cfg Config, ts *telemetry.TimeSeries, reg *telemetry.Registry) (*Tracker, error) {
	if len(cfg.Objectives) == 0 {
		return nil, fmt.Errorf("slo: no objectives configured")
	}
	t := &Tracker{cfg: cfg, ts: ts, reg: reg, trend: map[string][]float64{}}
	for _, spec := range cfg.Objectives {
		o, err := Parse(spec)
		if err != nil {
			return nil, err
		}
		t.objs = append(t.objs, o)
	}
	return t, nil
}

// Objectives exposes the parsed objective list.
func (t *Tracker) Objectives() []Objective {
	if t == nil {
		return nil
	}
	return t.objs
}

// Evaluate runs every objective at now and returns (and retains) the
// verdicts. Called from the node's analytics ticker, after Sample.
func (t *Tracker) Evaluate(now time.Time) []telemetry.SLOVerdict {
	if t == nil {
		return nil
	}
	out := make([]telemetry.SLOVerdict, 0, len(t.objs))
	for _, o := range t.objs {
		slow := o.Window(t.cfg.slow())
		fast := t.cfg.fast()
		if fast >= slow {
			fast = slow / 4
			if fast <= 0 {
				fast = slow
			}
		}
		v := telemetry.SLOVerdict{
			Name:      o.Name,
			Objective: o.Spec,
			WindowMs:  slow.Milliseconds(),
			Target:    o.target,
		}
		switch o.kind {
		case kindLatency:
			v.BurnFast = t.latencyBurn(o, fast, now)
			slowDist := t.ts.WindowDist(o.metric, slow, now)
			v.BurnSlow = burnOf(slowDist.FractionAbove(o.target), o.budget)
			v.Observed = slowDist.Quantile(o.quantile)
		case kindRatio:
			v.BurnFast = t.ratioBurn(o, fast, now)
			bad, okBad := t.ts.ScalarDelta(o.metric, slow, now)
			total, okTotal := t.ts.ScalarDelta(o.total, slow, now)
			frac := 0.0
			if okBad && okTotal && total > 0 {
				frac = bad / total
			}
			v.Observed = frac
			v.BurnSlow = burnOf(frac, o.budget)
		}
		v.State = stateOf(v.BurnFast, v.BurnSlow)
		t.mu.Lock()
		hist := append(t.trend[o.Name], v.BurnFast)
		if len(hist) > trendLen {
			hist = hist[len(hist)-trendLen:]
		}
		t.trend[o.Name] = hist
		v.Trend = append([]float64(nil), hist...)
		t.mu.Unlock()
		t.publish(v)
		out = append(out, v)
	}
	t.mu.Lock()
	t.last = out
	t.mu.Unlock()
	return out
}

func (t *Tracker) latencyBurn(o Objective, w time.Duration, now time.Time) float64 {
	return burnOf(t.ts.WindowDist(o.metric, w, now).FractionAbove(o.target), o.budget)
}

func (t *Tracker) ratioBurn(o Objective, w time.Duration, now time.Time) float64 {
	bad, okBad := t.ts.ScalarDelta(o.metric, w, now)
	total, okTotal := t.ts.ScalarDelta(o.total, w, now)
	if !okBad || !okTotal || total <= 0 {
		return 0
	}
	return burnOf(bad/total, o.budget)
}

func burnOf(badFraction, budget float64) float64 {
	if budget <= 0 {
		return 0
	}
	return badFraction / budget
}

// stateOf applies the multi-window rule: both windows burning ≥1 is a
// confirmed breach; one is a warning; neither is ok.
func stateOf(fast, slow float64) string {
	switch {
	case fast >= 1 && slow >= 1:
		return "breach"
	case fast >= 1 || slow >= 1:
		return "warn"
	default:
		return "ok"
	}
}

func (t *Tracker) publish(v telemetry.SLOVerdict) {
	if t.reg == nil {
		return
	}
	base := "slo." + v.Name
	t.reg.Gauge(base + ".burn_fast_milli").Set(int64(v.BurnFast * 1000))
	t.reg.Gauge(base + ".burn_slow_milli").Set(int64(v.BurnSlow * 1000))
	t.reg.Gauge(base + ".state").Set(int64(stateCode(v.State)))
}

func stateCode(s string) int {
	switch s {
	case "warn":
		return 1
	case "breach":
		return 2
	}
	return 0
}

// Verdicts returns the most recent evaluation (nil before the first).
// Safe to call from scrape handlers concurrently with Evaluate.
func (t *Tracker) Verdicts() []telemetry.SLOVerdict {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last
}

// WorstState folds a verdict set to its most severe state ("" when
// empty) — the tycotop SLO column.
func WorstState(vs []telemetry.SLOVerdict) string {
	return telemetry.WorstSLOState(vs)
}

// MaxBurn folds a verdict set to its highest slow-window burn — the
// tycotop BURN column.
func MaxBurn(vs []telemetry.SLOVerdict) float64 {
	return telemetry.MaxSLOBurn(vs)
}

// Sparkline renders a burn history as unicode block glyphs, scaled so
// burn 1.0 (budget exactly spent) hits the middle of the ramp and
// anything ≥2 saturates.
func Sparkline(trend []float64) string {
	return telemetry.BurnSparkline(trend)
}
