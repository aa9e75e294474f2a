// Command tycobench regenerates every experiment table in
// EXPERIMENTS.md (the evaluation this paper's prototype never
// published — see DESIGN.md for the substitution rationale).
//
//	tycobench                      # run everything at full scale
//	tycobench -quick               # CI-sized workloads
//	tycobench -e e1,e4             # selected experiments
//	tycobench -list                # list experiments
//	tycobench -seed 7              # override seeded components
//	tycobench -telemetry dump.json # telemetry capture run: write a flight-recorder dump
//	tycobench -openloop 1,2,5      # overload drill (E15) at these multiples of wire capacity
//	tycobench -slo 'p99(deliver.sojourn_nanos)<5ms' # open-loop SLO drill: burn-rate verdicts per load level
//	tycobench -scrape 127.0.0.1:9101  # strict-validate a node's /metrics endpoint
//	tycobench -cpuprofile cpu.pb   # pprof CPU profile of the run
//	tycobench -memprofile mem.pb   # heap profile at exit
//
// The tables are for reading. The repository's benchmark (benchmark/,
// BENCHMARK.json) measures performance across changes, and the
// deterministic values the tables carry — E5's two ship steps, E17's
// cache hit ratio, E18's merged p999 — are pinned by the tests of
// internal/experiments.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "shrink workloads (CI mode)")
		list     = flag.Bool("list", false, "list experiments and exit")
		sel      = flag.String("e", "", "comma-separated experiment ids (default: all)")
		seed     = flag.Int64("seed", 0, "override seeded components (0 = per-experiment defaults)")
		telPath  = flag.String("telemetry", "", "run a telemetry capture workload and write the flight-recorder dump to this file")
		openloop = flag.String("openloop", "", "drive the open-loop overdrive drill (E15) at these comma-separated multiples of wire capacity, e.g. 1,2,5")
		sloSpecs = flag.String("slo", "", "comma-separated SLO specs (e.g. 'p99(deliver.sojourn_nanos)<5ms@2s'); drives the open-loop drill with burn-rate tracking on (-openloop sets the load levels, default 1x) and reports verdicts")
		scrape   = flag.String("scrape", "", "scrape host:port/metrics, strict-validate the OpenMetrics text, and print each family (exit 1 on parse failure)")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	all := experiments.All()
	if *list {
		for _, r := range all {
			fmt.Printf("%-4s %s\n", r.ID, r.Name)
		}
		return
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	want := map[string]bool{}
	if *sel != "" {
		for _, id := range strings.Split(*sel, ",") {
			want[strings.TrimSpace(strings.ToLower(id))] = true
		}
	}
	if *scrape != "" {
		if err := scrapeMetrics(*scrape); err != nil {
			fmt.Fprintf(os.Stderr, "scrape: %v\n", err)
			os.Exit(1)
		}
		return
	}
	opts := experiments.Options{Quick: *quick, Seed: *seed}
	var mults []int
	if *openloop != "" {
		for _, s := range strings.Split(*openloop, ",") {
			m, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || m < 1 {
				fmt.Fprintf(os.Stderr, "openloop: bad multiple %q (want a positive integer)\n", s)
				os.Exit(2)
			}
			mults = append(mults, m)
		}
	}
	if *sloSpecs != "" {
		var specs []string
		for _, s := range strings.Split(*sloSpecs, ",") {
			if s = strings.TrimSpace(s); s != "" {
				specs = append(specs, s)
			}
		}
		table, err := experiments.SLODrill(opts, specs, mults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "slo: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(table.Render())
		return
	}
	if *openloop != "" {
		table, err := experiments.OpenLoopDrill(opts, mults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "openloop: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(table.Render())
		return
	}
	if *telPath != "" {
		dump, err := experiments.TelemetryCapture(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*telPath, append(dump.JSON(), '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("telemetry dump written to %s\n", *telPath)
		return
	}
	failed := false
	for _, r := range all {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		fmt.Printf("== %s: %s ==\n", strings.ToUpper(r.ID), r.Name)
		start := time.Now()
		table, err := r.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n\n", r.ID, err)
			failed = true
			continue
		}
		fmt.Print(table.Render())
		fmt.Printf("(%s in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err == nil {
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// scrapeMetrics pulls one node's OpenMetrics exposition through the
// same strict parser tycotop uses and prints every family with its
// sample count — CI's scrape-smoke job uses this as the validator.
func scrapeMetrics(addr string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	fams, err := telemetry.ScrapeMetrics(client, addr)
	if err != nil {
		return err
	}
	samples := 0
	for _, f := range fams {
		fmt.Printf("%-45s %-7s %d sample(s)\n", f.Name, f.Type, len(f.Samples))
		samples += len(f.Samples)
	}
	fmt.Printf("ok: %d families, %d samples from http://%s/metrics\n", len(fams), samples, addr)
	return nil
}
