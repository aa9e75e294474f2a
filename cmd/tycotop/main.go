// Command tycotop renders a live aggregated view of a DiTyCO cluster
// by scraping every node's observability endpoint (DESIGN.md §12). It
// discovers endpoints through the name service (nodes started with
// dityco -introspect advertise themselves) or takes an explicit list:
//
//	tycotop -ns localhost:7070                     # discover via name service
//	tycotop -nodes 1=127.0.0.1:9101,2=127.0.0.1:9102
//	tycotop -ns localhost:7070 -once -json         # one JSON snapshot and exit
//
// Without -once it refreshes every -interval, clearing the screen
// between frames like top(1).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/nameservice"
	"repro/internal/telemetry"
)

func main() {
	var (
		nsAddr   = flag.String("ns", "", "name service address; endpoints are re-discovered every frame")
		nodeStr  = flag.String("nodes", "", "explicit endpoint list: id=host:port,… (bypasses the name service)")
		once     = flag.Bool("once", false, "render a single frame and exit")
		jsonOut  = flag.Bool("json", false, "emit the cluster view as JSON instead of a table")
		interval = flag.Duration("interval", 2*time.Second, "refresh period")
		timeout  = flag.Duration("timeout", 3*time.Second, "per-scrape HTTP timeout")
	)
	flag.Parse()

	if *nsAddr == "" && *nodeStr == "" {
		fmt.Fprintln(os.Stderr, "tycotop: need -ns or -nodes")
		os.Exit(2)
	}

	var static map[uint32]string
	if *nodeStr != "" {
		static = map[uint32]string{}
		for _, p := range strings.Split(*nodeStr, ",") {
			eq := strings.IndexByte(p, '=')
			if eq < 0 {
				fatal(fmt.Errorf("bad node %q (want id=host:port)", p))
			}
			id, err := strconv.ParseUint(p[:eq], 10, 32)
			if err != nil {
				fatal(fmt.Errorf("bad node id in %q: %v", p, err))
			}
			static[uint32(id)] = p[eq+1:]
		}
	}

	var ns *nameservice.Client
	if static == nil {
		if strings.Contains(*nsAddr, ",") {
			fatal(fmt.Errorf("-ns takes one address, got %q", *nsAddr))
		}
		cli, err := nameservice.Dial(*nsAddr)
		if err != nil {
			fatal(fmt.Errorf("name service at %s: %w", *nsAddr, err))
		}
		defer cli.Close()
		ns = cli
	}

	for {
		endpoints := static
		if endpoints == nil {
			ctx, cancel := context.WithTimeout(context.Background(), *timeout)
			eps, err := ns.Endpoints(ctx, nameservice.EndpointIntrospect)
			cancel()
			if err != nil {
				fatal(fmt.Errorf("endpoint discovery: %w", err))
			}
			endpoints = eps
		}
		view := telemetry.ScrapeCluster(endpoints, *timeout)
		if *jsonOut {
			os.Stdout.Write(append(view.JSON(), '\n'))
		} else {
			if !*once {
				fmt.Print("\033[H\033[2J") // clear screen, cursor home
			}
			fmt.Printf("tycotop — %d node(s)\n\n", len(endpoints))
			fmt.Print(view.RenderTable())
		}
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tycotop:", err)
	os.Exit(1)
}
