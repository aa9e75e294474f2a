// Command dityco runs one DiTyCO node (paper Fig. 4): a pool of sites,
// the TyCOd communication daemon over TCP, and the TyCOi submission
// daemon for tycosh. Deploy one per machine:
//
//	tyconame -listen :7070 &
//	dityco -node 1 -listen :7101 -ioport :7201 -ns localhost:7070 -peers 2=host2:7102 &
//	dityco -node 2 -listen :7102 -ioport :7202 -ns localhost:7070 -peers 1=host1:7101 &
//	tycosh -node localhost:7201 -site server server.ty
//	tycosh -node localhost:7202 -site client client.ty
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/nameservice"
	"repro/internal/node"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func main() {
	var (
		nodeID  = flag.Uint("node", 1, "node identifier (unique across the network)")
		listen  = flag.String("listen", ":7101", "TyCOd transport listen address")
		ioport  = flag.String("ioport", ":7201", "TyCOi submission listen address")
		nsAddr  = flag.String("ns", "localhost:7070", "name service address (one tyconame; it may shard the namespace behind that address)")
		peerStr = flag.String("peers", "", "comma-separated peer list: id=host:port,…")
		telem   = flag.Bool("telemetry", true, "metrics registry + flight recorder (tycosh stats/trace)")
		tracing = flag.Bool("trace", false, "causal mobility tracing (adds a trace varint to every envelope; see DESIGN.md §11)")
		intro   = flag.String("introspect", "", "observability HTTP listen address (/metrics, /healthz, /statusz, /debug/…); empty disables, \"auto\" picks a loopback port")
	)
	flag.Parse()

	peers := map[uint32]string{}
	if *peerStr != "" {
		for _, p := range strings.Split(*peerStr, ",") {
			eq := strings.IndexByte(p, '=')
			if eq < 0 {
				fatal(fmt.Errorf("bad peer %q (want id=host:port)", p))
			}
			id, err := strconv.ParseUint(p[:eq], 10, 32)
			if err != nil {
				fatal(fmt.Errorf("bad peer id in %q: %v", p, err))
			}
			peers[uint32(id)] = p[eq+1:]
		}
	}

	if strings.Contains(*nsAddr, ",") {
		fatal(fmt.Errorf("-ns takes one address, got %q", *nsAddr))
	}
	ns, err := nameservice.Dial(*nsAddr)
	if err != nil {
		fatal(fmt.Errorf("name service at %s: %w", *nsAddr, err))
	}
	defer ns.Close()

	tr, err := transport.NewTCP(uint32(*nodeID), *listen, peers)
	if err != nil {
		fatal(err)
	}
	var tel *telemetry.Telemetry
	if *telem {
		tel = telemetry.New(uint32(*nodeID), telemetry.Config{Trace: *tracing})
	}
	var introCfg *node.IntrospectConfig
	if *intro != "" {
		listen := *intro
		if listen == "auto" {
			listen = "127.0.0.1:0"
		}
		introCfg = &node.IntrospectConfig{Listen: listen}
	}
	n := node.New(node.Config{
		ID:         uint32(*nodeID),
		NS:         ns,
		Transport:  tr,
		Out:        os.Stdout,
		Telemetry:  tel,
		Introspect: introCfg,
	})
	ti, err := n.ServeTyCOi(*ioport)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dityco: node %d up — transport %s, submissions %s, name service %s\n",
		*nodeID, tr.Addr(), ti.Addr(), *nsAddr)
	if introCfg != nil {
		obsAddr := n.IntrospectionAddr()
		if obsAddr == "" {
			fatal(fmt.Errorf("introspection server failed: %v", n.Err()))
		}
		// Advertise the endpoint so tycotop / tycosh cluster can find
		// this node through the name service alone.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := ns.RegisterEndpoint(ctx, uint32(*nodeID), nameservice.EndpointIntrospect, obsAddr); err != nil {
			fmt.Fprintf(os.Stderr, "dityco: warning: endpoint advertisement failed: %v\n", err)
		}
		cancel()
		fmt.Printf("dityco: node %d observability at http://%s/\n", *nodeID, obsAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\ndityco: shutting down")
	ti.Close()
	n.Stop()
	tr.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dityco:", err)
	os.Exit(1)
}
