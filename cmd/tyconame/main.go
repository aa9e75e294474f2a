// Command tyconame runs the Network Name Service (paper section 5:
// "the network name service is centralized and all sites know its
// location in advance"). DiTyCO nodes connect to it to register sites
// and resolve export/import identifiers. With -shards > 1 the
// namespace is partitioned by consistent hashing under a versioned
// shard map (DESIGN.md §16) while clients keep the same address.
//
//	tyconame -listen :7070
//	tyconame -listen :7070 -shards 4 -lease 5s
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/nameservice"
)

func main() {
	listen := flag.String("listen", ":7070", "address to serve the name service on")
	shards := flag.Int("shards", 1, "consistent-hash shard count (>1 partitions the namespace under a versioned shard map, DESIGN.md §16)")
	lease := flag.Duration("lease", 0, "lease TTL for registrations (0 = no leases)")
	flag.Parse()

	members := make([]uint32, max(*shards, 1))
	for i := range members {
		members[i] = uint32(i + 1)
	}
	svc := nameservice.NewSharded(nameservice.ShardedConfig{Members: members, LeaseTTL: *lease})
	srv, err := nameservice.NewServer(svc, *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tyconame:", err)
		os.Exit(1)
	}
	fmt.Printf("tyconame: serving on %s\n", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\ntyconame: shutting down")
	fmt.Print(svc.Dump())
	srv.Close()
}
