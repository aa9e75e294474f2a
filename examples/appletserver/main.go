// Appletserver: both applet-delivery strategies from paper section 4,
// running on a two-node cluster.
//
// Variant 1 (code FETCHING): the server exports applet classes; a
// client instantiation downloads the byte-code and runs it locally —
// the applets print on the *client's* I/O port.
//
// Variant 2 (code SHIPPING): the server exports an AppletServer object
// whose methods ship an applet object to a client-provided name (rule
// SHIPO).
//
//	go run ./examples/appletserver
package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
)

const fetchServer = `
export def Clock(r)   = r!["the time is 12:00"]
and        Banner(r)  = r!["*** welcome to DiTyCO ***"]
and        Counter(n, r) = if n == 0 then r!["counter done"]
                           else Counter[n - 1, r]
in inaction
`

const fetchClient = `
import Clock from server in
import Banner from server in
import Counter from server in
new r1 (Clock[r1]   | r1?(s) = println("applet said:", s)) |
new r2 (Banner[r2]  | r2?(s) = println("applet said:", s)) |
new r3 (Counter[100, r3] | r3?(s) = println("applet said:", s))
`

const shipServer = `
def AppletServer(self) =
  self ? {
    clock(p)  = (p?(r) = r!["the time is 12:00"]) | AppletServer[self],
    banner(p) = (p?(r) = r!["*** welcome to DiTyCO ***"]) | AppletServer[self]
  }
in export new appletserver AppletServer[appletserver]
`

const shipClient = `
import appletserver from server in
new p1 (appletserver!clock[p1] |
  new r (p1![r] | r?(s) = println("shipped applet said:", s))) |
new p2 (appletserver!banner[p2] |
  new r (p2![r] | r?(s) = println("shipped applet said:", s)))
`

func main() {
	fmt.Println("== variant 1: applet delivery by code fetching (rule FETCH) ==")
	run(fetchServer, fetchClient)
	fmt.Println()
	fmt.Println("== variant 2: applet delivery by code shipping (rule SHIPO) ==")
	run(shipServer, shipClient)
}

func run(serverSrc, clientSrc string) {
	cl, err := core.NewCluster(core.ClusterConfig{Nodes: 2})
	if err != nil {
		fail(err)
	}
	defer cl.Stop()

	var serverOut, clientOut strings.Builder
	if _, err := cl.Submit(0, "server", serverSrc, &serverOut); err != nil {
		fail(err)
	}
	client, err := cl.Submit(1, "client", clientSrc, &clientOut)
	if err != nil {
		fail(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cl.Wait(ctx); err != nil {
		fail(err)
	}
	fmt.Printf("server output: %q\n", serverOut.String())
	fmt.Print("client output:\n")
	for _, line := range strings.Split(strings.TrimRight(clientOut.String(), "\n"), "\n") {
		fmt.Println("  ", line)
	}
	links := client.UnitsLinked - 1 // -1: the client's own program
	fmt.Printf("client received %d mobile code unit(s), linked %d; fetched %d class group(s)\n",
		links+client.LinkCacheHits, links, client.ClassesFetched)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "appletserver:", err)
	os.Exit(1)
}
