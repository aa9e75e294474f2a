package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/syntax"
)

// appletBody builds an applet whose compiled body has roughly size
// arithmetic instructions (a long constant-folded-free sum), so the
// shipped/fetched unit grows with size.
func appletBody(size int) string {
	var b strings.Builder
	b.WriteString("r![n")
	for i := 0; i < size; i++ {
		fmt.Fprintf(&b, " + %d", i%7)
	}
	b.WriteString("]")
	return b.String()
}

// E4 — applet delivery strategies (§4): code fetching vs code
// shipping, the fetch cache, and the cost of moving bigger code.
//
// Expected shape: for a single use the two strategies are comparable
// (one code movement either way); for repeated instantiation fetch
// wins once the class is cached (later uses are pure local
// instantiations), while shipping moves the code every time — though
// the client links it only on the first arrival — and disabling the
// fetch cache restores a fetch and a link per use. Larger applets
// cost proportionally more to move on slower links.
func E4(o Options) (*Table, error) {
	uses := o.scale(50, 8)
	size := o.scale(64, 16)

	fetchServer := fmt.Sprintf(`
export def Applet(n, r) = %s in inaction`, appletBody(size))
	fetchClient := fmt.Sprintf(`
import Applet from server in
def Use(k) = if k == 0 then inaction
             else new r (Applet[k, r] | r?(v) = Use[k - 1])
in Use[%d]`, uses)

	shipServer := fmt.Sprintf(`
def AppletServer(self) =
  self ? { get(p) = (p?(n, r) = %s) | AppletServer[self] }
in export new appletserver AppletServer[appletserver]`, appletBody(size))
	shipClient := fmt.Sprintf(`
import appletserver from server in
def Use(k) = if k == 0 then inaction
             else new p (appletserver!get[p] |
                  new r (p![k, r] | r?(v) = Use[k - 1]))
in Use[%d]`, uses)

	t := &Table{
		ID:     "E4",
		Title:  "applet delivery: fetch vs ship, cache ablation, code size",
		Header: []string{"strategy", "uses", "code arrivals", "links", "total", "us/use"},
		Notes: []string{
			"code arrivals = mobile code units the client received; links = those it decoded and linked",
			"shape: fetch+cache moves and links the class once; ship moves code per use but links it once; fetch-nocache moves and links per use",
		},
	}

	type cfg struct {
		name       string
		server     string
		client     string
		disableCch bool
	}
	for _, c := range []cfg{
		{"fetch (cached)", fetchServer, fetchClient, false},
		{"fetch (no cache)", fetchServer, fetchClient, true},
		{"ship", shipServer, shipClient, false},
	} {
		var opts []node.SiteOption
		if c.disableCch {
			opts = append(opts, node.WithFetchCacheDisabled())
		}
		elapsed, cl, err := runWorkload(core.ClusterConfig{Nodes: 2, Link: mustProfile("myrinet")}, []workloadProgram{
			{node: 0, site: "server", src: c.server},
			{node: 1, site: "client", src: c.client, opts: opts},
		}, 5*time.Minute)
		if err != nil {
			return nil, fmt.Errorf("E4 %s: %w", c.name, err)
		}
		client, _ := cl.Node(1).SiteByName("client")
		links := client.UnitsLinked - 1 // the client's own program
		arrivals := links + client.LinkCacheHits
		cl.Stop()
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%d", uses),
			fmt.Sprintf("%d", arrivals),
			fmt.Sprintf("%d", links),
			elapsed.Round(time.Microsecond).String(),
			us(elapsed / time.Duration(uses)),
		})
	}

	// Code-size sweep: one fetch of applets of growing size over both
	// link profiles; report the unit's encoded size alongside.
	sizes := []int{8, 128, 1024}
	if o.Quick {
		sizes = []int{8, 128}
	}
	for _, sz := range sizes {
		srv := fmt.Sprintf(`export def Applet(n, r) = %s in inaction`, appletBody(sz))
		cli := `import Applet from server in new r (Applet[1, r] | r?(v) = inaction)`
		unitBytes := mustUnitSize(srv)
		for _, prof := range []string{"myrinet", "fastether"} {
			elapsed, cl, err := runWorkload(core.ClusterConfig{Nodes: 2, Link: mustProfile(prof)}, []workloadProgram{
				{node: 0, site: "server", src: srv},
				{node: 1, site: "client", src: cli},
			}, time.Minute)
			if err != nil {
				return nil, fmt.Errorf("E4 size %d %s: %w", sz, prof, err)
			}
			cl.Stop()
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("fetch-once/%s sz=%d", prof, sz),
				"1",
				"1",
				"1",
				elapsed.Round(time.Microsecond).String(),
				fmt.Sprintf("unit~%dB", unitBytes),
			})
		}
	}
	return t, nil
}

// mustUnitSize compiles a source and reports its encoded byte-code
// size (an upper bound for the shipped subset).
func mustUnitSize(src string) int {
	unit, err := compiler.Compile(syntax.MustParse(src), "probe")
	if err != nil {
		panic(err)
	}
	return len(asm.Encode(unit))
}
