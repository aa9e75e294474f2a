package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/compiler"
	"repro/internal/stats"
	"repro/internal/syntax"
	"repro/internal/types"
	"repro/internal/vm"
)

// e3Programs are the granularity probes: each source runs on a bare
// machine and the per-thread instruction counts feed a histogram. The
// paper's claim under test: "the parallelism generated by the TyCO
// virtual machine is very fine grained, typically a few tens of
// byte-code instructions per thread".
func e3Programs(o Options) []struct{ name, src string } {
	n := o.scale(20000, 1000)
	return []struct{ name, src string }{
		{"loop", fmt.Sprintf(`
def L(n) = if n == 0 then inaction else L[n - 1]
in L[%d]`, n)},
		{"pingpong", fmt.Sprintf(`
def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p])
and Call(p, n) = if n == 0 then inaction else let y = p![n] in Call[p, n - 1]
in new p (Serve[p] | Call[p, %d])`, n/2)},
		{"cell", fmt.Sprintf(`
def Cell(self, v) = self?{ read(r) = r![v] | Cell[self, v], write(u, k) = k![] | Cell[self, u] }
and Reader(c, n) = if n == 0 then inaction
                   else new r (c!read[r] | r?(w) = Reader[c, n - 1])
in new x (Cell[x, 1] | Reader[x, %d])`, n/2)},
		{"spawn", fmt.Sprintf(`
def S(n) = if n == 0 then inaction else (inaction | S[n - 1])
in S[%d]`, n)},
		{"fib", fmt.Sprintf(`
def Fib(n, r) = if n < 2 then r![n]
                else new a new b (Fib[n - 1, a] | Fib[n - 2, b] |
                     a?(x) = b?(y) = r![x + y])
in new r (Fib[%d, r] | r?(v) = inaction)`, o.scale(18, 10))},
	}
}

// E3 — virtual machine granularity and raw speed (Fig. 3).
func E3(o Options) (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "machine speed and instructions-per-thread granularity",
		Header: []string{"program", "threads", "instr", "i/thr mean", "i/thr p95", "reductions", "Minstr/s", "Mred/s"},
		Notes: []string{
			"paper claim: 'typically a few tens of byte-code instructions per thread'",
		},
	}
	for _, p := range e3Programs(o) {
		proc, err := syntax.Parse(p.src)
		if err != nil {
			return nil, fmt.Errorf("E3 %s: %w", p.name, err)
		}
		if _, err := types.Check(proc); err != nil {
			return nil, fmt.Errorf("E3 %s: %w", p.name, err)
		}
		unit, err := compiler.Compile(proc, p.name)
		if err != nil {
			return nil, fmt.Errorf("E3 %s: %w", p.name, err)
		}
		prog := vm.NewProgram()
		linked, err := prog.Link(unit, nil, nil)
		if err != nil {
			return nil, err
		}
		m := vm.NewMachine(prog, io.Discard, nil)
		hist := &stats.BucketHistogram{}
		m.InstrPerThread = func(n int) { hist.Observe(float64(n)) }
		m.Spawn(linked.Entry, nil)
		start := time.Now()
		if err := m.RunToQuiescence(); err != nil {
			return nil, fmt.Errorf("E3 %s: %w", p.name, err)
		}
		elapsed := time.Since(start)
		st := m.Stats
		reds := st.Communications + st.Instantiations
		t.Rows = append(t.Rows, []string{
			p.name,
			fmt.Sprintf("%d", st.Threads),
			fmt.Sprintf("%d", st.Instructions),
			fmt.Sprintf("%.1f", hist.Mean()),
			fmt.Sprintf("%.0f", hist.Percentile(95)),
			fmt.Sprintf("%d", reds),
			fmt.Sprintf("%.1f", float64(st.Instructions)/elapsed.Seconds()/1e6),
			fmt.Sprintf("%.2f", float64(reds)/elapsed.Seconds()/1e6),
		})
	}
	return t, nil
}
