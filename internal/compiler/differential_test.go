package compiler_test

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/calc"
	"repro/internal/compiler"
	"repro/internal/syntax"
	"repro/internal/types"
	"repro/internal/vm"
)

// runVM compiles and runs a program on the virtual machine, returning
// its print output. maxThreads caps execution for possibly-divergent
// programs (0 = unlimited); done reports whether it ran to quiescence.
func runVM(t *testing.T, p calc.Proc, maxThreads int) (out string, done bool, err error) {
	t.Helper()
	unit, cerr := compiler.Compile(p, "diff")
	if cerr != nil {
		t.Fatalf("compile: %v", cerr)
	}
	if verr := asm.Verify(unit); verr != nil {
		t.Fatalf("verify: %v", verr)
	}
	prog := vm.NewProgram()
	linked, lerr := prog.Link(unit, nil, nil)
	if lerr != nil {
		t.Fatalf("link: %v", lerr)
	}
	var b strings.Builder
	m := vm.NewMachine(prog, &b, nil)
	m.Spawn(linked.Entry, nil)
	if maxThreads <= 0 {
		rerr := m.RunToQuiescence()
		return b.String(), true, rerr
	}
	ran := 0
	for ran < maxThreads {
		n, rerr := m.RunSlice(1024)
		ran += n
		if rerr != nil {
			return b.String(), false, rerr
		}
		if n == 0 {
			return b.String(), true, nil
		}
	}
	return b.String(), false, nil
}

// sortedLines canonicalizes scheduler-dependent output order.
func sortedLines(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// The corpus covers every construct with deterministic (confluent)
// programs, so VM output and reference-interpreter output must agree
// as multisets of lines.
var corpus = []string{
	`println(1 + 2 * 3, "x", true, 2.5)`,
	`new x (x![5] | x?(v) = println(v))`,
	`new x ((x?(v) = println(v + 1)) | x![41])`,
	`new x (x!put[1, 2] | x?{ put(a, b) = println(a + b), take() = inaction })`,
	`def A(v) = println(v) in A[10]`,
	`def Even(n, r) = if n == 0 then r![true] else Odd[n - 1, r]
	 and Odd(n, r) = if n == 0 then r![false] else Even[n - 1, r]
	 in new r (Even[10, r] | r?(b) = println(b))`,
	`def Cell(self, v) = self?{ read(r) = r![v] | Cell[self, v], write(u, k) = k![] | Cell[self, u] }
	 in new c (Cell[c, 1] | new k (c!write[9, k] | k?() = new r (c!read[r] | r?(v) = println(v))))`,
	`new a ((a?(x, r) = r![x * x]) | let y = a![9] in println(y))`,
	`def Sum(n, acc, r) = if n == 0 then r![acc] else Sum[n - 1, acc + n, r]
	 in new r (Sum[100, 0, r] | r?(v) = println(v))`,
	`def Fib(n, r) = if n < 2 then r![n]
	   else new a new b (Fib[n - 1, a] | Fib[n - 2, b] | a?(x) = b?(y) = r![x + y])
	 in new r (Fib[10, r] | r?(v) = println(v))`,
	`new log ((log?(v) = println("got", v)) | def W(n) = log![n * 2] in W[21])`,
	`if 1 < 2 then (if "a" == "b" then println("eq") else println("ne")) else inaction`,
	`new x new y (x![1] | y![2] | x?(a) = y?(b) = println(a, b))`,
	`println("one") | println("two")`,
	`def Chain(n, r) = if n == 0 then r!["end"]
	   else new nx (Chain[n - 1, nx] | nx?(s) = r![s + "."])
	 in new r (Chain[5, r] | r?(s) = println(s))`,
	// Right branches the compiler runs inline, ahead of the left one:
	// an if, a nested par, a new shadowing a name the left branch
	// binds, and a def group.
	`new x ((x?(v) = println("got", v)) | if 1 < 2 then x![1] else x![2])`,
	`new x new y ((x?(a) = y?(b) = println(a - b)) | (y![2] | x![10]))`,
	`new log ((log?(a) = log?(b) = println(a + b))
	   | new x ((x?(v) = log![v]) | x![1])
	   | new x ((x?(v) = log![v * 10]) | x![2]))`,
	`new r ((r?(b) = println("even", b))
	   | def Even(n, k) = if n == 0 then k![true] else Odd[n - 1, k]
	     and Odd(n, k) = if n == 0 then k![false] else Even[n - 1, k]
	     in Even[4, r])`,
}

func TestDifferentialCorpus(t *testing.T) {
	for i, src := range corpus {
		p, err := syntax.Parse(src)
		if err != nil {
			t.Fatalf("case %d parse: %v\n%s", i, err, src)
		}
		if _, err := types.Check(p); err != nil {
			t.Fatalf("case %d typecheck: %v\n%s", i, err, src)
		}
		wantOut, _, err := calc.RunString(p, calc.Config{})
		if err != nil {
			t.Fatalf("case %d interpreter: %v\n%s", i, err, src)
		}
		gotOut, done, err := runVM(t, p, 0)
		if err != nil {
			t.Fatalf("case %d vm: %v\n%s", i, err, src)
		}
		if !done {
			t.Fatalf("case %d vm did not quiesce\n%s", i, src)
		}
		if sortedLines(gotOut) != sortedLines(wantOut) {
			t.Fatalf("case %d output mismatch:\nvm:     %q\ninterp: %q\nsrc: %s", i, gotOut, wantOut, src)
		}
	}
}

// TestDifferentialSchedules runs each corpus program under many
// interpreter schedules and checks the VM output is among (equals,
// for these confluent programs) the interpreter outcomes.
func TestDifferentialSchedules(t *testing.T) {
	for i, src := range corpus {
		p := syntax.MustParse(src)
		base, _, err := calc.RunString(p, calc.Config{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for seed := int64(1); seed <= 5; seed++ {
			out, _, err := calc.RunString(p, calc.Config{Seed: seed})
			if err != nil {
				t.Fatalf("case %d seed %d: %v", i, seed, err)
			}
			if sortedLines(out) != sortedLines(base) {
				t.Fatalf("case %d not confluent (fix the corpus): seed %d gave %q vs %q", i, seed, out, base)
			}
		}
	}
}

// Type-soundness property: randomly generated *well-typed* programs
// never hit a machine fault (no label-not-understood, no arity error,
// no unbound anything) — they either quiesce or exceed the thread cap
// (divergence is fine; going wrong is not).
func TestWellTypedProgramsDontGoWrong(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	g := &calc.Gen{R: r, MaxDepth: 5}
	accepted := 0
	tried := 0
	for accepted < 150 && tried < 20000 {
		tried++
		p := g.Proc()
		if _, err := types.Check(p); err != nil {
			continue
		}
		accepted++
		_, _, err := runVM(t, p, 50000)
		if err != nil {
			t.Fatalf("well-typed program faulted: %v\nsrc: %s", err, calc.String(p))
		}
	}
	if accepted < 50 {
		t.Fatalf("generator acceptance too low: %d/%d", accepted, tried)
	}
	t.Logf("ran %d well-typed random programs (%d generated)", accepted, tried)
}

// FuzzWellTypedProgramsDontGoWrong is the fuzz form of the property
// above: the fuzzer picks generator seeds, and the program a seed
// generates, if it type-checks, must run on the machine without a
// fault.
func FuzzWellTypedProgramsDontGoWrong(f *testing.F) {
	for _, seed := range []int64{1, 7, 97, 101} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		p := (&calc.Gen{R: rand.New(rand.NewSource(seed)), MaxDepth: 5}).Proc()
		if _, err := types.Check(p); err != nil {
			t.Skip("not well-typed")
		}
		if _, _, err := runVM(t, p, 50000); err != nil {
			t.Fatalf("well-typed program faulted: %v\nsrc: %s", err, calc.String(p))
		}
	})
}

// The same property on the reference interpreter: well-typed programs
// produce no runtime type errors there either.
func TestWellTypedProgramsDontGoWrongInterp(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	g := &calc.Gen{R: r, MaxDepth: 5}
	accepted := 0
	tried := 0
	for accepted < 150 && tried < 20000 {
		tried++
		p := g.Proc()
		if _, err := types.Check(p); err != nil {
			continue
		}
		accepted++
		_, _, err := calc.RunString(p, calc.Config{MaxSteps: 50000})
		if err != nil && err != calc.ErrMaxSteps {
			t.Fatalf("well-typed program faulted in interpreter: %v\nsrc: %s", err, calc.String(p))
		}
	}
	if accepted < 50 {
		t.Fatalf("generator acceptance too low: %d/%d", accepted, tried)
	}
}
