package vm_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/syntax"
	"repro/internal/testutil"
	"repro/internal/vm"
)

// buildMachine links a hand-assembled unit and returns the machine.
func buildMachine(t *testing.T, u *asm.Unit, out *strings.Builder) (*vm.Machine, *vm.Linked) {
	t.Helper()
	if err := asm.Verify(u); err != nil {
		t.Fatalf("verify: %v", err)
	}
	prog := vm.NewProgram()
	linked, err := prog.Link(u, nil, nil)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	m := vm.NewMachine(prog, out, nil)
	return m, linked
}

func TestOpcodesArithmetic(t *testing.T) {
	// Hand-assembled: push 6, 7, mul, println 1.
	u := &asm.Unit{Name: "arith", Entry: 0, Blocks: []asm.Block{{
		Name: "entry",
		Code: []asm.Instr{
			{Op: asm.LdI, A: 6},
			{Op: asm.LdI, A: 7},
			{Op: asm.Mul},
			{Op: asm.Println, A: 1},
			{Op: asm.Halt},
		},
	}}}
	var out strings.Builder
	m, linked := buildMachine(t, u, &out)
	m.Spawn(linked.Entry, nil)
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "42\n" {
		t.Fatalf("out = %q", out.String())
	}
	if m.Stats.Instructions != 5 {
		t.Fatalf("instructions = %d", m.Stats.Instructions)
	}
}

func TestOpcodesJumps(t *testing.T) {
	// if false then 1 else 2
	u := &asm.Unit{Name: "jmp", Entry: 0, Blocks: []asm.Block{{
		Name: "entry",
		Code: []asm.Instr{
			{Op: asm.LdB, A: 0},
			{Op: asm.JmpF, A: 4},
			{Op: asm.LdI, A: 1},
			{Op: asm.Jmp, A: 5},
			{Op: asm.LdI, A: 2},
			{Op: asm.Println, A: 1},
			{Op: asm.Halt},
		},
	}}}
	var out strings.Builder
	m, linked := buildMachine(t, u, &out)
	m.Spawn(linked.Entry, nil)
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "2\n" {
		t.Fatalf("out = %q", out.String())
	}
}

func TestFallOffBlockEndActsAsHalt(t *testing.T) {
	u := &asm.Unit{Name: "fall", Entry: 0, Blocks: []asm.Block{{
		Name: "entry",
		Code: []asm.Instr{{Op: asm.LdI, A: 1}, {Op: asm.Drop}},
	}}}
	var out strings.Builder
	m, linked := buildMachine(t, u, &out)
	m.Spawn(linked.Entry, nil)
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		wantSub string
	}{
		{"div by zero", `println(1 / 0)`, "division by zero"},
		{"mod by zero", `println(1 % 0)`, "modulo by zero"},
		{"bad add", `println(1 + "s")`, "not applicable"},
		{"label miss", `new x (x!miss[] | x?{ hit() = inaction })`, "does not understand"},
		{"msg arity", `new x (x!go[1] | x?{ go(a, b) = inaction })`, "expects 2 arguments"},
		{"class arity", `def A(x, y) = inaction in A[1]`, "expects 2 arguments"},
		{"neg bool", `println(-(1 == 1))`, "not a number"},
	}
	for _, c := range cases {
		p := syntax.MustParse(c.src)
		unit, err := compiler.Compile(p, c.name)
		if err != nil {
			t.Fatalf("%s: compile: %v", c.name, err)
		}
		prog := vm.NewProgram()
		linked, err := prog.Link(unit, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := vm.NewMachine(prog, nil, nil)
		m.Spawn(linked.Entry, nil)
		err = m.RunToQuiescence()
		if err == nil {
			t.Errorf("%s: expected runtime error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.wantSub)
		}
	}
}

func TestRemoteWithoutNetworkFails(t *testing.T) {
	// A message to a network reference on a machine with no External
	// must error, not crash.
	prog := vm.NewProgram()
	m := vm.NewMachine(prog, nil, nil)
	err := m.DeliverMsg(m.NewChan(), prog.LabelIndex("l"), []vm.Value{vm.Net(vm.NetRef{Heap: 1, Site: 2, Node: 3})})
	if err != nil {
		t.Fatalf("delivering a netref value locally is fine: %v", err)
	}
	// But sending TO a netref without a network errors.
	err = m.Instantiate(vm.NetClassVal(vm.NetClass{Name: "K", Site: 1, Node: 1}), nil)
	if err == nil || !strings.Contains(err.Error(), "no network") {
		t.Fatalf("want no-network error, got %v", err)
	}
}

func TestValuePackingClassID(t *testing.T) {
	v := vm.Class(123, 456, nil)
	g, c := v.ClassID()
	if g != 123 || c != 456 {
		t.Fatalf("class id packing: %d %d", g, c)
	}
}

func TestValueEquality(t *testing.T) {
	cases := []struct {
		a, b vm.Value
		eq   bool
	}{
		{vm.Int(1), vm.Int(1), true},
		{vm.Int(1), vm.Int(2), false},
		{vm.Int(1), vm.Float(1), false},
		{vm.Str("x"), vm.Str("x"), true},
		{vm.Bool(true), vm.Bool(true), true},
		{vm.Chan(3), vm.Chan(3), true},
		{vm.Chan(3), vm.Chan(4), false},
		{vm.Net(vm.NetRef{Heap: 1, Site: 2, Node: 3}), vm.Net(vm.NetRef{Heap: 1, Site: 2, Node: 3}), true},
		{vm.Net(vm.NetRef{Heap: 1, Site: 2, Node: 3}), vm.Net(vm.NetRef{Heap: 2, Site: 2, Node: 3}), false},
	}
	for i, c := range cases {
		if c.a.Equal(c.b) != c.eq {
			t.Errorf("case %d: %v == %v should be %v", i, c.a, c.b, c.eq)
		}
	}
}

func TestLinkArityMismatch(t *testing.T) {
	u := &asm.Unit{Name: "imp", Entry: -1,
		Imports: []asm.ImportRef{{Site: "s", Name: "x"}}}
	prog := vm.NewProgram()
	if _, err := prog.Link(u, nil, nil); err == nil {
		t.Fatal("link with missing import values should fail")
	}
	if _, err := prog.Link(u, []vm.Value{vm.Int(1)}, nil); err != nil {
		t.Fatalf("link with matching imports: %v", err)
	}
}

func TestLinkTwoUnitsShareLabels(t *testing.T) {
	u1, err := compiler.Compile(syntax.MustParse(`new x (x!ping[] | x?{ ping() = inaction })`), "u1")
	if err != nil {
		t.Fatal(err)
	}
	u2, err := compiler.Compile(syntax.MustParse(`new y (y!ping[1] | y?{ ping(v) = println(v) })`), "u2")
	if err != nil {
		t.Fatal(err)
	}
	prog := vm.NewProgram()
	l1, err := prog.Link(u1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := prog.Link(u2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	m := vm.NewMachine(prog, &out, nil)
	m.Spawn(l1.Entry, nil)
	m.Spawn(l2.Entry, nil)
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "1\n" {
		t.Fatalf("out = %q", out.String())
	}
	// "ping" must be interned once program-wide.
	count := 0
	for _, l := range prog.Labels {
		if l == "ping" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("label interned %d times", count)
	}
}

func TestExtractObjectClosure(t *testing.T) {
	// Compile a program with an object whose method spawns and
	// instantiates; extraction from its table must carry every
	// reachable block.
	src := `
def Helper(v) = println("helper", v)
in new x (x?{ run(n) = (Helper[n] | new y (y![n] | y?(w) = println(w))) })`
	unit, err := compiler.Compile(syntax.MustParse(src), "mob")
	if err != nil {
		t.Fatal(err)
	}
	prog := vm.NewProgram()
	if _, err := prog.Link(unit, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Find the outer object's table (the one serving "run"); the
	// method body contains a second, inner object.
	rootTable := -1
	for ti := range prog.Tables {
		if _, ok := prog.Tables[ti].Lookup(prog.LabelIndex("run")); ok {
			rootTable = ti
		}
	}
	if rootTable < 0 {
		t.Fatal("no table serves label run")
	}
	// The object's frame captures the Helper class closure, so the
	// site would add its def group to the extraction roots (this is
	// what Site.RemoteObj's classGroups walk does).
	mobile, reloc, err := prog.Extract([]int{rootTable}, []int{0}, func(v vm.Value) (asm.Const, error) {
		return asm.Const{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := asm.Verify(mobile); err != nil {
		t.Fatalf("mobile unit invalid: %v", err)
	}
	if _, ok := reloc.Tables[rootTable]; !ok {
		t.Fatal("root table missing from relocation")
	}
	// The mobile unit must NOT include the entry block (unreachable
	// from the object), but must include the method and its spawns.
	if len(mobile.Blocks) >= len(prog.Blocks) {
		t.Fatalf("extraction did not prune: %d blocks of %d", len(mobile.Blocks), len(prog.Blocks))
	}
	// Link the mobile unit into a fresh program, rebuild the captured
	// class closure, and run the object.
	prog2 := vm.NewProgram()
	l2, err := prog2.Link(mobile, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	m2 := vm.NewMachine(prog2, &out, nil)
	ch := m2.NewChan()
	groupFrame := m2.MakeGroupFrame(l2.Reloc.Groups[reloc.Groups[0]], nil)
	helper := groupFrame[0]
	table := l2.Reloc.Tables[reloc.Tables[rootTable]]
	if err := m2.DeliverObj(ch, table, []vm.Value{helper}); err != nil {
		t.Fatal(err)
	}
	if err := m2.DeliverMsg(ch, prog2.LabelIndex("run"), []vm.Value{vm.Int(5)}); err != nil {
		t.Fatal(err)
	}
	if err := m2.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "helper 5") || !strings.Contains(got, "5\n") {
		t.Fatalf("migrated object misbehaved: %q", got)
	}
}

func TestExtractGroupClosure(t *testing.T) {
	src := `
def Install(n) = Go[n]
and Go(k) = if k == 0 then println("done") else Go[k - 1]
in inaction`
	unit, err := compiler.Compile(syntax.MustParse(src), "grp")
	if err != nil {
		t.Fatal(err)
	}
	prog := vm.NewProgram()
	if _, err := prog.Link(unit, nil, nil); err != nil {
		t.Fatal(err)
	}
	mobile, reloc, err := prog.Extract(nil, []int{0}, func(v vm.Value) (asm.Const, error) {
		return asm.Const{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mobile.Groups) != 1 || len(mobile.Groups[0].Classes) != 2 {
		t.Fatalf("group extraction wrong: %+v", mobile.Groups)
	}
	prog2 := vm.NewProgram()
	l2, err := prog2.Link(mobile, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	m2 := vm.NewMachine(prog2, &out, nil)
	frame := m2.MakeGroupFrame(l2.Reloc.Groups[reloc.Groups[0]], nil)
	// Instantiate Install[3] at the destination.
	if err := m2.Instantiate(frame[0], []vm.Value{vm.Int(3)}); err != nil {
		t.Fatal(err)
	}
	if err := m2.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "done\n" {
		t.Fatalf("out = %q", out.String())
	}
}

func TestParkAndRequeue(t *testing.T) {
	// A thread touching a pending constant parks; requeuing after
	// resolution completes it. It parks holding 7 on its operand stack,
	// and the noise threads that run meanwhile push other values on the
	// machine's stack: the parked thread must find its own 7 again.
	u := &asm.Unit{Name: "park", Entry: 0,
		Imports: []asm.ImportRef{{Site: "s", Name: "x"}},
		Blocks: []asm.Block{{
			Name: "entry",
			Code: []asm.Instr{
				{Op: asm.LdI, A: 7},
				{Op: asm.LdImp, A: 0},
				{Op: asm.Add},
				{Op: asm.Println, A: 1},
				{Op: asm.Halt},
			},
		}, {
			Name: "noise",
			Code: []asm.Instr{
				{Op: asm.LdI, A: 1000},
				{Op: asm.LdI, A: 2000},
				{Op: asm.Add},
				{Op: asm.Println, A: 1},
				{Op: asm.Halt},
			},
		}}}
	if err := asm.Verify(u); err != nil {
		t.Fatal(err)
	}
	prog := vm.NewProgram()
	linked, err := prog.Link(u, []vm.Value{vm.Pending(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	m := vm.NewMachine(prog, &out, nil)
	var parked []vm.Thread
	var parkedConst int
	m.OnPending = func(th vm.Thread, idx int) {
		parked = append(parked, th)
		parkedConst = idx
	}
	m.Spawn(linked.Entry, nil)
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	if len(parked) != 1 || m.Stats.Parks != 1 {
		t.Fatalf("expected 1 parked thread, got %d (parks %d)", len(parked), m.Stats.Parks)
	}
	if out.String() != "" {
		t.Fatalf("output before resolution: %q", out.String())
	}
	for i := 0; i < 3; i++ {
		m.Spawn(linked.Reloc.Blocks[1], nil)
	}
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	prog.Consts[parkedConst] = vm.Int(99)
	m.Requeue(parked[0])

	// A snapshot taken with the resumed thread queued carries its stack,
	// in the encoding the format has always had (golden bytes produced
	// by the pre-shared-stack machine running this very test).
	w := vm.NewSnapWriter()
	m.EncodeSnapshot(w)
	snap := w.Finish()
	if got := hex.EncodeToString(snap); got != parkedSnapshotHex {
		t.Errorf("snapshot encoding changed:\n got %s\nwant %s", got, parkedSnapshotHex)
	}
	r, err := vm.NewSnapReader(snap)
	if err != nil {
		t.Fatal(err)
	}
	var out2 strings.Builder
	m2 := vm.NewMachine(vm.NewProgram(), &out2, nil)
	if err := m2.DecodeSnapshot(r); err != nil {
		t.Fatal(err)
	}
	w2 := vm.NewSnapWriter()
	m2.EncodeSnapshot(w2)
	if !bytes.Equal(w2.Finish(), snap) {
		t.Error("snapshot does not survive a decode/encode round trip")
	}

	const want = "3000\n3000\n3000\n106\n"
	if err := m.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Fatalf("out = %q, want %q", out.String(), want)
	}
	if err := m2.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	if out2.String() != "106\n" {
		t.Fatalf("restored machine: out = %q, want %q", out2.String(), "106\n")
	}
}

// parkedSnapshotHex is TestParkAndRequeue's snapshot as the parent of
// the shared-operand-stack change encoded it.
const parkedSnapshotHex = "000205656e74727900000005040e002500000a0000210200260000056e6f6973650000000504d00f0004a01f000a000021020026000000000100c6010000000002000001110404000000000000000001000100020001000e00"

func TestPendingAtQueues(t *testing.T) {
	prog := vm.NewProgram()
	m := vm.NewMachine(prog, nil, nil)
	ch := m.NewChan()
	l := prog.LabelIndex("go")
	if err := m.DeliverMsg(ch, l, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.DeliverMsg(ch, l, nil); err != nil {
		t.Fatal(err)
	}
	msgs, objs := m.PendingAt(ch)
	if msgs != 2 || objs != 0 {
		t.Fatalf("pending = %d msgs %d objs", msgs, objs)
	}
}

// TestSchedulerFairness: a diverging recursive class must not starve
// an independent thread under the FIFO run-queue.
func TestSchedulerFairness(t *testing.T) {
	src := `
def Spin(n) = Spin[n + 1]
in (Spin[0] | println("starved?"))`
	p := syntax.MustParse(src)
	unit, err := compiler.Compile(p, "fair")
	if err != nil {
		t.Fatal(err)
	}
	prog := vm.NewProgram()
	linked, err := prog.Link(unit, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	m := vm.NewMachine(prog, &out, nil)
	m.Spawn(linked.Entry, nil)
	// Run a bounded number of threads; the print thread must get a
	// turn long before the budget runs out.
	if _, err := m.RunSlice(1000); err != nil {
		t.Fatal(err)
	}
	if out.String() != "starved?\n" {
		t.Fatalf("independent thread starved by diverging loop (out=%q)", out.String())
	}
}

// pingPong returns a machine about to run the same-site ping-pong for
// the given number of rounds. A round is 4 reductions (a COMM at p and
// at the reply channel, an INST of Serve and of Call) over 6 thread
// activations (the two par-compositions fork one more each).
func pingPong(tb testing.TB, rounds int) *vm.Machine {
	tb.Helper()
	src := fmt.Sprintf(`
def Serve(p) = p?(x, r) = (r![x + 1] | Serve[p])
and Call(p, n) = if n == 0 then inaction else let y = p![n] in Call[p, n - 1]
in new p (Serve[p] | Call[p, %d])`, rounds)
	unit, err := compiler.Compile(syntax.MustParse(src), "pingpong")
	if err != nil {
		tb.Fatal(err)
	}
	prog := vm.NewProgram()
	linked, err := prog.Link(unit, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	m := vm.NewMachine(prog, nil, nil)
	m.Spawn(linked.Entry, nil)
	return m
}

// TestAllocBudget pins what the machine allocates, so that a change
// which makes activation or reduction allocate more fails here rather
// than in the next benchmark run.
func TestAllocBudget(t *testing.T) {
	// Activation: taking a thread off the run-queue, running its block
	// on the machine's operand stack and retiring it allocates nothing.
	u := &asm.Unit{Name: "arith", Entry: 0, Blocks: []asm.Block{{
		Name: "entry",
		Code: []asm.Instr{
			{Op: asm.LdI, A: 6},
			{Op: asm.LdI, A: 7},
			{Op: asm.Mul},
			{Op: asm.Drop},
			{Op: asm.Halt},
		},
	}}}
	const runs = 1000
	m, linked := buildMachine(t, u, new(strings.Builder))
	for i := 0; i < runs+2; i++ { // AllocsPerRun adds a warm-up call
		m.Spawn(linked.Entry, nil)
	}
	if _, err := m.Step(); err != nil { // grows the operand stack once
		t.Fatal(err)
	}
	testutil.CheckAllocs(t, "thread activation", 0, runs, func() {
		if ok, err := m.Step(); !ok || err != nil {
			t.Fatalf("step: %v %v", ok, err)
		}
	})

	// Reduction: a ping-pong round allocates the six threads' frames,
	// the two halves that wait in a channel queue (the message at p or
	// the server object, and the caller's continuation object), and the
	// fresh reply channel's queue; the heap of channels grows amortised.
	m = pingPong(t, 1<<30)
	if _, err := m.RunSlice(6 * 64); err != nil {
		t.Fatal(err)
	}
	before := m.Stats
	testutil.CheckAllocs(t, "ping-pong round", 9, runs, func() {
		if n, err := m.RunSlice(6); n != 6 || err != nil {
			t.Fatalf("round: ran %d threads: %v", n, err)
		}
	})
	if !testutil.Race {
		red := (m.Stats.Communications - before.Communications) + (m.Stats.Instantiations - before.Instantiations)
		if want := uint64(4 * (runs + 1)); red != want {
			t.Fatalf("%d reductions in %d rounds, want %d", red, runs+1, want)
		}
	}
}

func BenchmarkMachinePingPong(b *testing.B) {
	b.ReportAllocs()
	m := pingPong(b, b.N)
	b.ResetTimer()
	if err := m.RunToQuiescence(); err != nil {
		b.Fatal(err)
	}
}
