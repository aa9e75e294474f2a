package compiler_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/syntax"
)

func compileSrc(t *testing.T, src string) *asm.Unit {
	t.Helper()
	unit, err := compiler.Compile(syntax.MustParse(src), "fusion")
	if err != nil {
		t.Fatalf("compile: %v\nsrc: %s", err, src)
	}
	return unit
}

// spawns counts the Spawn instructions and the blocks named "par" (the
// blocks a spawned branch compiles to).
func spawns(u *asm.Unit) (spawn, par int) {
	for _, b := range u.Blocks {
		if b.Name == "par" {
			par++
		}
		for _, in := range b.Code {
			if in.Op == asm.Spawn {
				spawn++
			}
		}
	}
	return spawn, par
}

func TestLetOnLocalChannelForksNothing(t *testing.T) {
	u := compileSrc(t, `new a ((a?(x, r) = r![x * x]) | let y = a![9] in println(y))`)
	if spawn, par := spawns(u); spawn != 0 || par != 0 {
		t.Fatalf("%d Spawn instructions and %d par blocks, want none", spawn, par)
	}
	// Entry plus the two method blocks: the server's and the call's
	// continuation.
	if len(u.Blocks) != 3 {
		t.Fatalf("%d blocks, want 3", len(u.Blocks))
	}
}

func TestBranchReadingImportKeepsSpawn(t *testing.T) {
	u := compileSrc(t, `import x from s in (println("left") | x![2])`)
	if spawn, par := spawns(u); spawn != 1 || par != 1 {
		t.Fatalf("%d Spawn instructions and %d par blocks, want 1 and 1", spawn, par)
	}
	for _, b := range u.Blocks {
		if b.Name != "par" {
			continue
		}
		if b.Code[0].Op != asm.LdImp {
			t.Fatalf("spawned branch starts with %s, want the import read", b.Code[0].Op)
		}
	}

	// A local binder shadowing the import makes the branch fusible; an
	// import read nested in an object body does not count (that body is
	// a block of its own).
	for _, src := range []string{
		`import x from s in (println("left") | new x x![2])`,
		`import x from s in new y (println("left") | y?() = x![2])`,
	} {
		if spawn, _ := spawns(compileSrc(t, src)); spawn != 0 {
			t.Errorf("%d Spawn instructions, want none\nsrc: %s", spawn, src)
		}
	}
	// Export and import forms keep their own thread.
	for _, src := range []string{
		`println("left") | export new e e![1]`,
		`println("left") | import z from s in println("z")`,
	} {
		if spawn, _ := spawns(compileSrc(t, src)); spawn != 1 {
			t.Errorf("%d Spawn instructions, want 1\nsrc: %s", spawn, src)
		}
	}
}

func TestFusedBranchBindsFreshSlots(t *testing.T) {
	// Both branches bind a channel named x; the fused right branch runs
	// first and must not reuse the slot the left branch's x takes.
	src := `new x ((x?(v) = println("left", v)) | x![1]) | new x ((x?(v) = println("right", v)) | x![2])`
	u := compileSrc(t, src)
	entry := u.Blocks[u.Entry]
	stored := map[int32]bool{}
	for _, in := range entry.Code {
		if in.Op == asm.StLoc {
			stored[in.A] = true
		}
	}
	if entry.NLocals != 2 || len(stored) != 2 {
		t.Fatalf("entry has %d locals and stores to %d slots, want 2 and 2", entry.NLocals, len(stored))
	}
	if out := run(t, src); sortedLines(out) != "left 1\nright 2" {
		t.Fatalf("out = %q", out)
	}
}
