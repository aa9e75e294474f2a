package asm_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/calc"
	"repro/internal/compiler"
	"repro/internal/syntax"
	"repro/internal/testutil"
	"repro/internal/vm"
)

func compile(t *testing.T, src string) *asm.Unit {
	t.Helper()
	u, err := compiler.Compile(syntax.MustParse(src), "test")
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	u := compile(t, `
def Cell(self, v) = self?{ read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }
in new x (Cell[x, 9] | new z (x!read[z] | z?(w) = println(w + 1.5, "s")))`)
	data := asm.Encode(u)
	u2, err := asm.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if asm.Disassemble(u) != asm.Disassemble(u2) {
		t.Fatalf("disassembly differs:\n%s\n---\n%s", asm.Disassemble(u), asm.Disassemble(u2))
	}
	// Re-encoding is byte-identical (canonical encoding).
	if string(asm.Encode(u2)) != string(data) {
		t.Fatal("encoding not canonical")
	}
}

func TestEncodeDecodeConstsAndImports(t *testing.T) {
	u := compile(t, `
import chat from server in
import Applet from server in
(chat!["x"] | Applet[1])`)
	if len(u.Imports) != 2 {
		t.Fatalf("imports = %v", u.Imports)
	}
	u.Consts = append(u.Consts, asm.Const{Heap: 7, Site: 3, Node: 2},
		asm.Const{IsClass: true, Name: "K", Site: 4, Node: 5})
	u2, err := asm.Decode(asm.Encode(u))
	if err != nil {
		t.Fatal(err)
	}
	if len(u2.Consts) != 2 || u2.Consts[0].Heap != 7 || !u2.Consts[1].IsClass || u2.Consts[1].Name != "K" {
		t.Fatalf("consts round trip failed: %+v", u2.Consts)
	}
	if u2.Imports[0].Name != "chat" || !u2.Imports[1].IsClass {
		t.Fatalf("imports round trip failed: %+v", u2.Imports)
	}
}

// Property: random programs encode/decode to identical disassembly.
func TestEncodeDecodeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	g := &calc.Gen{R: r, MaxDepth: 5, AllowDistrib: true}
	for i := 0; i < 200; i++ {
		p := g.Proc()
		u, err := compiler.Compile(p, "prop")
		if err != nil {
			t.Fatalf("compile: %v\nsrc: %s", err, calc.String(p))
		}
		u2, err := asm.Decode(asm.Encode(u))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if asm.Disassemble(u) != asm.Disassemble(u2) {
			t.Fatalf("round trip changed unit for %s", calc.String(p))
		}
		if err := asm.Verify(u2); err != nil {
			t.Fatalf("decoded unit fails verification: %v", err)
		}
	}
}

// Decoding corrupted byte-code must error, never panic.
func TestDecodeCorruptionIsSafe(t *testing.T) {
	u := compile(t, `def A(x) = println(x) in new c (A[1] | c![2] | c?(v) = A[v])`)
	data := asm.Encode(u)
	r := rand.New(rand.NewSource(59))
	for i := 0; i < 2000; i++ {
		mut := append([]byte(nil), data...)
		switch r.Intn(3) {
		case 0: // flip a byte
			mut[r.Intn(len(mut))] ^= byte(1 + r.Intn(255))
		case 1: // truncate
			mut = mut[:r.Intn(len(mut))]
		case 2: // append garbage
			mut = append(mut, byte(r.Intn(256)), byte(r.Intn(256)))
		}
		u2, err := asm.Decode(mut)
		if err != nil {
			continue
		}
		// A successful decode of mutated bytes must still verify or
		// fail verification cleanly — never crash later stages.
		_ = asm.Verify(u2)
	}
	// Hostile counts: a handful of bytes declaring a huge section must
	// fail before anything is allocated for the section.
	for _, c := range []struct {
		name string
		data []byte
	}{
		// magic, version, name "", entry -1, no strings, labels, ints,
		// floats or imports, then 64 M consts: 16 bytes in all.
		{"64M consts", binary.AppendUvarint([]byte("TyCO\x01\x00\x01\x00\x00\x00\x00\x00"), asm.MaxCodeSize)},
		{"64M strings", binary.AppendUvarint([]byte("TyCO\x01\x00\x01"), asm.MaxCodeSize)},
		{"string of 64 MB", binary.AppendUvarint([]byte("TyCO\x01"), asm.MaxCodeSize)},
	} {
		var err error
		n := testutil.AllocBytes(func() { _, err = asm.Decode(c.data) })
		if err == nil {
			t.Errorf("%s: %d bytes decoded without error", c.name, len(c.data))
		}
		if !testutil.Race && n >= 1<<20 {
			t.Errorf("%s: decoding %d bytes allocated %d bytes before failing", c.name, len(c.data), n)
		}
	}
}

func TestVerifyRejects(t *testing.T) {
	mk := func(mod func(u *asm.Unit)) error {
		u := compile(t, `new x (x![1] | x?(v) = println(v))`)
		mod(u)
		return asm.Verify(u)
	}
	cases := []struct {
		name string
		mod  func(u *asm.Unit)
	}{
		{"entry out of range", func(u *asm.Unit) { u.Entry = 99 }},
		{"bad local", func(u *asm.Unit) { u.Blocks[0].Code[0] = asm.Instr{Op: asm.LdLoc, A: 1000} }},
		{"bad jump", func(u *asm.Unit) { u.Blocks[0].Code[0] = asm.Instr{Op: asm.Jmp, A: -2} }},
		{"bad string pool", func(u *asm.Unit) { u.Blocks[0].Code[0] = asm.Instr{Op: asm.LdS, A: 99} }},
		{"stack underflow", func(u *asm.Unit) { u.Blocks[0].Code = []asm.Instr{{Op: asm.Add}} }},
		{"bad table", func(u *asm.Unit) { u.Blocks[0].Code[0] = asm.Instr{Op: asm.Obj, A: 99, B: 0} }},
		{"bad spawn", func(u *asm.Unit) { u.Blocks[0].Code[0] = asm.Instr{Op: asm.Spawn, A: 99, B: 0} }},
		{"bad group", func(u *asm.Unit) { u.Blocks[0].Code[0] = asm.Instr{Op: asm.MkDef, A: 5, B: 0} }},
		{"bad import", func(u *asm.Unit) { u.Blocks[0].Code[0] = asm.Instr{Op: asm.LdImp, A: 3} }},
		{"bad const", func(u *asm.Unit) { u.Blocks[0].Code[0] = asm.Instr{Op: asm.LdK, A: 3} }},
		{"invalid opcode", func(u *asm.Unit) { u.Blocks[0].Code[0] = asm.Instr{Op: asm.Opcode(200)} }},
		{"entry with params", func(u *asm.Unit) { u.Blocks[0].NParams = 1 }},
		{"table label range", func(u *asm.Unit) {
			if len(u.Tables) > 0 {
				u.Tables[0].Labels[0] = 99
			} else {
				u.Entry = 99
			}
		}},
	}
	for _, c := range cases {
		if err := mk(c.mod); err == nil {
			t.Errorf("%s: verification should fail", c.name)
		}
	}
}

func TestVerifyAcceptsCompilerOutput(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	g := &calc.Gen{R: r, MaxDepth: 5, AllowDistrib: true}
	for i := 0; i < 300; i++ {
		p := g.Proc()
		u, err := compiler.Compile(p, "v")
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		if err := asm.Verify(u); err != nil {
			t.Fatalf("compiler output rejected: %v\nsrc: %s\n%s", err, calc.String(p), asm.Disassemble(u))
		}
	}
}

func TestUnitInterning(t *testing.T) {
	u := &asm.Unit{}
	a := u.StringIndex("x")
	b := u.StringIndex("x")
	c := u.StringIndex("y")
	if a != b || a == c {
		t.Fatalf("string interning broken: %d %d %d", a, b, c)
	}
	if u.LabelIndex("go") != u.LabelIndex("go") {
		t.Fatal("label interning broken")
	}
	if u.IntIndex(5) != u.IntIndex(5) || u.FloatIndex(1.5) != u.FloatIndex(1.5) {
		t.Fatal("numeric interning broken")
	}
}

func TestMethodTableLookup(t *testing.T) {
	tab := asm.MethodTable{Labels: []int{0, 2, 5}, Blocks: []int{10, 20, 30}}
	if b, ok := tab.Lookup(2); !ok || b != 20 {
		t.Fatalf("lookup(2) = %d,%v", b, ok)
	}
	if _, ok := tab.Lookup(3); ok {
		t.Fatal("lookup(3) should miss")
	}
}

func TestDecodeSizeLimit(t *testing.T) {
	big := make([]byte, asm.MaxCodeSize+1)
	if _, err := asm.Decode(big); err == nil {
		t.Fatal("oversized byte-code accepted")
	}
}

// FuzzDecodeUnit feeds arbitrary bytes to the byte-code decoder, the
// path mobile code takes off the fabric (and, since a site links each
// distinct unit once, the bytes that become its link-cache key).
// Decode, Verify and Link into a fresh program must never panic, and a
// unit that verifies must survive Encode → Decode → Verify with the
// same encoding.
func FuzzDecodeUnit(f *testing.F) {
	for _, src := range []string{
		`new x (x![1] | x?(v) = println(v))`,
		`def A(x) = println(x) in new c (A[1] | c![2] | c?(v) = A[v])`,
		`def Cell(self, v) = self?{ read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] } in new x (Cell[x, 9] | new z (x!read[z] | z?(w) = println(w + 1.5, "s")))`,
		`import chat from server in import Applet from server in (chat!["x"] | Applet[1])`,
	} {
		u, err := compiler.Compile(syntax.MustParse(src), "seed")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(asm.Encode(u))
	}
	f.Add(binary.AppendUvarint([]byte("TyCO\x01\x00\x01\x00\x00\x00\x00\x00"), asm.MaxCodeSize))
	f.Add([]byte("TyCO"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := asm.Decode(data)
		if err != nil {
			return
		}
		if asm.Verify(u) != nil {
			return
		}
		if _, err := vm.NewProgram().Link(u, make([]vm.Value, len(u.Imports)), make([]vm.Value, len(u.Consts))); err != nil {
			t.Fatalf("verified unit failed to link: %v", err)
		}
		enc := asm.Encode(u)
		u2, err := asm.Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of a verified unit failed: %v", err)
		}
		if err := asm.Verify(u2); err != nil {
			t.Fatalf("re-decoded unit fails verification: %v", err)
		}
		if !bytes.Equal(asm.Encode(u2), enc) {
			t.Fatal("encoding of a verified unit is not stable")
		}
	})
}
