// Package compiler translates type-checked calc terms into TyCO
// virtual-machine code units (paper section 5: "Programs are compiled
// into an intermediate virtual machine assembly. This in turn is
// compiled into hardware independent byte-code. … The nested
// structure of the source program is preserved in the final
// byte-code"). Each method body and class body becomes its own block,
// which is what makes the dynamic selection of byte-code for shipping
// cheap. A parallel branch forks a thread (its own block, entered by
// SPAWN) only when it could park on an import; any other right branch
// of a `|` is compiled inline in its parent's block, ahead of the
// left branch, so a call forks only the threads that reduce.
package compiler

import (
	"fmt"
	"sort"

	"repro/internal/asm"
	"repro/internal/calc"
)

// Error is a compilation error with a source position.
type Error struct {
	At  calc.Pos
	Msg string
}

func (e *Error) Error() string {
	return fmt.Sprintf("compile error at %s: %s", e.At, e.Msg)
}

func errf(at calc.Pos, format string, args ...any) error {
	return &Error{At: at, Msg: fmt.Sprintf(format, args...)}
}

// Compile translates a program into a self-contained unit. The
// program should already be type-checked; the compiler still reports
// unbound identifiers defensively.
func Compile(p calc.Proc, name string) (*asm.Unit, error) {
	var fr calc.FreshNames
	p = calc.Desugar(p, &fr)
	c := &compiler{unit: &asm.Unit{Name: name, Entry: 0}}
	entry := c.newBlock("entry", 0, 0)
	if err := c.proc(entry, p, nil); err != nil {
		return nil, err
	}
	entry.emit(asm.Instr{Op: asm.Halt})
	c.flush()
	if err := asm.Verify(c.unit); err != nil {
		return nil, fmt.Errorf("compiler produced invalid code: %w", err)
	}
	return c.unit, nil
}

// scope is a chained compile-time environment mapping source
// identifiers to frame slots or import-pool indices. Names and class
// variables live in separate namespaces (class == true).
type scope struct {
	name     string
	class    bool
	isImport bool
	idx      int // frame slot, or import index when isImport
	next     *scope
}

func (s *scope) bind(name string, class, isImport bool, idx int) *scope {
	return &scope{name: name, class: class, isImport: isImport, idx: idx, next: s}
}

func (s *scope) lookup(name string, class bool) (*scope, bool) {
	for e := s; e != nil; e = e.next {
		if e.name == name && e.class == class {
			return e, true
		}
	}
	return nil, false
}

type compiler struct {
	unit   *asm.Unit
	blocks []*blockBuilder
}

type blockBuilder struct {
	idx     int
	nFree   int
	nParams int
	nLocals int
	code    []asm.Instr
}

func (b *blockBuilder) emit(in asm.Instr) int {
	b.code = append(b.code, in)
	return len(b.code) - 1
}

// alloc reserves a fresh local slot.
func (b *blockBuilder) alloc() int {
	slot := b.nFree + b.nParams + b.nLocals
	b.nLocals++
	return slot
}

func (c *compiler) newBlock(name string, nFree, nParams int) *blockBuilder {
	idx := len(c.unit.Blocks)
	c.unit.Blocks = append(c.unit.Blocks, asm.Block{Name: name, NFree: nFree, NParams: nParams})
	b := &blockBuilder{idx: idx, nFree: nFree, nParams: nParams}
	c.blocks = append(c.blocks, b)
	return b
}

// flush copies builder state into the unit.
func (c *compiler) flush() {
	for _, b := range c.blocks {
		blk := &c.unit.Blocks[b.idx]
		blk.NLocals = b.nLocals
		blk.Code = b.code
	}
}

// captures computes the deterministic capture list for a closure
// (object methods, spawned branch, or def group): the free names and
// free class variables of body that are bound to frame slots in the
// enclosing scope. Import-bound identifiers are not captured — they
// are compiled to LdImp wherever they occur. skipNames/skipClasses
// are binders of the closure itself.
func captures(body []calc.Proc, sc *scope, skipNames, skipClasses map[string]bool) (names []string, classes []string, err error) {
	freeN := map[string]bool{}
	freeC := map[string]bool{}
	for _, p := range body {
		for n := range calc.FreeNames(p) {
			freeN[n] = true
		}
		for n := range calc.FreeClassVars(p) {
			freeC[n] = true
		}
	}
	for n := range freeN {
		if skipNames[n] {
			continue
		}
		e, ok := sc.lookup(n, false)
		if !ok {
			return nil, nil, fmt.Errorf("unbound name %s", n)
		}
		if !e.isImport {
			names = append(names, n)
		}
	}
	for n := range freeC {
		if skipClasses[n] {
			continue
		}
		e, ok := sc.lookup(n, true)
		if !ok {
			return nil, nil, fmt.Errorf("unbound class %s", n)
		}
		if !e.isImport {
			classes = append(classes, n)
		}
	}
	sort.Strings(names)
	sort.Strings(classes)
	return names, classes, nil
}

// pushCaptures loads the captured values onto the stack in capture
// order and returns the scope for the closure body, with captures
// bound to the closure frame slots [0 … n).
func (c *compiler) pushCaptures(b *blockBuilder, sc *scope, names, classes []string) *scope {
	inner := (*scope)(nil)
	slot := 0
	for _, n := range names {
		e, _ := sc.lookup(n, false)
		b.emit(asm.Instr{Op: asm.LdLoc, A: int32(e.idx)})
		inner = inner.bind(n, false, false, slot)
		slot++
	}
	for _, n := range classes {
		e, _ := sc.lookup(n, true)
		b.emit(asm.Instr{Op: asm.LdLoc, A: int32(e.idx)})
		inner = inner.bind(n, true, false, slot)
		slot++
	}
	// Imported identifiers remain visible inside closures.
	for e := sc; e != nil; e = e.next {
		if e.isImport {
			inner = inner.bind(e.name, e.class, true, e.idx)
		}
	}
	return inner
}

func (c *compiler) proc(b *blockBuilder, p calc.Proc, sc *scope) error {
	switch p := p.(type) {
	case *calc.Nil:
		return nil

	case *calc.Par:
		// A right branch that cannot park runs inline, before the left
		// branch: it never waits behind a left branch that parks on an
		// import, and its binders take fresh slots of this frame.
		if !parks(p.Right, sc) {
			if err := c.proc(b, p.Right, sc); err != nil {
				return err
			}
			return c.proc(b, p.Left, sc)
		}
		// Otherwise spawn the right branch as its own thread and
		// continue with the left branch inline.
		names, classes, err := captures([]calc.Proc{p.Right}, sc, nil, nil)
		if err != nil {
			return errf(p.Pos(), "%s", err)
		}
		inner := c.pushCaptures(b, sc, names, classes)
		blk := c.newBlock("par", len(names)+len(classes), 0)
		if err := c.proc(blk, p.Right, inner); err != nil {
			return err
		}
		blk.emit(asm.Instr{Op: asm.Halt})
		b.emit(asm.Instr{Op: asm.Spawn, A: int32(blk.idx), B: int32(len(names) + len(classes))})
		return c.proc(b, p.Left, sc)

	case *calc.New:
		for _, n := range p.Names {
			slot := b.alloc()
			b.emit(asm.Instr{Op: asm.NewC})
			b.emit(asm.Instr{Op: asm.StLoc, A: int32(slot)})
			sc = sc.bind(n, false, false, slot)
		}
		return c.proc(b, p.Body, sc)

	case *calc.ExportNew:
		for _, n := range p.Names {
			slot := b.alloc()
			b.emit(asm.Instr{Op: asm.NewC})
			b.emit(asm.Instr{Op: asm.StLoc, A: int32(slot)})
			b.emit(asm.Instr{Op: asm.LdLoc, A: int32(slot)})
			b.emit(asm.Instr{Op: asm.ExpName, A: int32(c.unit.StringIndex(n))})
			sc = sc.bind(n, false, false, slot)
		}
		return c.proc(b, p.Body, sc)

	case *calc.Msg:
		if err := c.ident(b, p.Target, p.Pos(), sc); err != nil {
			return err
		}
		for _, a := range p.Args {
			if err := c.expr(b, a, sc); err != nil {
				return err
			}
		}
		label := c.unit.LabelIndex(p.Label)
		b.emit(asm.Instr{Op: asm.Send, A: int32(label), B: int32(len(p.Args))})
		return nil

	case *calc.Object:
		if err := c.ident(b, p.Target, p.Pos(), sc); err != nil {
			return err
		}
		// Captures must cover all methods jointly; each method body
		// excludes its own parameters, so compute per-method and
		// union. (A name that is a parameter of one method can be a
		// capture of another.)
		capSet := map[string]bool{}
		capClassSet := map[string]bool{}
		for _, m := range p.Methods {
			skip := map[string]bool{}
			for _, prm := range m.Params {
				skip[prm] = true
			}
			ns, cs, err := captures([]calc.Proc{m.Body}, sc, skip, nil)
			if err != nil {
				return errf(m.At, "%s", err)
			}
			for _, n := range ns {
				capSet[n] = true
			}
			for _, n := range cs {
				capClassSet[n] = true
			}
		}
		names := sortedKeys(capSet)
		classes := sortedKeys(capClassSet)
		inner := c.pushCaptures(b, sc, names, classes)
		nCap := len(names) + len(classes)

		table := asm.MethodTable{}
		// Deterministic table order: by label.
		ms := append([]calc.Method(nil), p.Methods...)
		sort.Slice(ms, func(i, j int) bool { return ms[i].Label < ms[j].Label })
		for _, m := range ms {
			blk := c.newBlock(fmt.Sprintf("%s.%s", p.Target.Name, m.Label), nCap, len(m.Params))
			msc := inner
			for i, prm := range m.Params {
				msc = msc.bind(prm, false, false, nCap+i)
			}
			if err := c.proc(blk, m.Body, msc); err != nil {
				return err
			}
			blk.emit(asm.Instr{Op: asm.Halt})
			table.Labels = append(table.Labels, c.unit.LabelIndex(m.Label))
			table.Blocks = append(table.Blocks, blk.idx)
		}
		tIdx := len(c.unit.Tables)
		c.unit.Tables = append(c.unit.Tables, table)
		b.emit(asm.Instr{Op: asm.Obj, A: int32(tIdx), B: int32(nCap)})
		return nil

	case *calc.Inst:
		if p.Class.Loc() {
			return errf(p.Pos(), "located class %s in compiled program", p.Class)
		}
		e, ok := sc.lookup(p.Class.Name, true)
		if !ok {
			return errf(p.Pos(), "unbound class %s", p.Class.Name)
		}
		if e.isImport {
			b.emit(asm.Instr{Op: asm.LdImp, A: int32(e.idx)})
		} else {
			b.emit(asm.Instr{Op: asm.LdLoc, A: int32(e.idx)})
		}
		for _, a := range p.Args {
			if err := c.expr(b, a, sc); err != nil {
				return err
			}
		}
		b.emit(asm.Instr{Op: asm.InstV, A: int32(len(p.Args))})
		return nil

	case *calc.Def:
		inner, err := c.defGroup(b, p.Defs, sc, false)
		if err != nil {
			return err
		}
		return c.proc(b, p.Body, inner)

	case *calc.ExportDef:
		inner, err := c.defGroup(b, p.Defs, sc, true)
		if err != nil {
			return err
		}
		return c.proc(b, p.Body, inner)

	case *calc.If:
		if err := c.expr(b, p.Cond, sc); err != nil {
			return err
		}
		jf := b.emit(asm.Instr{Op: asm.JmpF})
		if err := c.proc(b, p.Then, sc); err != nil {
			return err
		}
		jend := b.emit(asm.Instr{Op: asm.Jmp})
		b.code[jf].A = int32(len(b.code))
		if err := c.proc(b, p.Else, sc); err != nil {
			return err
		}
		b.code[jend].A = int32(len(b.code))
		return nil

	case *calc.ImportName:
		idx := len(c.unit.Imports)
		c.unit.Imports = append(c.unit.Imports, asm.ImportRef{Site: p.Site, Name: p.Name, IsClass: false})
		return c.proc(b, p.Body, sc.bind(p.Name, false, true, idx))

	case *calc.ImportClass:
		idx := len(c.unit.Imports)
		c.unit.Imports = append(c.unit.Imports, asm.ImportRef{Site: p.Site, Name: p.Class, IsClass: true})
		return c.proc(b, p.Body, sc.bind(p.Class, true, true, idx))

	case *calc.Print:
		for _, a := range p.Args {
			if err := c.expr(b, a, sc); err != nil {
				return err
			}
		}
		op := asm.Print
		if p.Newline {
			op = asm.Println
		}
		b.emit(asm.Instr{Op: op, A: int32(len(p.Args))})
		return nil

	case *calc.Let:
		return errf(p.Pos(), "internal: let not desugared before compilation")

	default:
		return errf(p.Pos(), "internal: unknown process %T", p)
	}
}

// parks reports whether the code proc emits inline for p could park
// its thread: whether it reads an import-bound identifier (LdImp links
// to a constant that may still be pending). Object, method and class
// bodies are blocks of their own and do not count; neither does a
// right branch that is spawned. Export and import forms count as
// parking, so a branch holding one keeps its own thread.
func parks(p calc.Proc, sc *scope) bool {
	switch p := p.(type) {
	case *calc.Nil:
		return false
	case *calc.Par:
		// The right branch is either inline and cannot park, or spawned.
		return parks(p.Left, sc)
	case *calc.New:
		for _, n := range p.Names {
			sc = sc.bind(n, false, false, 0)
		}
		return parks(p.Body, sc)
	case *calc.Msg:
		return imported(p.Target, false, sc) || exprsImported(p.Args, sc)
	case *calc.Object:
		return imported(p.Target, false, sc)
	case *calc.Inst:
		return imported(p.Class, true, sc) || exprsImported(p.Args, sc)
	case *calc.Def:
		for _, d := range p.Defs {
			sc = sc.bind(d.Name, true, false, 0)
		}
		return parks(p.Body, sc)
	case *calc.If:
		return exprImported(p.Cond, sc) || parks(p.Then, sc) || parks(p.Else, sc)
	case *calc.Print:
		return exprsImported(p.Args, sc)
	default:
		return true
	}
}

func imported(id calc.Ident, class bool, sc *scope) bool {
	e, ok := sc.lookup(id.Name, class)
	return ok && e.isImport
}

func exprsImported(es []calc.Expr, sc *scope) bool {
	for _, e := range es {
		if exprImported(e, sc) {
			return true
		}
	}
	return false
}

func exprImported(e calc.Expr, sc *scope) bool {
	switch e := e.(type) {
	case *calc.Var:
		return imported(e.Id, false, sc)
	case *calc.Unary:
		return exprImported(e.E, sc)
	case *calc.Binary:
		return exprImported(e.L, sc) || exprImported(e.R, sc)
	default:
		return false
	}
}

// defGroup compiles a def group: captured values are pushed, MkDef
// builds the mutually recursive class closures, and the resulting
// class values are stored into fresh locals.
func (c *compiler) defGroup(b *blockBuilder, defs []calc.ClassDef, sc *scope, export bool) (*scope, error) {
	groupNames := map[string]bool{}
	for _, d := range defs {
		if groupNames[d.Name] {
			return nil, errf(d.At, "duplicate class %s in def group", d.Name)
		}
		groupNames[d.Name] = true
	}
	// Joint captures of all bodies, excluding each body's own params
	// and the group's class names.
	capSet := map[string]bool{}
	capClassSet := map[string]bool{}
	for _, d := range defs {
		skip := map[string]bool{}
		for _, prm := range d.Params {
			skip[prm] = true
		}
		ns, cs, err := captures([]calc.Proc{d.Body}, sc, skip, groupNames)
		if err != nil {
			return nil, errf(d.At, "%s", err)
		}
		for _, n := range ns {
			capSet[n] = true
		}
		for _, n := range cs {
			capClassSet[n] = true
		}
	}
	names := sortedKeys(capSet)
	classes := sortedKeys(capClassSet)
	inner := c.pushCaptures(b, sc, names, classes)
	nFree := len(names) + len(classes)

	// Group frame layout: captures [0…nFree), then the k class
	// closures [nFree…nFree+k). Class bodies additionally see their
	// parameters after that.
	group := asm.DefGroup{NFree: nFree}
	gsc := inner
	for j, d := range defs {
		gsc = gsc.bind(d.Name, true, false, nFree+j)
	}
	for _, d := range defs {
		blk := c.newBlock("class."+d.Name, nFree+len(defs), len(d.Params))
		bsc := gsc
		for i, prm := range d.Params {
			bsc = bsc.bind(prm, false, false, nFree+len(defs)+i)
		}
		if err := c.proc(blk, d.Body, bsc); err != nil {
			return nil, err
		}
		blk.emit(asm.Instr{Op: asm.Halt})
		group.Classes = append(group.Classes, asm.ClassInfo{Name: d.Name, Block: blk.idx, NParams: len(d.Params)})
	}
	gIdx := len(c.unit.Groups)
	c.unit.Groups = append(c.unit.Groups, group)
	b.emit(asm.Instr{Op: asm.MkDef, A: int32(gIdx), B: int32(nFree)})

	// MkDef pushes class values in group order; store them into
	// fresh locals (pop order is reversed).
	slots := make([]int, len(defs))
	for j := range defs {
		slots[j] = b.alloc()
	}
	for j := len(defs) - 1; j >= 0; j-- {
		b.emit(asm.Instr{Op: asm.StLoc, A: int32(slots[j])})
	}
	out := sc
	for j, d := range defs {
		out = out.bind(d.Name, true, false, slots[j])
		if export {
			b.emit(asm.Instr{Op: asm.ExpClass, A: int32(c.unit.StringIndex(d.Name)), B: int32(slots[j])})
		}
	}
	return out, nil
}

func (c *compiler) ident(b *blockBuilder, id calc.Ident, at calc.Pos, sc *scope) error {
	if id.Loc() {
		return errf(at, "located name %s in compiled program", id)
	}
	e, ok := sc.lookup(id.Name, false)
	if !ok {
		return errf(at, "unbound name %s", id.Name)
	}
	if e.isImport {
		b.emit(asm.Instr{Op: asm.LdImp, A: int32(e.idx)})
	} else {
		b.emit(asm.Instr{Op: asm.LdLoc, A: int32(e.idx)})
	}
	return nil
}

func (c *compiler) expr(b *blockBuilder, e calc.Expr, sc *scope) error {
	switch e := e.(type) {
	case *calc.Var:
		return c.ident(b, e.Id, e.Pos(), sc)
	case *calc.IntLit:
		if e.Value >= -1<<31 && e.Value < 1<<31 {
			b.emit(asm.Instr{Op: asm.LdI, A: int32(e.Value)})
		} else {
			b.emit(asm.Instr{Op: asm.LdIC, A: int32(c.unit.IntIndex(e.Value))})
		}
		return nil
	case *calc.FloatLit:
		b.emit(asm.Instr{Op: asm.LdF, A: int32(c.unit.FloatIndex(e.Value))})
		return nil
	case *calc.StrLit:
		b.emit(asm.Instr{Op: asm.LdS, A: int32(c.unit.StringIndex(e.Value))})
		return nil
	case *calc.BoolLit:
		v := int32(0)
		if e.Value {
			v = 1
		}
		b.emit(asm.Instr{Op: asm.LdB, A: v})
		return nil
	case *calc.Unary:
		if err := c.expr(b, e.E, sc); err != nil {
			return err
		}
		switch e.Op {
		case calc.OpNeg:
			b.emit(asm.Instr{Op: asm.Neg})
		case calc.OpNot:
			b.emit(asm.Instr{Op: asm.Not})
		default:
			return errf(e.Pos(), "internal: unknown unary op %s", e.Op)
		}
		return nil
	case *calc.Binary:
		if err := c.expr(b, e.L, sc); err != nil {
			return err
		}
		if err := c.expr(b, e.R, sc); err != nil {
			return err
		}
		var op asm.Opcode
		switch e.Op {
		case calc.OpAdd:
			op = asm.Add
		case calc.OpSub:
			op = asm.Sub
		case calc.OpMul:
			op = asm.Mul
		case calc.OpDiv:
			op = asm.Div
		case calc.OpMod:
			op = asm.Mod
		case calc.OpEq:
			op = asm.CmpEq
		case calc.OpNe:
			op = asm.CmpNe
		case calc.OpLt:
			op = asm.CmpLt
		case calc.OpLe:
			op = asm.CmpLe
		case calc.OpGt:
			op = asm.CmpGt
		case calc.OpGe:
			op = asm.CmpGe
		case calc.OpAnd:
			op = asm.And
		case calc.OpOr:
			op = asm.Or
		default:
			return errf(e.Pos(), "internal: unknown binary op %s", e.Op)
		}
		b.emit(asm.Instr{Op: op})
		return nil
	default:
		return errf(e.Pos(), "internal: unknown expression %T", e)
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
