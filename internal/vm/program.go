package vm

import (
	"fmt"

	"repro/internal/asm"
)

// Program is a site's program area (paper Fig. 3): the concatenation
// of every unit linked so far, with all indices relocated into shared
// pools. Labels are interned program-wide so that method dispatch
// compares integers even across units.
type Program struct {
	Blocks  []asm.Block
	Tables  []asm.MethodTable
	Groups  []asm.DefGroup
	Consts  []Value // resolved constants: KNet / KNetClass / KChan after σ-ingress
	Strings []string
	Floats  []float64
	Ints    []int64
	Labels  []string

	labelIdx map[string]int
	strIdx   map[string]int

	// Origin tracks, for every block, which linked unit it came from
	// (diagnostics and shipping bookkeeping).
	Origin []int
	nUnits int
}

// NewProgram creates an empty program area.
func NewProgram() *Program {
	return &Program{labelIdx: map[string]int{}, strIdx: map[string]int{}}
}

// LabelIndex interns a label program-wide.
func (p *Program) LabelIndex(s string) int {
	if i, ok := p.labelIdx[s]; ok {
		return i
	}
	p.Labels = append(p.Labels, s)
	p.labelIdx[s] = len(p.Labels) - 1
	return len(p.Labels) - 1
}

// LabelIndexBytes is LabelIndex for a label still in its wire bytes: a
// label the program already knows costs a map lookup and no string.
func (p *Program) LabelIndexBytes(b []byte) int {
	if i, ok := p.labelIdx[string(b)]; ok {
		return i
	}
	return p.LabelIndex(string(b))
}

// StringIndex interns a string program-wide.
func (p *Program) StringIndex(s string) int {
	if i, ok := p.strIdx[s]; ok {
		return i
	}
	p.Strings = append(p.Strings, s)
	p.strIdx[s] = len(p.Strings) - 1
	return len(p.Strings) - 1
}

// Units returns the number of units linked so far.
func (p *Program) Units() int { return p.nUnits }

// Linked describes the placement of one unit inside the program.
type Linked struct {
	Unit  int
	Entry int // program block index of the unit's entry, -1 if none
	Reloc *asm.Relocation
}

// Link relocates a unit into the program area. The caller supplies
// one resolved Value per unit import (KNet or KChan for names,
// KNetClass or KClass for classes) and one per unit constant —
// constants pointing at the linking site must already be translated to
// local channel references by the caller (the σ ingress translation).
// Link is the dynamic-linking step of both program loading and mobile
// code reception.
func (p *Program) Link(u *asm.Unit, imports []Value, consts []Value) (*Linked, error) {
	if len(imports) != len(u.Imports) {
		return nil, fmt.Errorf("vm: link %q: %d imports supplied, unit declares %d", u.Name, len(imports), len(u.Imports))
	}
	if len(consts) != len(u.Consts) {
		return nil, fmt.Errorf("vm: link %q: %d consts supplied, unit declares %d", u.Name, len(consts), len(u.Consts))
	}
	r := asm.NewRelocation()
	blockOff := len(p.Blocks)
	for i := range u.Blocks {
		r.Blocks[i] = blockOff + i
	}
	tableOff := len(p.Tables)
	for i := range u.Tables {
		r.Tables[i] = tableOff + i
	}
	groupOff := len(p.Groups)
	for i := range u.Groups {
		r.Groups[i] = groupOff + i
	}
	for i, s := range u.Strings {
		r.Strings[i] = p.StringIndex(s)
	}
	for i, l := range u.Labels {
		r.Labels[i] = p.LabelIndex(l)
	}
	intOff := len(p.Ints)
	p.Ints = append(p.Ints, u.Ints...)
	for i := range u.Ints {
		r.Ints[i] = intOff + i
	}
	floatOff := len(p.Floats)
	p.Floats = append(p.Floats, u.Floats...)
	for i := range u.Floats {
		r.Floats[i] = floatOff + i
	}
	// Imports and consts both become program constants; LdImp and
	// LdK instructions are rewritten to LdK over the merged pool.
	constOff := len(p.Consts)
	p.Consts = append(p.Consts, consts...)
	for i := range consts {
		r.Consts[i] = constOff + i
	}
	impOff := len(p.Consts)
	p.Consts = append(p.Consts, imports...)
	for i := range imports {
		r.Imports[i] = impOff + i
	}

	unitID := p.nUnits
	p.nUnits++
	for bi := range u.Blocks {
		src := &u.Blocks[bi]
		blk := asm.Block{
			Name:    src.Name,
			NFree:   src.NFree,
			NParams: src.NParams,
			NLocals: src.NLocals,
			Code:    make([]asm.Instr, len(src.Code)),
		}
		for pc, in := range src.Code {
			if in.Op == asm.LdImp {
				blk.Code[pc] = asm.Instr{Op: asm.LdK, A: int32(r.Imports[int(in.A)])}
				continue
			}
			out, err := asm.RelocateInstr(in, r)
			if err != nil {
				return nil, fmt.Errorf("vm: link %q block %d pc %d: %w", u.Name, bi, pc, err)
			}
			blk.Code[pc] = out
		}
		p.Blocks = append(p.Blocks, blk)
		p.Origin = append(p.Origin, unitID)
	}
	for _, t := range u.Tables {
		nt := asm.MethodTable{Labels: make([]int, len(t.Labels)), Blocks: make([]int, len(t.Blocks))}
		for i := range t.Labels {
			nt.Labels[i] = r.Labels[t.Labels[i]]
			nt.Blocks[i] = r.Blocks[t.Blocks[i]]
		}
		p.Tables = append(p.Tables, nt)
	}
	for _, g := range u.Groups {
		ng := asm.DefGroup{NFree: g.NFree, Classes: make([]asm.ClassInfo, len(g.Classes))}
		for i, c := range g.Classes {
			ng.Classes[i] = asm.ClassInfo{Name: c.Name, Block: r.Blocks[c.Block], NParams: c.NParams}
		}
		p.Groups = append(p.Groups, ng)
	}
	entry := -1
	if u.Entry >= 0 {
		entry = r.Blocks[u.Entry]
	}
	return &Linked{Unit: unitID, Entry: entry, Reloc: r}, nil
}
