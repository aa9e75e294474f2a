package asm

import "fmt"

// Block is one byte-code block: the compiled body of a method, class,
// spawned branch, or program entry. A thread's frame is laid out as
//
//	[0 … NFree)                  captured free variables
//	[NFree … NFree+NParams)      parameters bound at activation
//	[… FrameSize)                locals (new channels, temporaries)
type Block struct {
	Name    string // diagnostic name, e.g. "Cell.read"
	NFree   int
	NParams int
	NLocals int
	Code    []Instr
}

// FrameSize is the number of local slots a thread running this block
// needs.
func (b *Block) FrameSize() int { return b.NFree + b.NParams + b.NLocals }

// MethodTable maps method labels (as indices into the unit's label
// pool) to the blocks implementing them. Labels and Blocks are
// parallel slices kept sorted by label index for deterministic
// encoding.
type MethodTable struct {
	Labels []int
	Blocks []int
}

// Lookup finds the block for a label index; ok is false when the
// object does not understand the label.
func (t *MethodTable) Lookup(label int) (int, bool) {
	for i, l := range t.Labels {
		if l == label {
			return t.Blocks[i], true
		}
	}
	return 0, false
}

// ClassInfo describes one class of a def-group.
type ClassInfo struct {
	Name    string
	Block   int
	NParams int
}

// DefGroup is a compiled `def X1(…)=P1 and … and Xk(…)=Pk` group. At
// MkDef time the VM builds one shared group frame containing the
// NFree captured values followed by the k class-closure values
// themselves (enabling mutual recursion); each class block sees that
// group frame as its free-variable section.
type DefGroup struct {
	NFree   int
	Classes []ClassInfo
}

// ImportRef names an identifier imported from another site
// (paper section 4). IsClass distinguishes class imports (code
// fetching) from name imports (code shipping).
type ImportRef struct {
	Site    string
	Name    string
	IsClass bool
}

// Const is a network-reference constant embedded in code: either a
// remote channel (HeapId, SiteId, NodeId — the paper's (HeapId,
// SiteId, IpAddress) triple) or a remote class. Constants appear when
// a site resolves imports at link time and when mobile code crosses
// sites: the σ-translation of section 3 turns the sender's local
// references into constants of this form.
type Const struct {
	IsClass bool
	Heap    uint32 // exported heap id (names only)
	Site    uint32
	Node    uint32
	Name    string // class name (classes only)
}

// Unit is a self-contained, relocatable collection of byte-code. It
// is the unit of compilation, of dynamic linking, and of code
// mobility: shipped objects and fetched classes travel as Units.
type Unit struct {
	Name    string
	Blocks  []Block
	Tables  []MethodTable
	Groups  []DefGroup
	Imports []ImportRef
	Consts  []Const
	Strings []string
	Floats  []float64
	Ints    []int64
	Labels  []string
	// Entry is the index of the block to run at load time; -1 for
	// code-only units (shipped objects/classes).
	Entry int
	// Encoded, when set, is Encode(u), computed once by whoever built
	// the unit (a site's extraction memo) so that every ship of it sends
	// the same bytes without re-encoding. A unit carrying it is
	// immutable and may be shared between goroutines.
	Encoded []byte
}

// LabelIndex returns the index of label s in the pool, interning it if
// absent.
func (u *Unit) LabelIndex(s string) int {
	for i, l := range u.Labels {
		if l == s {
			return i
		}
	}
	u.Labels = append(u.Labels, s)
	return len(u.Labels) - 1
}

// StringIndex interns s in the string pool.
func (u *Unit) StringIndex(s string) int {
	for i, v := range u.Strings {
		if v == s {
			return i
		}
	}
	u.Strings = append(u.Strings, s)
	return len(u.Strings) - 1
}

// FloatIndex interns f in the float pool.
func (u *Unit) FloatIndex(f float64) int {
	for i, v := range u.Floats {
		if v == f {
			return i
		}
	}
	u.Floats = append(u.Floats, f)
	return len(u.Floats) - 1
}

// IntIndex interns i in the int pool.
func (u *Unit) IntIndex(n int64) int {
	for i, v := range u.Ints {
		if v == n {
			return i
		}
	}
	u.Ints = append(u.Ints, n)
	return len(u.Ints) - 1
}

// Stats summarizes a unit for diagnostics.
func (u *Unit) Stats() string {
	ninstr := 0
	for i := range u.Blocks {
		ninstr += len(u.Blocks[i].Code)
	}
	return fmt.Sprintf("unit %q: %d blocks, %d instructions, %d tables, %d groups, %d imports",
		u.Name, len(u.Blocks), ninstr, len(u.Tables), len(u.Groups), len(u.Imports))
}

// Relocation maps the index spaces of one unit into another; it is
// used both when linking a unit into a site's program area and when
// extracting a mobile subset of a program for shipping.
type Relocation struct {
	Blocks  map[int]int
	Tables  map[int]int
	Groups  map[int]int
	Imports map[int]int
	Consts  map[int]int
	Strings map[int]int
	Floats  map[int]int
	Ints    map[int]int
	Labels  map[int]int
}

// NewRelocation returns an empty relocation.
func NewRelocation() *Relocation {
	return &Relocation{
		Blocks:  map[int]int{},
		Tables:  map[int]int{},
		Groups:  map[int]int{},
		Imports: map[int]int{},
		Consts:  map[int]int{},
		Strings: map[int]int{},
		Floats:  map[int]int{},
		Ints:    map[int]int{},
		Labels:  map[int]int{},
	}
}

// RelocateInstr rewrites the pool/block references of one instruction
// according to r. Unmapped references are left unchanged when the
// corresponding map returns the identity; missing entries are an
// error, reported by the caller via the returned ok.
func RelocateInstr(in Instr, r *Relocation) (Instr, error) {
	mapIdx := func(m map[int]int, v int32, what string) (int32, error) {
		to, ok := m[int(v)]
		if !ok {
			return 0, fmt.Errorf("asm: relocation missing for %s %d", what, v)
		}
		return int32(to), nil
	}
	var err error
	switch in.Op {
	case LdIC:
		in.A, err = mapIdx(r.Ints, in.A, "int")
	case LdF:
		in.A, err = mapIdx(r.Floats, in.A, "float")
	case LdS, ExpName:
		in.A, err = mapIdx(r.Strings, in.A, "string")
	case ExpClass:
		in.A, err = mapIdx(r.Strings, in.A, "string")
	case Send:
		in.A, err = mapIdx(r.Labels, in.A, "label")
	case Obj:
		in.A, err = mapIdx(r.Tables, in.A, "table")
	case MkDef:
		in.A, err = mapIdx(r.Groups, in.A, "group")
	case Spawn:
		in.A, err = mapIdx(r.Blocks, in.A, "block")
	case LdImp:
		in.A, err = mapIdx(r.Imports, in.A, "import")
	case LdK:
		in.A, err = mapIdx(r.Consts, in.A, "const")
	}
	return in, err
}
