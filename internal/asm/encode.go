package asm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Binary byte-code format ("hardware independent byte-code", paper
// section 5). Layout: magic, version, then each section
// length-prefixed with varints. Strings are UTF-8 with varint length.

const (
	magic   = "TyCO"
	version = 1
	// MaxCodeSize bounds a decoded unit to keep hostile input from
	// exhausting memory (mobile code arrives over the network).
	MaxCodeSize = 64 << 20
)

type encoder struct{ buf bytes.Buffer }

func (e *encoder) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	e.buf.Write(tmp[:n])
}

func (e *encoder) varint(v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	e.buf.Write(tmp[:n])
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf.WriteString(s)
}

// Encode serializes a unit to the binary byte-code format.
func Encode(u *Unit) []byte {
	var e encoder
	e.buf.WriteString(magic)
	e.uvarint(version)
	e.str(u.Name)
	e.varint(int64(u.Entry))

	e.uvarint(uint64(len(u.Strings)))
	for _, s := range u.Strings {
		e.str(s)
	}
	e.uvarint(uint64(len(u.Labels)))
	for _, s := range u.Labels {
		e.str(s)
	}
	e.uvarint(uint64(len(u.Ints)))
	for _, v := range u.Ints {
		e.varint(v)
	}
	e.uvarint(uint64(len(u.Floats)))
	for _, v := range u.Floats {
		e.uvarint(math.Float64bits(v))
	}
	e.uvarint(uint64(len(u.Imports)))
	for _, im := range u.Imports {
		e.str(im.Site)
		e.str(im.Name)
		if im.IsClass {
			e.uvarint(1)
		} else {
			e.uvarint(0)
		}
	}
	e.uvarint(uint64(len(u.Consts)))
	for _, k := range u.Consts {
		if k.IsClass {
			e.uvarint(1)
		} else {
			e.uvarint(0)
		}
		e.uvarint(uint64(k.Heap))
		e.uvarint(uint64(k.Site))
		e.uvarint(uint64(k.Node))
		e.str(k.Name)
	}
	e.uvarint(uint64(len(u.Tables)))
	for _, t := range u.Tables {
		e.uvarint(uint64(len(t.Labels)))
		for i := range t.Labels {
			e.uvarint(uint64(t.Labels[i]))
			e.uvarint(uint64(t.Blocks[i]))
		}
	}
	e.uvarint(uint64(len(u.Groups)))
	for _, g := range u.Groups {
		e.uvarint(uint64(g.NFree))
		e.uvarint(uint64(len(g.Classes)))
		for _, c := range g.Classes {
			e.str(c.Name)
			e.uvarint(uint64(c.Block))
			e.uvarint(uint64(c.NParams))
		}
	}
	e.uvarint(uint64(len(u.Blocks)))
	for i := range u.Blocks {
		b := &u.Blocks[i]
		e.str(b.Name)
		e.uvarint(uint64(b.NFree))
		e.uvarint(uint64(b.NParams))
		e.uvarint(uint64(b.NLocals))
		e.uvarint(uint64(len(b.Code)))
		for _, in := range b.Code {
			e.buf.WriteByte(byte(in.Op))
			switch in.Op.operands() {
			case 1:
				e.varint(int64(in.A))
			case 2:
				e.varint(int64(in.A))
				e.varint(int64(in.B))
			}
		}
	}
	return e.buf.Bytes()
}

type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("asm: truncated byte-code at offset %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("asm: truncated byte-code at offset %d", d.pos)
	}
	d.pos += n
	return v, nil
}

// count reads the length of a sequence stored next in the input. Every
// element takes at least one byte, so a count above the bytes left is
// rejected before anything is allocated for it: otherwise a few bytes
// declaring millions of elements make Decode allocate gigabytes before
// it runs out of input.
func (d *decoder) count(what string) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if left := len(d.data) - d.pos; v > uint64(left) {
		return 0, fmt.Errorf("asm: %s count %d exceeds the %d bytes left", what, v, left)
	}
	return int(v), nil
}

// size reads a frame-layout number (free variables, parameters,
// locals). It sizes no sequence in the input, so only MaxCodeSize
// bounds it.
func (d *decoder) size(what string) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > MaxCodeSize {
		return 0, fmt.Errorf("asm: %s %d exceeds limit", what, v)
	}
	return int(v), nil
}

func (d *decoder) str() (string, error) {
	n, err := d.count("string")
	if err != nil {
		return "", err
	}
	s := string(d.data[d.pos : d.pos+n])
	d.pos += n
	return s, nil
}

// Decode parses binary byte-code back into a Unit. Decode validates
// structure only; run Verify before executing untrusted units.
func Decode(data []byte) (*Unit, error) {
	if len(data) > MaxCodeSize {
		return nil, fmt.Errorf("asm: byte-code of %d bytes exceeds limit", len(data))
	}
	d := &decoder{data: data}
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("asm: bad magic")
	}
	d.pos = len(magic)
	v, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if v != version {
		return nil, fmt.Errorf("asm: unsupported byte-code version %d", v)
	}
	u := &Unit{}
	if u.Name, err = d.str(); err != nil {
		return nil, err
	}
	entry, err := d.varint()
	if err != nil {
		return nil, err
	}
	u.Entry = int(entry)

	n, err := d.count("strings")
	if err != nil {
		return nil, err
	}
	u.Strings = make([]string, n)
	for i := range u.Strings {
		if u.Strings[i], err = d.str(); err != nil {
			return nil, err
		}
	}
	if n, err = d.count("labels"); err != nil {
		return nil, err
	}
	u.Labels = make([]string, n)
	for i := range u.Labels {
		if u.Labels[i], err = d.str(); err != nil {
			return nil, err
		}
	}
	if n, err = d.count("ints"); err != nil {
		return nil, err
	}
	u.Ints = make([]int64, n)
	for i := range u.Ints {
		if u.Ints[i], err = d.varint(); err != nil {
			return nil, err
		}
	}
	if n, err = d.count("floats"); err != nil {
		return nil, err
	}
	u.Floats = make([]float64, n)
	for i := range u.Floats {
		bits, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		u.Floats[i] = math.Float64frombits(bits)
	}
	if n, err = d.count("imports"); err != nil {
		return nil, err
	}
	u.Imports = make([]ImportRef, n)
	for i := range u.Imports {
		if u.Imports[i].Site, err = d.str(); err != nil {
			return nil, err
		}
		if u.Imports[i].Name, err = d.str(); err != nil {
			return nil, err
		}
		isClass, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		u.Imports[i].IsClass = isClass != 0
	}
	if n, err = d.count("consts"); err != nil {
		return nil, err
	}
	u.Consts = make([]Const, n)
	for i := range u.Consts {
		isClass, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		u.Consts[i].IsClass = isClass != 0
		h, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		s, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		nd, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		u.Consts[i].Heap = uint32(h)
		u.Consts[i].Site = uint32(s)
		u.Consts[i].Node = uint32(nd)
		if u.Consts[i].Name, err = d.str(); err != nil {
			return nil, err
		}
	}
	if n, err = d.count("tables"); err != nil {
		return nil, err
	}
	u.Tables = make([]MethodTable, n)
	for i := range u.Tables {
		m, err := d.count("table entries")
		if err != nil {
			return nil, err
		}
		u.Tables[i].Labels = make([]int, m)
		u.Tables[i].Blocks = make([]int, m)
		for j := 0; j < m; j++ {
			l, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			b, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			u.Tables[i].Labels[j] = int(l)
			u.Tables[i].Blocks[j] = int(b)
		}
	}
	if n, err = d.count("groups"); err != nil {
		return nil, err
	}
	u.Groups = make([]DefGroup, n)
	for i := range u.Groups {
		nf, err := d.size("group free")
		if err != nil {
			return nil, err
		}
		u.Groups[i].NFree = nf
		m, err := d.count("group classes")
		if err != nil {
			return nil, err
		}
		u.Groups[i].Classes = make([]ClassInfo, m)
		for j := 0; j < m; j++ {
			c := &u.Groups[i].Classes[j]
			if c.Name, err = d.str(); err != nil {
				return nil, err
			}
			blk, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			np, err := d.size("class params")
			if err != nil {
				return nil, err
			}
			c.Block = int(blk)
			c.NParams = np
		}
	}
	if n, err = d.count("blocks"); err != nil {
		return nil, err
	}
	u.Blocks = make([]Block, n)
	for i := range u.Blocks {
		b := &u.Blocks[i]
		if b.Name, err = d.str(); err != nil {
			return nil, err
		}
		if b.NFree, err = d.size("free"); err != nil {
			return nil, err
		}
		if b.NParams, err = d.size("params"); err != nil {
			return nil, err
		}
		if b.NLocals, err = d.size("locals"); err != nil {
			return nil, err
		}
		m, err := d.count("instructions")
		if err != nil {
			return nil, err
		}
		b.Code = make([]Instr, m)
		for j := 0; j < m; j++ {
			if d.pos >= len(d.data) {
				return nil, fmt.Errorf("asm: truncated instruction stream")
			}
			op := Opcode(d.data[d.pos])
			d.pos++
			if !op.Valid() {
				return nil, fmt.Errorf("asm: invalid opcode %d in block %d", op, i)
			}
			in := Instr{Op: op}
			switch op.operands() {
			case 1:
				a, err := d.varint()
				if err != nil {
					return nil, err
				}
				in.A = int32(a)
			case 2:
				a, err := d.varint()
				if err != nil {
					return nil, err
				}
				bb, err := d.varint()
				if err != nil {
					return nil, err
				}
				in.A, in.B = int32(a), int32(bb)
			}
			b.Code[j] = in
		}
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("asm: %d trailing bytes after byte-code", len(d.data)-d.pos)
	}
	return u, nil
}
