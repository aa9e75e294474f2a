// Snapshot: serialization of a machine's complete execution state —
// program area, heap, run-queue, statistics — for the crash-recovery
// checkpoints of internal/journal. The same marshalling insight that
// powers code mobility (SHIPM/SHIPO already serialize processes)
// makes persistence almost free; the one extra difficulty is that
// class closures (KClass) share mutable group frames, possibly
// cyclically (mutual recursion stores the closures inside their own
// group frame), so values are encoded as a graph: frames are interned
// by identity into a table and referenced by index.
//
// The codec is self-contained (plain uvarint/zigzag) rather than
// reusing internal/wire: wire depends on vm, so vm cannot import it.
package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/asm"
)

// SnapWriter serializes values and machine state into one
// self-contained snapshot blob. Create with NewSnapWriter, write with
// the primitive methods and Value/Values, then call Finish exactly
// once. All Value calls across one writer share the frame-interning
// table, so a site can append its own overlay state (export values,
// fetched-class cache) after EncodeSnapshot and identity-shared
// frames stay shared after decode.
type SnapWriter struct {
	b       []byte
	frameID map[*Value]int
	frames  [][]Value
}

// NewSnapWriter returns an empty snapshot writer.
func NewSnapWriter() *SnapWriter {
	return &SnapWriter{frameID: map[*Value]int{}}
}

// U writes an unsigned varint.
func (w *SnapWriter) U(x uint64) { w.b = binary.AppendUvarint(w.b, x) }

// V writes a signed varint.
func (w *SnapWriter) V(x int64) { w.b = binary.AppendVarint(w.b, x) }

// S writes a length-prefixed string.
func (w *SnapWriter) S(s string) {
	w.U(uint64(len(s)))
	w.b = append(w.b, s...)
}

// Bytes writes a length-prefixed byte slice.
func (w *SnapWriter) Bytes(p []byte) {
	w.U(uint64(len(p)))
	w.b = append(w.b, p...)
}

// Bool writes a boolean.
func (w *SnapWriter) Bool(v bool) {
	if v {
		w.U(1)
	} else {
		w.U(0)
	}
}

// internFrame returns the table id of a shared frame, registering it
// on first sight. Identity is the address of the first element: group
// frames are never empty (they hold at least one class closure) and
// never reallocated.
func (w *SnapWriter) internFrame(f []Value) int {
	if len(f) == 0 {
		return -1
	}
	key := &f[0]
	id, ok := w.frameID[key]
	if !ok {
		id = len(w.frames)
		w.frameID[key] = id
		w.frames = append(w.frames, f)
	}
	return id
}

// putValue appends one value's encoding to dst, interning any group
// frame it references.
func (w *SnapWriter) putValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case KInt, KBool, KChan, KPending:
		dst = binary.AppendVarint(dst, v.I)
	case KFloat:
		dst = binary.AppendUvarint(dst, math.Float64bits(v.F))
	case KStr:
		dst = binary.AppendUvarint(dst, uint64(len(v.S)))
		dst = append(dst, v.S...)
	case KNet:
		dst = binary.AppendUvarint(dst, uint64(v.Net.Heap))
		dst = binary.AppendUvarint(dst, uint64(v.Net.Site))
		dst = binary.AppendUvarint(dst, uint64(v.Net.Node))
	case KNetClass:
		dst = binary.AppendUvarint(dst, uint64(len(v.S)))
		dst = append(dst, v.S...)
		dst = binary.AppendUvarint(dst, uint64(v.Net.Site))
		dst = binary.AppendUvarint(dst, uint64(v.Net.Node))
	case KClass:
		dst = binary.AppendVarint(dst, v.I)
		dst = binary.AppendVarint(dst, int64(w.internFrame(v.Frame)))
	}
	return dst
}

// Value writes one value.
func (w *SnapWriter) Value(v Value) { w.b = w.putValue(w.b, v) }

// Values writes a counted value slice.
func (w *SnapWriter) Values(vs []Value) {
	w.U(uint64(len(vs)))
	for _, v := range vs {
		w.b = w.putValue(w.b, v)
	}
}

// Finish lays out the snapshot: the frame table (count, lengths,
// bodies) followed by the main stream. Serializing a frame body can
// discover further frames, so the table is built with an index loop.
func (w *SnapWriter) Finish() []byte {
	var bodies [][]byte
	for i := 0; i < len(w.frames); i++ { // w.frames grows during the loop
		var fb []byte
		for _, v := range w.frames[i] {
			fb = w.putValue(fb, v)
		}
		bodies = append(bodies, fb)
	}
	out := binary.AppendUvarint(nil, uint64(len(w.frames)))
	for _, f := range w.frames {
		out = binary.AppendUvarint(out, uint64(len(f)))
	}
	for _, fb := range bodies {
		out = append(out, fb...)
	}
	return append(out, w.b...)
}

// SnapReader decodes a snapshot blob. Errors are sticky: check Err
// once at the end.
type SnapReader struct {
	b      []byte
	pos    int
	err    error
	frames [][]Value
}

// NewSnapReader parses the frame table and positions the reader at
// the main stream.
func NewSnapReader(data []byte) (*SnapReader, error) {
	r := &SnapReader{b: data}
	n := r.U()
	if r.err == nil && n > uint64(len(data)) {
		return nil, fmt.Errorf("vm: snapshot frame table of %d entries exceeds data", n)
	}
	lens := make([]uint64, n)
	for i := range lens {
		lens[i] = r.U()
	}
	if r.err != nil {
		return nil, r.err
	}
	// Allocate every frame before filling any: bodies reference frames
	// by table index, forwards, backwards and self-referentially.
	r.frames = make([][]Value, n)
	for i, l := range lens {
		if l > uint64(len(data)) {
			return nil, fmt.Errorf("vm: snapshot frame of %d values exceeds data", l)
		}
		r.frames[i] = make([]Value, l)
	}
	for i := range r.frames {
		for j := range r.frames[i] {
			r.frames[i][j] = r.Value()
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return r, nil
}

func (r *SnapReader) fail(format string, a ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("vm: snapshot: "+format, a...)
	}
}

// Err returns the first decode error.
func (r *SnapReader) Err() error { return r.err }

// Done reports whether the stream is exhausted.
func (r *SnapReader) Done() bool { return r.pos >= len(r.b) }

// U reads an unsigned varint.
func (r *SnapReader) U() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	r.pos += n
	return x
}

// V reads a signed varint.
func (r *SnapReader) V() int64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.pos += n
	return x
}

// S reads a string.
func (r *SnapReader) S() string {
	n := r.U()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.pos) {
		r.fail("truncated string")
		return ""
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

// ReadBytes reads a length-prefixed byte slice.
func (r *SnapReader) ReadBytes() []byte {
	n := r.U()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.pos) {
		r.fail("truncated bytes")
		return nil
	}
	p := r.b[r.pos : r.pos+int(n) : r.pos+int(n)]
	r.pos += int(n)
	return p
}

// Bool reads a boolean.
func (r *SnapReader) Bool() bool { return r.U() != 0 }

// Count reads a non-negative count bounded by the remaining data.
func (r *SnapReader) Count(what string) int {
	n := r.U()
	if r.err == nil && n > uint64(len(r.b)) {
		r.fail("%s count %d exceeds data", what, n)
		return 0
	}
	return int(n)
}

// Value reads one value, resolving frame references through the
// table.
func (r *SnapReader) Value() Value {
	if r.err != nil {
		return Value{}
	}
	if r.pos >= len(r.b) {
		r.fail("truncated value")
		return Value{}
	}
	k := Kind(r.b[r.pos])
	r.pos++
	switch k {
	case KInt, KBool, KChan, KPending:
		return Value{Kind: k, I: r.V()}
	case KFloat:
		return Value{Kind: KFloat, F: math.Float64frombits(r.U())}
	case KStr:
		return Value{Kind: KStr, S: r.S()}
	case KNet:
		return Value{Kind: KNet, Net: NetRef{Heap: uint32(r.U()), Site: uint32(r.U()), Node: uint32(r.U())}}
	case KNetClass:
		return Value{Kind: KNetClass, S: r.S(), Net: NetRef{Site: uint32(r.U()), Node: uint32(r.U())}}
	case KClass:
		i := r.V()
		id := r.V()
		var frame []Value
		if id >= 0 {
			if id >= int64(len(r.frames)) {
				r.fail("frame ref %d out of table", id)
				return Value{}
			}
			frame = r.frames[id]
		}
		return Value{Kind: KClass, I: i, Frame: frame}
	default:
		r.fail("unknown value kind %d", k)
		return Value{}
	}
}

// ReadValues reads a counted value slice.
func (r *SnapReader) ReadValues() []Value {
	n := r.Count("values")
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]Value, n)
	for i := range out {
		out[i] = r.Value()
	}
	return out
}

// EncodeSnapshot writes the machine's full state — program area,
// statistics, heap and run-queue — into w. The caller may append
// further state (a site appends its export overlay) before Finish.
func (m *Machine) EncodeSnapshot(w *SnapWriter) {
	encodeProgram(w, m.Prog)

	st := &m.Stats
	for _, v := range []uint64{
		st.Instructions, st.Threads, st.ContextSwitches, st.Communications,
		st.Instantiations, st.MessagesQueued, st.ObjectsQueued, st.ChannelsMade,
		st.RemoteSends, st.RemoteObjs, st.RemoteInsts, st.Parks,
	} {
		w.U(v)
	}

	w.U(uint64(len(m.heap)))
	for i := range m.heap {
		ch := &m.heap[i]
		w.U(uint64(ch.msgs.len()))
		for _, q := range ch.msgs.live() {
			w.V(int64(q.label))
			w.Values(q.args)
		}
		w.U(uint64(ch.objs.len()))
		for _, q := range ch.objs.live() {
			w.V(int64(q.table))
			w.Values(q.frame)
		}
	}

	w.U(uint64(m.runq.len()))
	for _, t := range m.runq.live() {
		w.V(int64(t.block))
		w.V(int64(t.pc))
		w.Values(t.frame)
		w.Values(t.stack)
	}

	names := make([]string, 0, len(m.localExports))
	for k := range m.localExports {
		names = append(names, k)
	}
	sort.Strings(names)
	w.U(uint64(len(names)))
	for _, k := range names {
		w.S(k)
		w.Value(m.localExports[k])
	}
}

// DecodeSnapshot restores the machine's state from r, filling the
// existing Prog in place (holders of the pointer stay valid).
func (m *Machine) DecodeSnapshot(r *SnapReader) error {
	decodeProgram(r, m.Prog)

	st := &m.Stats
	for _, p := range []*uint64{
		&st.Instructions, &st.Threads, &st.ContextSwitches, &st.Communications,
		&st.Instantiations, &st.MessagesQueued, &st.ObjectsQueued, &st.ChannelsMade,
		&st.RemoteSends, &st.RemoteObjs, &st.RemoteInsts, &st.Parks,
	} {
		*p = r.U()
	}

	m.heap = make([]channel, r.Count("heap"))
	for i := range m.heap {
		ch := &m.heap[i]
		if n := r.Count("msgs"); n > 0 {
			ch.msgs.q = make([]qMsg, n)
			for j := range ch.msgs.q {
				ch.msgs.q[j] = qMsg{label: int(r.V()), args: r.ReadValues()}
			}
		}
		if n := r.Count("objs"); n > 0 {
			ch.objs.q = make([]qObj, n)
			for j := range ch.objs.q {
				ch.objs.q[j] = qObj{table: int(r.V()), frame: r.ReadValues()}
			}
		}
	}

	m.runq = fifo[Thread]{}
	for i, n := 0, r.Count("runq"); i < n; i++ {
		m.runq.push(Thread{
			block: int32(r.V()),
			pc:    int32(r.V()),
			frame: r.ReadValues(),
			stack: r.ReadValues(),
		})
	}

	m.localExports = map[string]Value{}
	for i, n := 0, r.Count("exports"); i < n; i++ {
		k := r.S()
		m.localExports[k] = r.Value()
	}
	return r.Err()
}

// encodeProgram writes the linked program area.
func encodeProgram(w *SnapWriter, p *Program) {
	w.U(uint64(len(p.Blocks)))
	for i := range p.Blocks {
		b := &p.Blocks[i]
		w.S(b.Name)
		w.U(uint64(b.NFree))
		w.U(uint64(b.NParams))
		w.U(uint64(b.NLocals))
		w.U(uint64(len(b.Code)))
		for _, in := range b.Code {
			w.U(uint64(in.Op))
			w.V(int64(in.A))
			w.V(int64(in.B))
		}
	}
	w.U(uint64(len(p.Tables)))
	for i := range p.Tables {
		t := &p.Tables[i]
		w.U(uint64(len(t.Labels)))
		for j := range t.Labels {
			w.V(int64(t.Labels[j]))
			w.V(int64(t.Blocks[j]))
		}
	}
	w.U(uint64(len(p.Groups)))
	for i := range p.Groups {
		g := &p.Groups[i]
		w.U(uint64(g.NFree))
		w.U(uint64(len(g.Classes)))
		for _, c := range g.Classes {
			w.S(c.Name)
			w.V(int64(c.Block))
			w.U(uint64(c.NParams))
		}
	}
	w.Values(p.Consts)
	w.U(uint64(len(p.Strings)))
	for _, s := range p.Strings {
		w.S(s)
	}
	w.U(uint64(len(p.Floats)))
	for _, f := range p.Floats {
		w.U(math.Float64bits(f))
	}
	w.U(uint64(len(p.Ints)))
	for _, v := range p.Ints {
		w.V(v)
	}
	w.U(uint64(len(p.Labels)))
	for _, s := range p.Labels {
		w.S(s)
	}
	w.U(uint64(len(p.Origin)))
	for _, o := range p.Origin {
		w.V(int64(o))
	}
	w.U(uint64(p.nUnits))
}

// decodeProgram fills p in place from r, rebuilding the interning
// indexes.
func decodeProgram(r *SnapReader, p *Program) {
	p.Blocks = make([]asm.Block, r.Count("blocks"))
	for i := range p.Blocks {
		b := &p.Blocks[i]
		b.Name = r.S()
		b.NFree = r.Count("nfree")
		b.NParams = r.Count("nparams")
		b.NLocals = r.Count("nlocals")
		b.Code = make([]asm.Instr, r.Count("code"))
		for j := range b.Code {
			b.Code[j] = asm.Instr{Op: asm.Opcode(r.U()), A: int32(r.V()), B: int32(r.V())}
		}
	}
	p.Tables = make([]asm.MethodTable, r.Count("tables"))
	for i := range p.Tables {
		t := &p.Tables[i]
		n := r.Count("methods")
		t.Labels = make([]int, n)
		t.Blocks = make([]int, n)
		for j := 0; j < n; j++ {
			t.Labels[j] = int(r.V())
			t.Blocks[j] = int(r.V())
		}
	}
	p.Groups = make([]asm.DefGroup, r.Count("groups"))
	for i := range p.Groups {
		g := &p.Groups[i]
		g.NFree = r.Count("gfree")
		g.Classes = make([]asm.ClassInfo, r.Count("classes"))
		for j := range g.Classes {
			g.Classes[j] = asm.ClassInfo{Name: r.S(), Block: int(r.V()), NParams: r.Count("cparams")}
		}
	}
	p.Consts = r.ReadValues()
	p.Strings = make([]string, r.Count("strings"))
	for i := range p.Strings {
		p.Strings[i] = r.S()
	}
	p.Floats = make([]float64, r.Count("floats"))
	for i := range p.Floats {
		p.Floats[i] = math.Float64frombits(r.U())
	}
	p.Ints = make([]int64, r.Count("ints"))
	for i := range p.Ints {
		p.Ints[i] = r.V()
	}
	p.Labels = make([]string, r.Count("labels"))
	for i := range p.Labels {
		p.Labels[i] = r.S()
	}
	p.Origin = make([]int, r.Count("origin"))
	for i := range p.Origin {
		p.Origin[i] = int(r.V())
	}
	p.nUnits = r.Count("units")
	p.labelIdx = make(map[string]int, len(p.Labels))
	for i, s := range p.Labels {
		p.labelIdx[s] = i
	}
	p.strIdx = make(map[string]int, len(p.Strings))
	for i, s := range p.Strings {
		p.strIdx[s] = i
	}
}
