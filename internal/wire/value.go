// Package wire defines the hardware-independent wire representation of
// everything DiTyCO sends between nodes (paper section 5): values with
// network references, packaged messages and migrated objects, code
// units for fetched classes, and the control frames of the name
// service, termination detection and failure detection.
//
// The encoding is a hand-rolled length-prefixed binary format over
// encoding/binary varints: deterministic, compact, and safe to decode
// from untrusted peers (all counts are bounded).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/vm"
)

// MaxFrame bounds any single decoded frame.
const MaxFrame = 64 << 20

// VKind tags wire values.
type VKind uint8

// Wire value kinds. Local heap references never appear on the wire:
// the σ egress translation turns them into network references before
// marshalling (and ingress turns references to the destination site
// back into heap references).
const (
	WInt VKind = iota
	WFloat
	WBool
	WStr
	WNet
	WNetClass
	WClass // a class closure: group within the accompanying unit + captured values
)

// Value is a marshalled value.
type Value struct {
	Kind     VKind
	I        int64
	F        float64
	S        string
	Net      vm.NetRef
	Group    int // WClass: def-group index within the frame's code unit
	Class    int // WClass: class index within the group
	Captured []Value
}

func (v Value) String() string {
	switch v.Kind {
	case WInt:
		return fmt.Sprintf("%d", v.I)
	case WFloat:
		return fmt.Sprintf("%g", v.F)
	case WBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case WStr:
		return fmt.Sprintf("%q", v.S)
	case WNet:
		return v.Net.String()
	case WNetClass:
		return fmt.Sprintf("class(%s@s%d/n%d)", v.S, v.Net.Site, v.Net.Node)
	case WClass:
		return fmt.Sprintf("class(g%d.%d, %d captured)", v.Group, v.Class, len(v.Captured))
	default:
		return "?"
	}
}

// Writer appends binary primitives to a buffer. The zero value is
// ready to use; hot paths should obtain one from GetWriter so the
// backing array is recycled across frames.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated encoding. The slice aliases the
// writer's backing array: it is invalidated by further writes, Reset,
// or PutWriter. Callers that retain the bytes must copy (see Detach).
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset truncates the writer, keeping the backing array.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Detach copies the accumulated encoding into a right-sized slice and
// resets the writer, so the (possibly pooled) backing array keeps
// being reused. This is the hand-off point between the pooled encode
// path and receivers that retain frames indefinitely.
func (w *Writer) Detach() []byte {
	out := make([]byte, len(w.buf))
	copy(out, w.buf)
	w.buf = w.buf[:0]
	return out
}

// U writes an unsigned varint.
func (w *Writer) U(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// V writes a signed varint.
func (w *Writer) V(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// S writes a length-prefixed string.
func (w *Writer) S(s string) {
	w.U(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// B writes a length-prefixed byte slice.
func (w *Writer) B(b []byte) {
	w.U(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Raw appends bytes with no length prefix.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Byte writes one raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Fixed32 reserves a 4-byte little-endian slot and returns its offset
// for a later Patch32. Batch entry headers use it so payloads can be
// streamed into the writer before their length is known.
func (w *Writer) Fixed32() int {
	off := len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0)
	return off
}

// Patch32 overwrites a slot reserved by Fixed32.
func (w *Writer) Patch32(off int, v uint32) {
	binary.LittleEndian.PutUint32(w.buf[off:off+4], v)
}

// maxPooledWriter bounds the backing arrays kept in the pool so one
// giant frame (e.g. a multi-megabyte code unit) doesn't pin memory.
const maxPooledWriter = 1 << 20

var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// GetWriter returns an empty pooled writer.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// PutWriter recycles a writer obtained from GetWriter. The caller must
// not hold onto slices returned by Bytes afterwards.
func PutWriter(w *Writer) {
	if cap(w.buf) > maxPooledWriter {
		w.buf = nil
	}
	w.Reset()
	writerPool.Put(w)
}

// Reader consumes binary primitives from a byte slice.
type Reader struct {
	data []byte
	pos  int
}

// NewReader wraps data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Rest returns the unread remainder.
func (r *Reader) Rest() []byte { return r.data[r.pos:] }

// Done reports whether all input was consumed.
func (r *Reader) Done() bool { return r.pos == len(r.data) }

// U reads an unsigned varint.
func (r *Reader) U() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: truncated at %d", r.pos)
	}
	r.pos += n
	return v, nil
}

// V reads a signed varint.
func (r *Reader) V() (int64, error) {
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: truncated at %d", r.pos)
	}
	r.pos += n
	return v, nil
}

// Count reads the length of a sequence stored next in the input. Every
// element takes at least one byte, so a count above the bytes left is
// rejected before anything is allocated for it: a 3-byte value list
// declaring a million values must not allocate 96 MB to find out.
func (r *Reader) Count(what string) (int, error) {
	v, err := r.U()
	if err != nil {
		return 0, err
	}
	if left := len(r.data) - r.pos; v > uint64(left) {
		return 0, fmt.Errorf("wire: %s count %d exceeds the %d bytes left", what, v, left)
	}
	return int(v), nil
}

// Index reads a non-negative index into something outside the input
// (a table or group of a code unit), bounded by MaxFrame.
func (r *Reader) Index(what string) (int, error) {
	v, err := r.U()
	if err != nil {
		return 0, err
	}
	if v > MaxFrame {
		return 0, fmt.Errorf("wire: %s index %d too large", what, v)
	}
	return int(v), nil
}

// S reads a length-prefixed string.
func (r *Reader) S() (string, error) {
	n, err := r.Count("string")
	if err != nil {
		return "", err
	}
	s := string(r.data[r.pos : r.pos+n])
	r.pos += n
	return s, nil
}

// B reads a length-prefixed byte slice (shared with the input buffer).
func (r *Reader) B() ([]byte, error) {
	n, err := r.Count("bytes")
	if err != nil {
		return nil, err
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// Byte reads one raw byte.
func (r *Reader) Byte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, fmt.Errorf("wire: truncated at %d", r.pos)
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

// EncodeValue appends one value.
func EncodeValue(w *Writer, v Value) {
	w.Byte(byte(v.Kind))
	switch v.Kind {
	case WInt, WBool:
		w.V(v.I)
	case WFloat:
		w.U(math.Float64bits(v.F))
	case WStr:
		w.S(v.S)
	case WNet:
		w.U(uint64(v.Net.Heap))
		w.U(uint64(v.Net.Site))
		w.U(uint64(v.Net.Node))
	case WNetClass:
		w.S(v.S)
		w.U(uint64(v.Net.Site))
		w.U(uint64(v.Net.Node))
	case WClass:
		w.U(uint64(v.Group))
		w.U(uint64(v.Class))
		EncodeValues(w, v.Captured)
	}
}

// EncodeValues appends a length-prefixed value list.
func EncodeValues(w *Writer, vs []Value) {
	w.U(uint64(len(vs)))
	for _, v := range vs {
		EncodeValue(w, v)
	}
}

// DecodeValue reads one value. depth bounds nested class captures.
func DecodeValue(r *Reader, depth int) (Value, error) {
	if depth > 32 {
		return Value{}, fmt.Errorf("wire: value nesting too deep")
	}
	k, err := r.Byte()
	if err != nil {
		return Value{}, err
	}
	v := Value{Kind: VKind(k)}
	switch v.Kind {
	case WInt, WBool:
		v.I, err = r.V()
	case WFloat:
		var bits uint64
		bits, err = r.U()
		v.F = math.Float64frombits(bits)
	case WStr:
		v.S, err = r.S()
	case WNet:
		var h, s, n uint64
		if h, err = r.U(); err == nil {
			if s, err = r.U(); err == nil {
				n, err = r.U()
			}
		}
		v.Net = vm.NetRef{Heap: uint32(h), Site: uint32(s), Node: uint32(n)}
	case WNetClass:
		if v.S, err = r.S(); err == nil {
			var s, n uint64
			if s, err = r.U(); err == nil {
				n, err = r.U()
			}
			v.Net = vm.NetRef{Site: uint32(s), Node: uint32(n)}
		}
	case WClass:
		var g, c uint64
		if g, err = r.U(); err == nil {
			if c, err = r.U(); err == nil {
				v.Group, v.Class = int(g), int(c)
				v.Captured, err = DecodeValues(r, depth+1)
			}
		}
	default:
		return Value{}, fmt.Errorf("wire: unknown value kind %d", k)
	}
	return v, err
}

// DecodeValues reads a length-prefixed value list into a fresh slice.
func DecodeValues(r *Reader, depth int) ([]Value, error) {
	return DecodeValuesInto(r, nil, depth)
}

// DecodeValuesInto reads a length-prefixed value list into dst's array
// when it has room, and into a fresh slice when it has not (or dst is
// nil). On error it returns dst emptied, so a caller's scratch array
// survives a malformed input.
func DecodeValuesInto(r *Reader, dst []Value, depth int) ([]Value, error) {
	n, err := r.Count("values")
	if err != nil {
		return dst[:0], err
	}
	if dst == nil || cap(dst) < n {
		dst = make([]Value, n)
	} else {
		dst = dst[:n]
	}
	for i := range dst {
		if dst[i], err = DecodeValue(r, depth); err != nil {
			clear(dst)
			return dst[:0], err
		}
	}
	return dst, nil
}
