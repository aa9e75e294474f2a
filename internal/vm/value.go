// Package vm implements the TyCO virtual machine of paper section 5
// (Fig. 3): a heap of channels holding queued messages or objects, a
// run-queue of fine-grained threads, per-thread frames and one operand
// stack shared by the run-to-completion threads, and the communication
// instructions trmsg (Send), trobj (Obj) and instof (InstV). The machine executes linked Programs built from
// asm Units; dynamic linking is what receives mobile code.
//
// Distribution hooks: values may be network references ("Variables may
// now hold, besides local references, network references"), and the
// machine delegates every remote interaction to an External handler —
// package site provides the real one backed by queues, a communication
// daemon and the network name service.
package vm

import (
	"fmt"
	"strconv"
)

// NetRef is a hardware-independent network reference, the paper's
// (HeapId, SiteId, IpAddress) triple. Node plays the role of the IP
// address; Heap is the exported heap identifier issued by the owning
// site's export table.
type NetRef struct {
	Heap uint32
	Site uint32
	Node uint32
}

func (r NetRef) String() string {
	return fmt.Sprintf("net(%d@s%d/n%d)", r.Heap, r.Site, r.Node)
}

// NetClass identifies a class exported by a remote site; instantiation
// fetches its byte-code (rule FETCH).
type NetClass struct {
	Name string
	Site uint32
	Node uint32
}

func (c NetClass) String() string {
	return fmt.Sprintf("class(%s@s%d/n%d)", c.Name, c.Site, c.Node)
}

// Kind tags machine values.
type Kind uint8

// Machine value kinds.
const (
	KInt Kind = iota
	KFloat
	KBool
	KStr
	KChan     // local heap reference: I is the channel index
	KNet      // network reference to a remote channel
	KClass    // local class closure: I packs group/class, Frame is the group frame
	KNetClass // remote class reference
	// KPending marks a constant whose import resolution is still in
	// flight. A thread touching it parks until the site resolves the
	// import — the latency-hiding context switch of the paper.
	KPending
)

var kindNames = [...]string{
	KInt: "int", KFloat: "float", KBool: "bool", KStr: "string",
	KChan: "channel", KNet: "netref", KClass: "class", KNetClass: "netclass",
	KPending: "pending",
}

// Pending constructs a pending-import placeholder carrying the import
// slot it waits for.
func Pending(slot int) Value { return Value{Kind: KPending, I: int64(slot)} }

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Value is a machine value. The representation favours uniformity
// over compactness: one struct covers builtin data, heap references,
// network references and class closures.
type Value struct {
	Kind  Kind
	I     int64 // int, bool (0/1), channel index, packed class id
	F     float64
	S     string // string payload; class name for KNetClass
	Net   NetRef
	Frame []Value // group frame of a KClass closure
}

// Int constructs an integer value.
func Int(i int64) Value { return Value{Kind: KInt, I: i} }

// Float constructs a float value.
func Float(f float64) Value { return Value{Kind: KFloat, F: f} }

// Bool constructs a boolean value.
func Bool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{Kind: KBool, I: i}
}

// Str constructs a string value.
func Str(s string) Value { return Value{Kind: KStr, S: s} }

// Chan constructs a local channel reference.
func Chan(idx int) Value { return Value{Kind: KChan, I: int64(idx)} }

// Net constructs a network reference value.
func Net(r NetRef) Value { return Value{Kind: KNet, Net: r} }

// NetClassVal constructs a remote class reference value.
func NetClassVal(c NetClass) Value {
	return Value{Kind: KNetClass, S: c.Name, Net: NetRef{Site: c.Site, Node: c.Node}}
}

// AsNetClass extracts the NetClass of a KNetClass value.
func (v Value) AsNetClass() NetClass {
	return NetClass{Name: v.S, Site: v.Net.Site, Node: v.Net.Node}
}

// Class constructs a class closure value. group and class index into
// the program's def-group pool; frame is the shared group frame.
func Class(group, class int, frame []Value) Value {
	return Value{Kind: KClass, I: int64(group)<<20 | int64(class), Frame: frame}
}

// ClassID unpacks a KClass value into its group and class indices.
func (v Value) ClassID() (group, class int) {
	return int(v.I >> 20), int(v.I & (1<<20 - 1))
}

// Truth reports the truth of a KBool value.
func (v Value) Truth() bool { return v.I != 0 }

func (v Value) String() string {
	switch v.Kind {
	case KInt:
		return strconv.FormatInt(v.I, 10)
	case KFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KStr:
		return v.S
	case KChan:
		return fmt.Sprintf("#%d", v.I)
	case KNet:
		return v.Net.String()
	case KClass:
		g, c := v.ClassID()
		return fmt.Sprintf("class(%d.%d)", g, c)
	case KNetClass:
		return v.AsNetClass().String()
	default:
		return "?"
	}
}

// Equal compares values: channels by identity (index), network
// references structurally, class closures by identity of group frame
// and id.
func (v Value) Equal(w Value) bool {
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case KInt, KBool, KChan:
		return v.I == w.I
	case KFloat:
		return v.F == w.F
	case KStr:
		return v.S == w.S
	case KNet:
		return v.Net == w.Net
	case KClass:
		return v.I == w.I && len(v.Frame) == len(w.Frame) && (len(v.Frame) == 0 || &v.Frame[0] == &w.Frame[0])
	case KNetClass:
		return v.S == w.S && v.Net == w.Net
	default:
		return false
	}
}
