package vm

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/asm"
)

// External receives every interaction that leaves the machine: remote
// sends (rule SHIPM), object migrations (rule SHIPO), remote
// instantiations (rule FETCH) and export registrations. Package site
// implements it; a nil External restricts the machine to purely local
// programs (exports are then recorded in a local registry so tests and
// the single-site tyco tool still work).
type External interface {
	// RemoteSend ships a message to a remote channel.
	RemoteSend(ref NetRef, label string, args []Value) error
	// RemoteObj migrates an object (its method-table code plus
	// captured frame) to the remote channel's site.
	RemoteObj(ref NetRef, table int, frame []Value) error
	// RemoteInst requests the byte-code of a remote class and
	// instantiates it locally once linked.
	RemoteInst(class NetClass, args []Value) error
	// ExportName registers a local channel with the name service.
	ExportName(name string, v Value) error
	// ExportClass registers a class closure for remote fetching.
	ExportClass(name string, v Value) error
}

// Stats counts machine activity. The counters map onto the paper's
// performance story: Reductions and Instructions give the
// instructions-per-thread granularity claim; ContextSwitches counts
// thread activations used to hide communication latency.
type Stats struct {
	Instructions    uint64
	Threads         uint64 // threads spawned
	ContextSwitches uint64 // threads activated from the run-queue
	Communications  uint64 // local COMM reductions
	Instantiations  uint64 // local INST reductions
	MessagesQueued  uint64
	ObjectsQueued   uint64
	ChannelsMade    uint64
	RemoteSends     uint64
	RemoteObjs      uint64
	RemoteInsts     uint64
	Parks           uint64 // threads parked on unresolved imports
}

// channel is a heap entry: queued messages or queued objects (never
// both non-empty).
type channel struct {
	msgs fifo[qMsg]
	objs fifo[qObj]
}

// fifo is the queue behind the run-queue and the channel queues. It
// pops by head index rather than by re-slicing: a popped slot is zeroed
// so the backing array retains nothing the queue no longer holds, and a
// drained queue starts over at the front of the same array, so a queue
// that keeps filling and draining stops allocating.
type fifo[T any] struct {
	q    []T
	head int
}

func (f *fifo[T]) len() int { return len(f.q) - f.head }

// live returns the queued items, oldest first.
func (f *fifo[T]) live() []T { return f.q[f.head:] }

func (f *fifo[T]) push(v T) {
	if len(f.q) == cap(f.q) && f.head > 0 && 2*f.head >= len(f.q) {
		// Full, and at least half of the array is popped slots: slide
		// the live items down instead of growing (a queue that never
		// drains must not grow with the traffic through it).
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, v)
}

func (f *fifo[T]) pop() T {
	var zero T
	v := f.q[f.head]
	f.q[f.head] = zero
	f.head++
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return v
}

type qMsg struct {
	label int
	args  []Value
	// trace is the mobility trace of the send that queued the message
	// (telemetry fabric; 0 = untraced). Traces are runtime-only causal
	// context: snapshots do not persist them, so recovered threads
	// start fresh trace roots.
	trace uint64
}

type qObj struct {
	table int
	frame []Value
	trace uint64
}

// Thread is a runnable activation: a block, a program counter, the
// frame of locals and a small operand stack. A thread runs on the
// machine's operand stack; stack holds values only for a thread that
// parked mid-block (see Machine.OnPending) and has not resumed yet.
type Thread struct {
	block int32
	pc    int32
	frame []Value
	stack []Value
	// trace is the mobility trace the thread runs under: inherited
	// from the delivery or reduction that spawned it, and carried into
	// every remote operation the thread performs.
	trace uint64
}

// Error is a machine runtime error with code location.
type Error struct {
	Block int
	PC    int
	Name  string
	Msg   string
}

func (e *Error) Error() string {
	return fmt.Sprintf("vm error in %s (block %d, pc %d): %s", e.Name, e.Block, e.PC, e.Msg)
}

// Machine is one TyCO virtual machine instance (one site's engine).
// It is single-owner by construction: exactly one goroutine — the
// site's dedicated goroutine under the serial runtime, or whichever
// scheduler worker currently runs the site's turn under work
// stealing — may call Step/RunSlice/Requeue at a time. The node
// scheduler enforces that ownership (a site is on at most one worker
// deque, and stealing transfers the whole site, never a thread), so
// the Machine itself needs no locks.
type Machine struct {
	Prog  *Program
	Out   io.Writer
	Ext   External
	Stats Stats

	heap []channel
	runq fifo[Thread]
	// stack is the operand stack every thread runs on. Threads run to
	// completion one at a time, so one stack serves them all; it grows
	// to the deepest thread seen and is never shared across a park.
	stack []Value
	// localExports backs export instructions when Ext is nil.
	localExports map[string]Value

	// InstrPerThread, when non-nil, receives the instruction count of
	// every finished thread (experiment E3's granularity histogram).
	InstrPerThread func(n int)

	// OnPending receives threads that touched a KPending constant
	// (an import whose name-service resolution is still in flight).
	// The thread carries a private copy of its live operand stack, so
	// the threads that run while it is parked cannot disturb it. The
	// owner re-queues it with Requeue once the constant is resolved. A
	// nil OnPending makes pending constants an error.
	OnPending func(t Thread, constIdx int)

	// Trace context (telemetry fabric). ambient is the mobility trace
	// of whatever is executing right now: the running thread's trace
	// while a thread runs, or the delivery's trace while the site
	// applies one. cur is the running thread while running is set —
	// held by value, so activating a thread allocates nothing — and a
	// trace allocated mid-run (first egress of an untraced thread)
	// sticks to it. All are touched only on the machine's goroutine.
	ambient uint64
	cur     Thread
	running bool
}

// NewMachine creates a machine over a program area.
func NewMachine(prog *Program, out io.Writer, ext External) *Machine {
	if out == nil {
		out = io.Discard
	}
	return &Machine{Prog: prog, Out: out, Ext: ext, localExports: map[string]Value{}}
}

// NewChan allocates a fresh channel and returns its heap index.
func (m *Machine) NewChan() int {
	m.heap = append(m.heap, channel{})
	m.Stats.ChannelsMade++
	return len(m.heap) - 1
}

// HeapSize returns the number of allocated channels.
func (m *Machine) HeapSize() int { return len(m.heap) }

// LocalExports returns the registry used when no External is set.
func (m *Machine) LocalExports() map[string]Value { return m.localExports }

// Spawn enqueues a new thread for block. Its frame is built at the
// block's declared size from the given prefix (captures followed by
// parameters); prefix is only read.
func (m *Machine) Spawn(block int, prefix []Value) {
	m.spawn(block, prefix, nil)
}

// spawn enqueues a thread for block whose frame starts with free
// followed by params. Both may be views of the operand stack or of
// another frame: they are copied into the new frame, never kept.
func (m *Machine) spawn(block int, free, params []Value) {
	b := &m.Prog.Blocks[block]
	frame := make([]Value, b.FrameSize())
	copy(frame, free)
	copy(frame[b.NFree:], params)
	m.Stats.Threads++
	m.runq.push(Thread{block: int32(block), frame: frame, trace: m.ambient})
}

// Ambient returns the current trace context (0 = untraced).
func (m *Machine) Ambient() uint64 { return m.ambient }

// SetAmbient installs the trace context for externally-driven work:
// the site sets it to the incoming delivery's trace before applying
// and clears it afterwards, so threads and queue entries created by
// the delivery inherit its trace.
func (m *Machine) SetAmbient(trace uint64) { m.ambient = trace }

// AdoptTrace stamps the running thread (and the ambient context) with
// a trace allocated mid-run — the first remote operation of an
// untraced thread becomes the root of a new trace tree, and the
// thread's later operations join it.
func (m *Machine) AdoptTrace(trace uint64) {
	if m.running {
		m.cur.trace = trace
	}
	m.ambient = trace
}

// Requeue returns a parked thread to the run-queue.
func (m *Machine) Requeue(t Thread) { m.runq.push(t) }

// QueueLen reports the number of runnable threads.
func (m *Machine) QueueLen() int { return m.runq.len() }

// Idle reports whether the machine has no runnable work.
func (m *Machine) Idle() bool { return m.runq.len() == 0 }

// Step pops one thread and runs it to completion (thread bodies are a
// few tens of instructions — the paper's granularity). It reports
// whether any work was done.
func (m *Machine) Step() (bool, error) {
	if m.runq.len() == 0 {
		return false, nil
	}
	m.cur = m.runq.pop()
	m.Stats.ContextSwitches++
	m.ambient = m.cur.trace
	m.running = true
	err := m.run()
	m.running = false
	m.cur = Thread{}
	m.ambient = 0
	return true, err
}

// RunSlice executes up to n threads; it returns the number executed.
func (m *Machine) RunSlice(n int) (int, error) {
	done := 0
	for done < n {
		ok, err := m.Step()
		if err != nil {
			return done, err
		}
		if !ok {
			return done, nil
		}
		done++
	}
	return done, nil
}

// RunToQuiescence drains the run-queue completely.
func (m *Machine) RunToQuiescence() error {
	for {
		ok, err := m.Step()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// DeliverMsg injects a message arriving from the network (or from a
// local producer) at a local channel: the second, rendez-vous half of
// a remote communication. args is only read.
func (m *Machine) DeliverMsg(ch int, label int, args []Value) error {
	return m.trmsg(Chan(ch), label, args)
}

// DeliverObj injects a migrated object (already linked: table indexes
// the program area) at a local channel. frame is only read.
func (m *Machine) DeliverObj(ch int, table int, frame []Value) error {
	return m.trobj(Chan(ch), table, frame)
}

// MakeGroupFrame builds the shared frame of a def group: captured
// values followed by the class closures themselves (used by MkDef and
// by the site when reconstructing fetched classes).
func (m *Machine) MakeGroupFrame(group int, captured []Value) []Value {
	g := &m.Prog.Groups[group]
	frame := make([]Value, g.NFree+len(g.Classes))
	copy(frame, captured)
	for j := range g.Classes {
		frame[g.NFree+j] = Class(group, j, frame)
	}
	return frame
}

// Instantiate runs a class closure with the given arguments. args is
// only read here; an External that parks the instantiation copies it.
func (m *Machine) Instantiate(class Value, args []Value) error {
	switch class.Kind {
	case KClass:
		gi, ci := class.ClassID()
		g := &m.Prog.Groups[gi]
		info := g.Classes[ci]
		if len(args) != info.NParams {
			return fmt.Errorf("class %s expects %d arguments, got %d", info.Name, info.NParams, len(args))
		}
		m.Stats.Instantiations++
		m.spawn(info.Block, class.Frame, args)
		return nil
	case KNetClass:
		m.Stats.RemoteInsts++
		if m.Ext == nil {
			return fmt.Errorf("remote class %s with no network attached", class.AsNetClass())
		}
		return m.Ext.RemoteInst(class.AsNetClass(), args)
	default:
		return fmt.Errorf("cannot instantiate %s value %s", class.Kind, class)
	}
}

// errorf builds a machine error: located at the running thread's
// current instruction, or a plain error for work injected between
// threads (DeliverMsg, DeliverObj).
func (m *Machine) errorf(format string, args ...any) error {
	if !m.running {
		return fmt.Errorf(format, args...)
	}
	t := &m.cur
	return &Error{Block: int(t.block), PC: int(t.pc) - 1, Name: m.Prog.Blocks[t.block].Name, Msg: fmt.Sprintf(format, args...)}
}

// run executes the current thread until Halt, a park, or an error.
//
// The communication instructions hand their operands to trmsg, trobj,
// Instantiate and spawn as views of the operand stack, popped only once
// the call returns. The contract everywhere below (External included):
// a callee reads a view during the call and must copy what it retains.
func (m *Machine) run() error {
	t := &m.cur
	prog := m.Prog
	code := prog.Blocks[t.block].Code
	n0 := m.Stats.Instructions
	// A re-queued thread brings back the values it parked with.
	stack := append(m.stack[:0], t.stack...)
	t.stack = nil
	var err error
	finished := true
loop:
	for int(t.pc) < len(code) { // falling off the block is the same as Halt
		in := code[t.pc]
		t.pc++
		m.Stats.Instructions++
		top := len(stack) - 1
		switch in.Op {
		case asm.Nop:
		case asm.Halt:
			break loop
		case asm.LdLoc:
			stack = append(stack, t.frame[in.A])
		case asm.StLoc:
			t.frame[in.A] = stack[top]
			stack = stack[:top]
		case asm.Drop:
			stack = stack[:top]
		case asm.LdI:
			stack = append(stack, Int(int64(in.A)))
		case asm.LdIC:
			stack = append(stack, Int(prog.Ints[in.A]))
		case asm.LdF:
			stack = append(stack, Float(prog.Floats[in.A]))
		case asm.LdS:
			stack = append(stack, Str(prog.Strings[in.A]))
		case asm.LdB:
			stack = append(stack, Bool(in.A != 0))
		case asm.LdK:
			v := prog.Consts[in.A]
			if v.Kind == KPending {
				if m.OnPending == nil {
					err = m.errorf("unresolved import constant %d", in.A)
					break loop
				}
				// Rewind so the thread re-executes LdK when it is
				// re-queued after resolution, then park it with its own
				// copy of the live stack: the machine's is about to be
				// reused by the threads that run meanwhile.
				t.pc--
				m.Stats.Parks++
				t.stack = slices.Clone(stack)
				m.OnPending(*t, int(in.A))
				finished = false
				break loop
			}
			stack = append(stack, v)
		case asm.NewC:
			stack = append(stack, Chan(m.NewChan()))
		case asm.Jmp:
			t.pc = in.A
		case asm.JmpF:
			if !stack[top].Truth() {
				t.pc = in.A
			}
			stack = stack[:top]
		case asm.Send:
			args := len(stack) - int(in.B)
			err = m.trmsg(stack[args-1], int(in.A), stack[args:])
			stack = stack[:args-1]
		case asm.Obj:
			frame := len(stack) - int(in.B)
			err = m.trobj(stack[frame-1], int(in.A), stack[frame:])
			stack = stack[:frame-1]
		case asm.MkDef:
			captured := len(stack) - int(in.B)
			frame := m.MakeGroupFrame(int(in.A), stack[captured:])
			stack = append(stack[:captured], frame[prog.Groups[in.A].NFree:]...)
		case asm.InstV:
			args := len(stack) - int(in.A)
			if ierr := m.Instantiate(stack[args-1], stack[args:]); ierr != nil {
				err = m.errorf("%s", ierr)
			}
			stack = stack[:args-1]
		case asm.Spawn:
			captured := len(stack) - int(in.B)
			m.spawn(int(in.A), stack[captured:], nil)
			stack = stack[:captured]
		case asm.Print, asm.Println:
			args := stack[len(stack)-int(in.A):]
			parts := make([]string, len(args))
			for i, a := range args {
				parts[i] = a.String()
			}
			if in.Op == asm.Println {
				fmt.Fprintln(m.Out, strings.Join(parts, " "))
			} else {
				fmt.Fprint(m.Out, strings.Join(parts, " "))
			}
			stack = stack[:len(stack)-len(args)]
		case asm.ExpName:
			v := stack[top]
			stack = stack[:top]
			name := prog.Strings[in.A]
			if m.Ext == nil {
				m.localExports[name] = v
			} else if xerr := m.Ext.ExportName(name, v); xerr != nil {
				err = m.errorf("export %s: %s", name, xerr)
			}
		case asm.ExpClass:
			v := t.frame[in.B]
			name := prog.Strings[in.A]
			if m.Ext == nil {
				m.localExports[name] = v
			} else if xerr := m.Ext.ExportClass(name, v); xerr != nil {
				err = m.errorf("export class %s: %s", name, xerr)
			}
		case asm.LdImp:
			err = m.errorf("unresolved import at runtime (unit not linked)")
		case asm.Add, asm.Sub, asm.Mul, asm.Div, asm.Mod,
			asm.And, asm.Or, asm.CmpEq, asm.CmpNe,
			asm.CmpLt, asm.CmpLe, asm.CmpGt, asm.CmpGe:
			v, berr := binop(in.Op, stack[top-1], stack[top])
			if berr != nil {
				err = m.errorf("%s", berr)
			}
			stack[top-1] = v
			stack = stack[:top]
		case asm.Neg:
			switch v := stack[top]; v.Kind {
			case KInt:
				stack[top] = Int(-v.I)
			case KFloat:
				stack[top] = Float(-v.F)
			default:
				err = m.errorf("neg: not a number: %s", v)
			}
		case asm.Not:
			if v := stack[top]; v.Kind == KBool {
				stack[top] = Bool(!v.Truth())
			} else {
				err = m.errorf("not: not a boolean: %s", v)
			}
		default:
			err = m.errorf("invalid opcode %s", in.Op)
		}
		if err != nil {
			break
		}
	}
	m.stack = stack[:0] // keep what the stack grew to
	if err == nil && finished && m.InstrPerThread != nil {
		m.InstrPerThread(int(m.Stats.Instructions - n0))
	}
	return err
}

// trmsg implements the paper's re-engineered trmsg instruction: local
// reduction or queueing for a heap reference; shipping for a network
// reference. args is a view.
func (m *Machine) trmsg(target Value, label int, args []Value) error {
	switch target.Kind {
	case KChan:
		ch := &m.heap[target.I]
		if ch.objs.len() > 0 {
			obj := ch.objs.pop()
			// The message is the communication's cause: its trace wins;
			// an untraced message joins the waiting object's trace.
			trace := m.ambient
			if trace == 0 {
				trace = obj.trace
			}
			return m.reduce(obj.table, obj.frame, label, args, trace)
		}
		ch.msgs.push(qMsg{label: label, args: slices.Clone(args), trace: m.ambient})
		m.Stats.MessagesQueued++
		return nil
	case KNet:
		m.Stats.RemoteSends++
		if m.Ext == nil {
			return m.errorf("message to %s with no network attached", target.Net)
		}
		return m.Ext.RemoteSend(target.Net, m.Prog.Labels[label], args)
	default:
		return m.errorf("message target is not a channel: %s", target)
	}
}

// trobj implements the paper's re-engineered trobj instruction. frame
// is a view.
func (m *Machine) trobj(target Value, table int, frame []Value) error {
	switch target.Kind {
	case KChan:
		ch := &m.heap[target.I]
		if ch.msgs.len() > 0 {
			msg := ch.msgs.pop()
			trace := msg.trace
			if trace == 0 {
				trace = m.ambient
			}
			return m.reduce(table, frame, msg.label, msg.args, trace)
		}
		ch.objs.push(qObj{table: table, frame: slices.Clone(frame), trace: m.ambient})
		m.Stats.ObjectsQueued++
		return nil
	case KNet:
		m.Stats.RemoteObjs++
		if m.Ext == nil {
			return m.errorf("object migration to %s with no network attached", target.Net)
		}
		return m.Ext.RemoteObj(target.Net, table, frame)
	default:
		return m.errorf("object target is not a channel: %s", target)
	}
}

// reduce performs one COMMUNICATION reduction: select the method of
// the object (table, captured frame) and enqueue its body, whose frame
// is built here from the two halves. The body thread runs under trace —
// the causal context of the message half of the rendez-vous.
func (m *Machine) reduce(table int, free []Value, label int, args []Value, trace uint64) error {
	block, ok := m.Prog.Tables[table].Lookup(label)
	if !ok {
		return m.errorf("object does not understand label %q", m.Prog.Labels[label])
	}
	if np := m.Prog.Blocks[block].NParams; len(args) != np {
		return m.errorf("method %q expects %d arguments, got %d", m.Prog.Labels[label], np, len(args))
	}
	m.Stats.Communications++
	saved := m.ambient
	m.ambient = trace
	m.spawn(block, free, args)
	m.ambient = saved
	return nil
}

// PendingAt reports the queue lengths at a channel (testing aid).
func (m *Machine) PendingAt(ch int) (msgs, objs int) {
	c := &m.heap[ch]
	return c.msgs.len(), c.objs.len()
}

func binop(op asm.Opcode, l, r Value) (Value, error) {
	bad := func() (Value, error) {
		return Value{}, fmt.Errorf("operator %s not applicable to %s and %s", op, l, r)
	}
	switch op {
	case asm.Add:
		switch {
		case l.Kind == KInt && r.Kind == KInt:
			return Int(l.I + r.I), nil
		case l.Kind == KFloat && r.Kind == KFloat:
			return Float(l.F + r.F), nil
		case l.Kind == KStr && r.Kind == KStr:
			return Str(l.S + r.S), nil
		}
		return bad()
	case asm.Sub, asm.Mul, asm.Div, asm.Mod:
		switch {
		case l.Kind == KInt && r.Kind == KInt:
			switch op {
			case asm.Sub:
				return Int(l.I - r.I), nil
			case asm.Mul:
				return Int(l.I * r.I), nil
			case asm.Div:
				if r.I == 0 {
					return Value{}, fmt.Errorf("integer division by zero")
				}
				return Int(l.I / r.I), nil
			default:
				if r.I == 0 {
					return Value{}, fmt.Errorf("integer modulo by zero")
				}
				return Int(l.I % r.I), nil
			}
		case l.Kind == KFloat && r.Kind == KFloat && op != asm.Mod:
			switch op {
			case asm.Sub:
				return Float(l.F - r.F), nil
			case asm.Mul:
				return Float(l.F * r.F), nil
			default:
				return Float(l.F / r.F), nil
			}
		}
		return bad()
	case asm.And, asm.Or:
		if l.Kind != KBool || r.Kind != KBool {
			return bad()
		}
		if op == asm.And {
			return Bool(l.Truth() && r.Truth()), nil
		}
		return Bool(l.Truth() || r.Truth()), nil
	case asm.CmpEq:
		return Bool(l.Equal(r)), nil
	case asm.CmpNe:
		return Bool(!l.Equal(r)), nil
	case asm.CmpLt, asm.CmpLe, asm.CmpGt, asm.CmpGe:
		var c int
		switch {
		case l.Kind == KInt && r.Kind == KInt:
			switch {
			case l.I < r.I:
				c = -1
			case l.I > r.I:
				c = 1
			}
		case l.Kind == KFloat && r.Kind == KFloat:
			switch {
			case l.F < r.F:
				c = -1
			case l.F > r.F:
				c = 1
			}
		case l.Kind == KStr && r.Kind == KStr:
			c = strings.Compare(l.S, r.S)
		default:
			return bad()
		}
		switch op {
		case asm.CmpLt:
			return Bool(c < 0), nil
		case asm.CmpLe:
			return Bool(c <= 0), nil
		case asm.CmpGt:
			return Bool(c > 0), nil
		default:
			return Bool(c >= 0), nil
		}
	}
	return bad()
}
