package site

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"repro/internal/asm"
	"repro/internal/backoff"
	"repro/internal/types"
	"repro/internal/vm"
	"repro/internal/wire"
)

// overloadedFetch is the well-known FetchRep error marker an
// overloaded class owner answers with instead of extracting code: the
// requester treats it as retryable pushback (backoff and re-issue),
// where any other fetch error is terminal.
const overloadedFetch = "!overloaded"

// WireVal is the marshalled form of a machine value (σ-translated:
// local references appear as network references).
type WireVal = wire.Value

// This file implements the vm.External interface — the re-engineered
// communication instructions of paper section 5 — and the code
// mobility machinery: extraction + σ egress on the way out, dynamic
// linking + σ ingress on the way in.

var _ vm.External = (*Site)(nil)

// exportID returns (allocating if needed) the exported heap id of a
// local channel: "an export table is needed … for all local variables
// that leave the site". The table is written only by the site
// goroutine, but read by stats accessors from outside, hence the lock.
func (s *Site) exportID(chanIdx int) uint32 {
	s.expMu.Lock()
	defer s.expMu.Unlock()
	if chanIdx < len(s.exp) && s.exp[chanIdx] != 0 {
		return s.exp[chanIdx]
	}
	return s.addExport(chanIdx)
}

// addExport issues the next export id to a channel that has none.
// Called with expMu held.
func (s *Site) addExport(chanIdx int) uint32 {
	if chanIdx >= len(s.exp) {
		s.exp = append(s.exp, make([]uint32, chanIdx+1-len(s.exp))...)
	}
	s.expRev = append(s.expRev, uint32(chanIdx))
	id := uint32(len(s.expRev))
	s.exp[chanIdx] = id
	return id
}

// lookupExport resolves an exported heap id back to the local channel.
func (s *Site) lookupExport(heap uint32) (int, bool) {
	s.expMu.Lock()
	defer s.expMu.Unlock()
	if i := heap - 1; i < uint32(len(s.expRev)) { // heap 0 wraps out of range
		return int(s.expRev[i]), true
	}
	return 0, false
}

// ExportTableSize reports the number of exported locals (stats).
func (s *Site) ExportTableSize() int {
	s.expMu.Lock()
	defer s.expMu.Unlock()
	return len(s.expRev)
}

// egressVal σ-translates one machine value for the wire: local
// channels become network references bound to this site; class
// closures are encoded against the extraction relocation ctx (nil ctx
// forbids them, e.g. in message arguments).
func (s *Site) egressVal(v vm.Value, ctx *asm.Relocation) (wire.Value, error) {
	switch v.Kind {
	case vm.KInt:
		return wire.Value{Kind: wire.WInt, I: v.I}, nil
	case vm.KBool:
		return wire.Value{Kind: wire.WBool, I: v.I}, nil
	case vm.KFloat:
		return wire.Value{Kind: wire.WFloat, F: v.F}, nil
	case vm.KStr:
		return wire.Value{Kind: wire.WStr, S: v.S}, nil
	case vm.KChan:
		ref := vm.NetRef{Heap: s.exportID(int(v.I)), Site: s.cfg.ID, Node: s.cfg.NodeID}
		return wire.Value{Kind: wire.WNet, Net: ref}, nil
	case vm.KNet:
		return wire.Value{Kind: wire.WNet, Net: v.Net}, nil
	case vm.KNetClass:
		return wire.Value{Kind: wire.WNetClass, S: v.S, Net: v.Net}, nil
	case vm.KClass:
		if ctx == nil {
			return wire.Value{}, fmt.Errorf("site %s: class closure in message arguments", s.cfg.Name)
		}
		gi, ci := v.ClassID()
		ug, ok := ctx.Groups[gi]
		if !ok {
			return wire.Value{}, fmt.Errorf("site %s: class group %d not in shipped unit", s.cfg.Name, gi)
		}
		nfree := s.prog.Groups[gi].NFree
		captured, err := s.egressVals(nil, v.Frame[:nfree], ctx)
		if err != nil {
			return wire.Value{}, err
		}
		return wire.Value{Kind: wire.WClass, Group: ug, Class: ci, Captured: captured}, nil
	default:
		return wire.Value{}, fmt.Errorf("site %s: cannot marshal %s value", s.cfg.Name, v.Kind)
	}
}

// egressVals σ-translates vs, appending to dst: nil for a slice of the
// caller's own, a scratch buffer when the result is consumed before the
// next translation.
func (s *Site) egressVals(dst []wire.Value, vs []vm.Value, ctx *asm.Relocation) ([]wire.Value, error) {
	dst = slices.Grow(dst, len(vs))
	for _, v := range vs {
		w, err := s.egressVal(v, ctx)
		if err != nil {
			return nil, err
		}
		dst = append(dst, w)
	}
	return dst, nil
}

// egressConst σ-translates a program constant during extraction.
func (s *Site) egressConst(v vm.Value) (asm.Const, error) {
	switch v.Kind {
	case vm.KChan:
		return asm.Const{Heap: s.exportID(int(v.I)), Site: s.cfg.ID, Node: s.cfg.NodeID}, nil
	case vm.KNet:
		return asm.Const{Heap: v.Net.Heap, Site: v.Net.Site, Node: v.Net.Node}, nil
	case vm.KNetClass:
		return asm.Const{IsClass: true, Name: v.S, Site: v.Net.Site, Node: v.Net.Node}, nil
	default:
		return asm.Const{}, fmt.Errorf("site %s: constant of kind %s cannot ship", s.cfg.Name, v.Kind)
	}
}

// ingressConst σ-translates an arriving constant: references to this
// site become local heap pointers.
func (s *Site) ingressConst(k asm.Const) (vm.Value, error) {
	if k.IsClass {
		return vm.NetClassVal(vm.NetClass{Name: k.Name, Site: k.Site, Node: k.Node}), nil
	}
	if k.Site == s.cfg.ID && k.Node == s.cfg.NodeID {
		local, ok := s.lookupExport(k.Heap)
		if !ok {
			return vm.Value{}, fmt.Errorf("site %s: incoming code references unknown local heap id %d", s.cfg.Name, k.Heap)
		}
		return vm.Chan(local), nil
	}
	return vm.Net(vm.NetRef{Heap: k.Heap, Site: k.Site, Node: k.Node}), nil
}

// ingressVal σ-translates one arriving value. linked is the placement
// of the accompanying code unit (required for class closures).
func (s *Site) ingressVal(w wire.Value, linked *vm.Linked) (vm.Value, error) {
	switch w.Kind {
	case wire.WInt:
		return vm.Int(w.I), nil
	case wire.WBool:
		return vm.Value{Kind: vm.KBool, I: w.I}, nil
	case wire.WFloat:
		return vm.Float(w.F), nil
	case wire.WStr:
		return vm.Str(w.S), nil
	case wire.WNet:
		if w.Net.Site == s.cfg.ID && w.Net.Node == s.cfg.NodeID {
			local, ok := s.lookupExport(w.Net.Heap)
			if !ok {
				return vm.Value{}, fmt.Errorf("site %s: incoming reference to unknown local heap id %d", s.cfg.Name, w.Net.Heap)
			}
			return vm.Chan(local), nil
		}
		return vm.Net(w.Net), nil
	case wire.WNetClass:
		return vm.NetClassVal(vm.NetClass{Name: w.S, Site: w.Net.Site, Node: w.Net.Node}), nil
	case wire.WClass:
		if linked == nil {
			return vm.Value{}, fmt.Errorf("site %s: class closure arrived without code unit", s.cfg.Name)
		}
		gi, ok := linked.Reloc.Groups[w.Group]
		if !ok {
			return vm.Value{}, fmt.Errorf("site %s: incoming class references missing group %d", s.cfg.Name, w.Group)
		}
		g := &s.prog.Groups[gi]
		if w.Class < 0 || w.Class >= len(g.Classes) {
			return vm.Value{}, fmt.Errorf("site %s: incoming class index %d out of range", s.cfg.Name, w.Class)
		}
		if len(w.Captured) != g.NFree {
			return vm.Value{}, fmt.Errorf("site %s: incoming class has %d captured values, group needs %d", s.cfg.Name, len(w.Captured), g.NFree)
		}
		captured, err := s.ingressVals(nil, w.Captured, linked)
		if err != nil {
			return vm.Value{}, err
		}
		frame := s.m.MakeGroupFrame(gi, captured)
		return frame[g.NFree+w.Class], nil
	default:
		return vm.Value{}, fmt.Errorf("site %s: unknown wire value kind %d", s.cfg.Name, w.Kind)
	}
}

// ingressVals σ-translates ws, appending to dst (see egressVals).
func (s *Site) ingressVals(dst []vm.Value, ws []wire.Value, linked *vm.Linked) ([]vm.Value, error) {
	dst = slices.Grow(dst, len(ws))
	for _, w := range ws {
		v, err := s.ingressVal(w, linked)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// linkCode returns the placement of an object's code, decoding,
// verifying and linking it on the first arrival of its bytes only. A
// later arrival of the same bytes reuses that placement: a unit's
// blocks, tables and constants are fixed by its bytes, ingressConst of
// them gives the same values every time (export ids are never
// renumbered), and the program area is append-only, so a fresh link
// would rebuild exactly the earlier placement. The key is the bytes
// themselves, not a hash of them, so a collision cannot run the wrong
// code.
func (s *Site) linkCode(code []byte) (*vm.Linked, error) {
	if linked, ok := s.linked[string(code)]; ok {
		s.LinkCacheHits++
		return linked, nil
	}
	u, err := asm.Decode(code)
	if err != nil {
		return nil, fmt.Errorf("site %s: rejecting mobile code: %w", s.cfg.Name, err)
	}
	linked, err := s.linkIncoming(u)
	if err != nil {
		return nil, err
	}
	s.remember(string(code), linked)
	return linked, nil
}

// remember adds a linked unit to the link cache.
func (s *Site) remember(code string, linked *vm.Linked) {
	if s.linked == nil {
		s.linked = map[string]*vm.Linked{}
	}
	s.linked[code] = linked
	s.linkOrder = append(s.linkOrder, code)
}

// linkIncoming verifies and links a mobile code unit, translating its
// constants on the way in.
func (s *Site) linkIncoming(u *asm.Unit) (*vm.Linked, error) {
	if err := asm.Verify(u); err != nil {
		return nil, fmt.Errorf("site %s: rejecting mobile code: %w", s.cfg.Name, err)
	}
	if len(u.Imports) != 0 {
		return nil, fmt.Errorf("site %s: mobile code with unresolved imports", s.cfg.Name)
	}
	consts := make([]vm.Value, len(u.Consts))
	for i, k := range u.Consts {
		v, err := s.ingressConst(k)
		if err != nil {
			return nil, err
		}
		consts[i] = v
	}
	linked, err := s.prog.Link(u, nil, consts)
	if err != nil {
		return nil, err
	}
	s.UnitsLinked++
	return linked, nil
}

// classGroups collects the program def-groups referenced by class
// closures inside a frame, so extraction can include their code.
func (s *Site) classGroups(frame []vm.Value, into map[int]bool) {
	for _, v := range frame {
		if v.Kind != vm.KClass {
			continue
		}
		gi, _ := v.ClassID()
		if into[gi] {
			continue
		}
		into[gi] = true
		nfree := s.prog.Groups[gi].NFree
		s.classGroups(v.Frame[:nfree], into)
	}
}

// newOp allocates the next operation identity for an operation bound
// for site dst. Ids count per destination, so each receiver sees this
// site's ops as 1, 2, 3 … (see opSet). The counters are part of the
// checkpoint overlay and their increments replay deterministically, so
// a recovered incarnation re-issues its pre-crash operations with
// identical (site, id) pairs per destination — the receiver-side dedup
// key.
func (s *Site) newOp(dst uint32) wire.OpRef {
	p := s.peer(dst)
	p.nextOp++
	return wire.OpRef{Site: s.cfg.ID, Epoch: s.epoch, ID: p.nextOp}
}

// CurrentTrace returns the mobility trace of the operation being
// routed. With telemetry on, untraced work gets a fresh trace root
// here — the first site boundary an untraced thread crosses is the
// origin of its tree. Must run on the site goroutine; every Route*
// call does (VM egress and apply-time replies are both synchronous).
func (s *Site) CurrentTrace() uint64 {
	tr := s.m.Ambient()
	if tr != 0 || s.tel == nil {
		return tr
	}
	tr = s.tel.NextTrace()
	if tr == 0 { // tracing not enabled on this node
		return 0
	}
	s.m.AdoptTrace(tr)
	s.tel.Origin(tr, s.cfg.ID)
	return tr
}

// CurrentDeadline returns the absolute deadline (unix micros, 0 =
// none) for the operation being routed: the deadline of the delivery
// being applied when there is one (end-to-end propagation), else a
// fresh now+OpDeadline budget when the site stamps origins. Must run
// on the site goroutine, like CurrentTrace.
func (s *Site) CurrentDeadline() uint64 {
	if s.curDeadline != 0 {
		return s.curDeadline
	}
	if s.cfg.OpDeadline > 0 {
		return uint64(time.Now().Add(s.cfg.OpDeadline).UnixMicro())
	}
	return 0
}

// RemoteSend implements rule SHIPM: package the message with
// σ-translated arguments and hand it to the outgoing queue. args is a
// view of the sender's operand stack; its translation lives in the
// site's scratch buffer only for the duration of RouteMsg, which
// encodes it (or, for a same-node destination, copies it).
func (s *Site) RemoteSend(ref vm.NetRef, label string, args []vm.Value) error {
	ws, err := s.egressVals(s.egress[:0], args, nil)
	if err != nil {
		return err
	}
	s.countSent(ref.Node)
	err = s.cfg.Router.RouteMsg(s, s.newOp(ref.Site), ref, label, ws)
	clear(ws)
	s.egress = ws
	return err
}

// RemoteObj implements rule SHIPO: extract the object's code
// (method-table closure plus any class groups captured in its frame),
// σ-translate the frame, and ship both.
func (s *Site) RemoteObj(ref vm.NetRef, table int, frame []vm.Value) error {
	ex, err := s.extractObj(table, frame)
	if err != nil {
		return err
	}
	wf, err := s.egressVals(nil, frame, ex.reloc)
	if err != nil {
		return err
	}
	s.countSent(ref.Node)
	return s.cfg.Router.RouteObj(s, s.newOp(ref.Site), ref, ex.unit, ex.reloc.Tables[table], wf)
}

// extractKey names one object extraction: the method table and the
// class groups captured in the frame, sorted and packed as uvarints
// ("" when the frame captures no class).
type extractKey struct {
	table  int
	groups string
}

// extraction is a memoised extraction: the shippable unit, with its
// encoding set, and the program → unit relocation.
type extraction struct {
	unit  *asm.Unit
	reloc *asm.Relocation
}

// extractObj returns the unit an object ships as, extracting and
// encoding it once per (table, groups). Extraction is a function of
// the program area, which is append-only, and of the export table,
// whose ids are never renumbered; the one input that does change is a
// pending import, and an extraction over one fails (egressConst
// refuses it) and is not remembered. The root groups are sorted so
// that the extraction, and the key, do not depend on map order: a
// replayed incarnation, which starts with an empty memo, must
// re-extract the same bytes.
func (s *Site) extractObj(table int, frame []vm.Value) (extraction, error) {
	key := extractKey{table: table}
	var rootGroups []int
	if slices.ContainsFunc(frame, func(v vm.Value) bool { return v.Kind == vm.KClass }) {
		groups := map[int]bool{}
		s.classGroups(frame, groups)
		rootGroups = sortedKeys(groups)
		var packed []byte
		for _, g := range rootGroups {
			packed = binary.AppendUvarint(packed, uint64(g))
		}
		key.groups = string(packed)
	}
	if ex, ok := s.extracted[key]; ok {
		return ex, nil
	}
	unit, reloc, err := s.prog.Extract([]int{table}, rootGroups, s.egressConst)
	if err != nil {
		return extraction{}, err
	}
	unit.Encoded = asm.Encode(unit)
	ex := extraction{unit: unit, reloc: reloc}
	if s.extracted == nil {
		s.extracted = map[extractKey]extraction{}
	}
	s.extracted[key] = ex
	return ex, nil
}

// RemoteInst implements rule FETCH from the requesting side: resolve
// locally when possible (the class came home, or we fetched it
// before), otherwise request the byte-code from the owning site and
// park the instantiation.
func (s *Site) RemoteInst(class vm.NetClass, args []vm.Value) error {
	// Dynamic arity check against the signature registered by the
	// exporter (the other half of the paper's checking scheme).
	if sig, ok := s.classSigs[class]; ok {
		if err := types.CheckClassCompatible(len(args), sig); err != nil {
			return err
		}
	} else if sig, ok := s.expClassSigs[class.Name]; ok && class.Site == s.cfg.ID {
		if err := types.CheckClassCompatible(len(args), sig); err != nil {
			return err
		}
	}
	if class.Site == s.cfg.ID && class.Node == s.cfg.NodeID {
		// The class is ours: instantiate directly.
		v, ok := s.expNames[class.Name]
		if !ok {
			return fmt.Errorf("site %s: instantiation of unknown local class %q", s.cfg.Name, class.Name)
		}
		return s.m.Instantiate(v, args)
	}
	if !s.cfg.DisableFetchCache {
		if v, ok := s.fetchCache[class]; ok {
			s.FetchCacheHits++
			return s.m.Instantiate(v, args)
		}
	}
	// The instantiation parks until the code arrives: args is a view of
	// the caller's operand stack, so the parked call keeps a copy.
	args = slices.Clone(args)
	// Coalesce with an in-flight fetch of the same class.
	if id, ok := s.fetchByClass[class]; ok {
		p := s.pendingFetch[id]
		p.calls = append(p.calls, args)
		return nil
	}
	s.nextReq++
	id := s.nextReq
	s.pendingFetch[id] = &fetchPending{class: class, calls: [][]vm.Value{args}}
	s.fetchByClass[class] = id
	s.countSent(class.Node)
	return s.cfg.Router.RouteFetch(s, s.newOp(class.Site), Addr{Site: class.Site, Node: class.Node}, class.Name, id)
}

// serveFetch answers a class-code request: extract the class's group
// closure, σ-translate its captured values, reply.
func (s *Site) serveFetch(f *FetchDelivery) error {
	fail := func(msg string) error {
		s.countSent(f.Reply.Node)
		return s.cfg.Router.RouteFetchRep(s, s.newOp(f.Reply.Site), f.Reply, &FetchRepDelivery{ReqID: f.ReqID, Err: msg})
	}
	if s.cfg.Overloaded != nil && s.cfg.Overloaded() {
		// Admission pushback: code extraction is the expensive part of
		// serving a fetch, and the requester can retry — so under
		// overload the cheap retryable refusal ships instead.
		return fail(overloadedFetch)
	}
	v, ok := s.expNames[f.Class]
	if !ok || v.Kind != vm.KClass {
		return fail(fmt.Sprintf("site %s exports no class %q", s.cfg.Name, f.Class))
	}
	gi, ci := v.ClassID()
	nfree := s.prog.Groups[gi].NFree
	captured := v.Frame[:nfree]
	groups := map[int]bool{gi: true}
	s.classGroups(captured, groups)
	// Sorted for the same reason as in extractObj: replayed extractions
	// must be byte-identical.
	unit, reloc, err := s.prog.Extract(nil, sortedKeys(groups), s.egressConst)
	if err != nil {
		return fail(err.Error())
	}
	wc, err := s.egressVals(nil, captured, reloc)
	if err != nil {
		return fail(err.Error())
	}
	s.countSent(f.Reply.Node)
	return s.cfg.Router.RouteFetchRep(s, s.newOp(f.Reply.Site), f.Reply, &FetchRepDelivery{
		ReqID:    f.ReqID,
		Class:    f.Class,
		Unit:     unit,
		Group:    reloc.Groups[gi],
		Index:    ci,
		Captured: wc,
	})
}

// handleFetchRep links arriving class code and runs the parked
// instantiations.
func (s *Site) handleFetchRep(rep *FetchRepDelivery) error {
	p, ok := s.pendingFetch[rep.ReqID]
	if !ok {
		return nil // duplicate or stale reply
	}
	if rep.Err == overloadedFetch {
		// The owner pushed back: keep the pending entry (parked
		// instantiations stay parked, later calls keep coalescing) and
		// re-issue the request after a jittered backoff. The delay
		// grows with each pushback so a congested owner sees a
		// thinning retry stream, not a synchronized hammering.
		delay := backoff.Policy{Initial: 5 * time.Millisecond, Max: 250 * time.Millisecond}.
			Step(p.retries, &s.fetchRng)
		p.retries++
		id := rep.ReqID
		time.AfterFunc(delay, func() {
			// Ignore the error: a stopped site has no fetch to retry.
			_ = s.Deliver(Delivery{Refetch: &RefetchDelivery{ReqID: id}})
		})
		return nil
	}
	delete(s.pendingFetch, rep.ReqID)
	delete(s.fetchByClass, p.class)
	if rep.Err != "" {
		return fmt.Errorf("site %s: fetch of %s failed: %s", s.cfg.Name, p.class, rep.Err)
	}
	linked, err := s.linkIncoming(rep.Unit)
	if err != nil {
		return err
	}
	gi, ok := linked.Reloc.Groups[rep.Group]
	if !ok {
		return fmt.Errorf("site %s: fetched unit missing group %d", s.cfg.Name, rep.Group)
	}
	g := &s.prog.Groups[gi]
	if rep.Index < 0 || rep.Index >= len(g.Classes) {
		return fmt.Errorf("site %s: fetched class index %d out of range", s.cfg.Name, rep.Index)
	}
	captured, err := s.ingressVals(nil, rep.Captured, linked)
	if err != nil {
		return err
	}
	frame := s.m.MakeGroupFrame(gi, captured)
	class := frame[g.NFree+rep.Index]
	if !s.cfg.DisableFetchCache {
		s.fetchCache[p.class] = class
	}
	s.ClassesFetched++
	for _, args := range p.calls {
		if err := s.m.Instantiate(class, args); err != nil {
			return err
		}
	}
	return nil
}

// refetch re-issues a class-code request that was pushed back by an
// overloaded owner. The pending entry survived the pushback, so the
// reply (whenever the owner admits it) finds the parked instantiations
// exactly where the first attempt left them. A fresh op identity is
// used — the owner's dedup map already holds the old one as applied.
func (s *Site) refetch(reqID uint64) error {
	p, ok := s.pendingFetch[reqID]
	if !ok {
		return nil // resolved (or site recovered) while the timer ran
	}
	s.fetchRetries.Add(1)
	s.countSent(p.class.Node)
	return s.cfg.Router.RouteFetch(s, s.newOp(p.class.Site), Addr{Site: p.class.Site, Node: p.class.Node}, p.class.Name, reqID)
}

// ExportName implements the export instruction for names: allocate a
// network reference and register it with the name service.
func (s *Site) ExportName(name string, v vm.Value) error {
	if v.Kind != vm.KChan {
		return fmt.Errorf("site %s: export %q: not a local channel", s.cfg.Name, name)
	}
	s.expNames[name] = v
	heap := s.exportID(int(v.I))
	sig := s.expNameSigs[name]
	// Registration is asynchronous: importers block at the name
	// service, not here, and the VM keeps running.
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ImportTimeout)
		defer cancel()
		if err := s.cfg.NS.RegisterName(ctx, s.cfg.Name, name, heap, sig); err != nil {
			s.setErr(fmt.Errorf("site %s: register name %q: %w", s.cfg.Name, name, err))
		}
	}()
	return nil
}

// ExportClass implements the export instruction for classes.
func (s *Site) ExportClass(name string, v vm.Value) error {
	if v.Kind != vm.KClass {
		return fmt.Errorf("site %s: export class %q: not a class closure", s.cfg.Name, name)
	}
	s.expNames[name] = v
	sig := s.expClassSigs[name]
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ImportTimeout)
		defer cancel()
		if err := s.cfg.NS.RegisterClass(ctx, s.cfg.Name, name, sig); err != nil {
			s.setErr(fmt.Errorf("site %s: register class %q: %w", s.cfg.Name, name, err))
		}
	}()
	return nil
}
