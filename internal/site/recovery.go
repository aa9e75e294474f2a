// Crash recovery for sites: the write-ahead journal records, the
// checkpoint overlay, and the deterministic replay that rebuilds a
// crashed site's exact state under a new epoch (DESIGN.md §9).
//
// The protocol in one paragraph: a site journals its program when it
// loads, every delivery it handles (stamped with the machine's
// context-switch count at handling time), and — via the node, before
// the transport acknowledgement — every mobility operation accepted on
// its behalf. Periodically, at a stable idle point, the log is
// compacted to a snapshot of the machine plus the site overlay.
// Recovery restores the last checkpoint (or re-links the recorded
// program), replays each journaled delivery at exactly the recorded
// context-switch count, runs the machine to quiescence to reproduce
// the sends past the last record (receivers deduplicate the re-sent
// operations by (site, id)), applies accepted-but-unapplied
// operations through the normal path, re-registers exports under the
// incremented epoch, and respawns resolvers for still-pending imports.
package site

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/journal"
	"repro/internal/vm"
	"repro/internal/wire"
)

// Journal record kinds. The payload formats are private to this file;
// the journal package stores them opaquely.
const (
	// RecProgram: the site's identity and linked program unit — enough
	// to rebuild the site from nothing.
	RecProgram journal.Kind = 1
	// RecEpoch: an incarnation number; appended at first load and at
	// every supervised restart. The live epoch is the maximum.
	RecEpoch journal.Kind = 2
	// RecDelivery: one handled delivery, stamped with the machine's
	// context-switch count at handling time (the replay alignment).
	RecDelivery journal.Kind = 3
	// RecAccepted: a mobility operation the node accepted (and
	// acknowledged) for this site — possibly not yet handled.
	RecAccepted journal.Kind = 4
	// RecCheckpoint: a full machine + site-overlay snapshot; compaction
	// drops everything the snapshot covers.
	RecCheckpoint journal.Kind = 5
)

// resolvedKind tags a Resolved delivery in a RecDelivery record; the
// four mobility kinds reuse their wire.FrameType values.
const resolvedKind byte = 0

// Journal is the site-side handle on a journal.Store. It serializes
// the site's appends and compactions against the node's accepted-op
// appends: compaction reads and atomically replaces the log under the
// same lock the node appends under, so an operation accepted during
// compaction cannot be lost.
type Journal struct {
	mu       sync.Mutex
	st       journal.Store
	scratch  []byte // reused accepted-record encode buffer, guarded by mu
	onAppend func() // telemetry hook, invoked after successful appends
	appends  atomic.Uint64
}

// Appends reports how many records were appended through this handle
// (the journal "position" /statusz exposes; compaction does not reset
// it, so the counter stays monotone across checkpoints).
func (j *Journal) Appends() uint64 { return j.appends.Load() }

// SetOnAppend installs a hook called after every successful record
// append (the node points it at the telemetry journal counter).
func (j *Journal) SetOnAppend(f func()) {
	j.mu.Lock()
	j.onAppend = f
	j.mu.Unlock()
}

// NewJournal wraps a store.
func NewJournal(st journal.Store) *Journal { return &Journal{st: st} }

// Append adds one record.
func (j *Journal) Append(k journal.Kind, data []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.st.Append(journal.Record{Kind: k, Data: data}); err != nil {
		return err
	}
	j.appends.Add(1)
	if j.onAppend != nil {
		j.onAppend()
	}
	return nil
}

// AppendAccepted logs a RecAccepted record, encoding it into a buffer
// reused across calls — this sits on the pre-ack path of every
// mobility frame, so it must not allocate per operation. The encoding
// matches EncodeAccepted byte for byte (stores copy what they keep).
func (j *Journal) AppendAccepted(t wire.FrameType, srcNode uint32, payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	b := append(j.scratch[:0], byte(t))
	b = binary.AppendUvarint(b, uint64(srcNode))
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	j.scratch = b
	if err := j.st.Append(journal.Record{Kind: RecAccepted, Data: b}); err != nil {
		return err
	}
	j.appends.Add(1)
	if j.onAppend != nil {
		j.onAppend()
	}
	return nil
}

// Records returns the current log.
func (j *Journal) Records() ([]journal.Record, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.Records()
}

// Compact atomically rewrites the log: build receives the current
// records and returns their replacement. No append can interleave.
func (j *Journal) Compact(build func(old []journal.Record) ([]journal.Record, error)) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	old, err := j.st.Records()
	if err != nil {
		return err
	}
	fresh, err := build(old)
	if err != nil {
		return err
	}
	return j.st.Replace(fresh)
}

// Close releases the underlying store.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.Close()
}

// ---------------------------------------------------------- records

// EncodeEpoch builds a RecEpoch payload.
func EncodeEpoch(epoch uint32) []byte {
	var w wire.Writer
	w.U(uint64(epoch))
	return w.Bytes()
}

func decodeEpoch(data []byte) (uint32, error) {
	r := wire.NewReader(data)
	e, err := r.U()
	return uint32(e), err
}

// EncodeAccepted builds a RecAccepted payload from an envelope's
// pieces (the node calls this from the transport's accept hook).
func EncodeAccepted(t wire.FrameType, srcNode uint32, payload []byte) []byte {
	var w wire.Writer
	w.Byte(byte(t))
	w.U(uint64(srcNode))
	w.B(payload)
	return w.Bytes()
}

func decodeAccepted(data []byte) (wire.FrameType, uint32, []byte, error) {
	r := wire.NewReader(data)
	t, err := r.Byte()
	if err != nil {
		return 0, 0, nil, err
	}
	src, err := r.U()
	if err != nil {
		return 0, 0, nil, err
	}
	payload, err := r.B()
	if err != nil {
		return 0, 0, nil, err
	}
	return wire.FrameType(t), uint32(src), payload, nil
}

// programRecord is the decoded RecProgram payload.
type programRecord struct {
	name       string
	siteID     uint32
	nodeID     uint32
	unit       *asm.Unit
	nameSigs   map[string]string
	classSigs  map[string]string
	importSigs []string // aligned with unit.Imports
}

func encodeProgramRecord(w *wire.Writer, name string, siteID, nodeID uint32, unit *asm.Unit, nameSigs, classSigs map[string]string, importSigs []string) {
	w.S(name)
	w.U(uint64(siteID))
	w.U(uint64(nodeID))
	w.B(asm.Encode(unit))
	encodeStringMap(w, nameSigs)
	encodeStringMap(w, classSigs)
	w.U(uint64(len(importSigs)))
	for _, s := range importSigs {
		w.S(s)
	}
}

func decodeProgramRecord(data []byte) (*programRecord, error) {
	r := wire.NewReader(data)
	p := &programRecord{}
	var err error
	if p.name, err = r.S(); err != nil {
		return nil, err
	}
	sid, err := r.U()
	if err != nil {
		return nil, err
	}
	nid, err := r.U()
	if err != nil {
		return nil, err
	}
	p.siteID, p.nodeID = uint32(sid), uint32(nid)
	ub, err := r.B()
	if err != nil {
		return nil, err
	}
	if p.unit, err = asm.Decode(ub); err != nil {
		return nil, err
	}
	if p.nameSigs, err = decodeStringMap(r); err != nil {
		return nil, err
	}
	if p.classSigs, err = decodeStringMap(r); err != nil {
		return nil, err
	}
	n, err := r.U()
	if err != nil {
		return nil, err
	}
	p.importSigs = make([]string, n)
	for i := range p.importSigs {
		if p.importSigs[i], err = r.S(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func encodeStringMap(w *wire.Writer, m map[string]string) {
	keys := sortedKeys(m)
	w.U(uint64(len(keys)))
	for _, k := range keys {
		w.S(k)
		w.S(m[k])
	}
}

func decodeStringMap(r *wire.Reader) (map[string]string, error) {
	n, err := r.U()
	if err != nil {
		return nil, err
	}
	m := make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		k, err := r.S()
		if err != nil {
			return nil, err
		}
		v, err := r.S()
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}

// deliveryRecord is a decoded RecDelivery payload: the machine's
// context-switch count at handling time, plus the delivery itself in
// wire form.
type deliveryRecord struct {
	steps uint64
	src   uint32
	kind  byte
	body  []byte
}

// encodeDelivery turns one handled delivery into a RecDelivery
// payload. Mobility deliveries reuse the wire payload codecs;
// Resolved uses a private format (the resolved value is post-ingress,
// so only channel/net/net-class kinds occur). The body is encoded into
// one scratch writer and framed into the other; the result is valid
// until the next call (the store copies what it keeps), so a journaled
// delivery costs the store's copy and nothing else.
func (s *Site) encodeDelivery(d Delivery) ([]byte, error) {
	var kind byte
	b := &s.recBody
	b.Reset()
	self := vm.NetRef{Site: s.cfg.ID, Node: s.cfg.NodeID}
	switch {
	case d.Msg != nil:
		kind = byte(wire.FMsg)
		to := self
		to.Heap = d.Msg.Heap
		(&wire.Msg{Op: d.Op, To: to, Label: d.Msg.Label, Args: d.Msg.Args}).AppendPayload(b)
	case d.Obj != nil:
		kind = byte(wire.FObj)
		to := self
		to.Heap = d.Obj.Heap
		(&wire.Obj{Op: d.Op, To: to, Unit: d.Obj.Code, Table: d.Obj.Table, Frame: d.Obj.Frame}).AppendPayload(b)
	case d.Fetch != nil:
		kind = byte(wire.FFetchReq)
		(&wire.FetchReq{
			Op: d.Op, Class: d.Fetch.Class, OwnerSite: s.cfg.ID, ReqID: d.Fetch.ReqID,
			ReplySite: d.Fetch.Reply.Site, ReplyNode: d.Fetch.Reply.Node,
		}).AppendPayload(b)
	case d.FetchRep != nil:
		rep := d.FetchRep
		var ub []byte
		if rep.Unit != nil {
			ub = asm.Encode(rep.Unit)
		}
		kind = byte(wire.FFetchRep)
		(&wire.FetchRep{
			Op: d.Op, ReqID: rep.ReqID, DstSite: s.cfg.ID, Err: rep.Err, Class: rep.Class,
			Unit: ub, Group: rep.Group, Index: rep.Index, Captured: rep.Captured,
		}).AppendPayload(b)
	case d.Resolved != nil:
		kind = resolvedKind
		b.U(uint64(d.Resolved.ConstIdx))
		b.S(d.Resolved.ClassSig)
		encodeResolvedValue(b, d.Resolved.Value)
	default:
		return nil, fmt.Errorf("site %s: journal: empty delivery", s.cfg.Name)
	}
	w := &s.recHdr
	w.Reset()
	w.U(s.m.Stats.ContextSwitches)
	w.U(uint64(d.Src))
	w.Byte(kind)
	w.B(b.Bytes())
	return w.Bytes(), nil
}

func decodeDeliveryRecord(data []byte) (*deliveryRecord, error) {
	r := wire.NewReader(data)
	steps, err := r.U()
	if err != nil {
		return nil, err
	}
	src, err := r.U()
	if err != nil {
		return nil, err
	}
	kind, err := r.Byte()
	if err != nil {
		return nil, err
	}
	body, err := r.B()
	if err != nil {
		return nil, err
	}
	return &deliveryRecord{steps: steps, src: uint32(src), kind: kind, body: body}, nil
}

// delivery rebuilds the Delivery a record describes.
func (rec *deliveryRecord) delivery() (Delivery, error) {
	if rec.kind == resolvedKind {
		r := wire.NewReader(rec.body)
		idx, err := r.U()
		if err != nil {
			return Delivery{}, err
		}
		sig, err := r.S()
		if err != nil {
			return Delivery{}, err
		}
		v, err := decodeResolvedValue(r)
		if err != nil {
			return Delivery{}, err
		}
		return Delivery{Src: rec.src, Resolved: &ResolvedImport{ConstIdx: int(idx), Value: v, ClassSig: sig}}, nil
	}
	d, _, err := DecodePayload(wire.FrameType(rec.kind), rec.src, rec.body)
	return d, err
}

// encodeResolvedValue serializes a resolved import value. Resolution
// is post-σ-ingress, so only local channels, network references and
// network classes occur.
func encodeResolvedValue(w *wire.Writer, v vm.Value) {
	w.Byte(byte(v.Kind))
	switch v.Kind {
	case vm.KChan:
		w.U(uint64(v.I))
	case vm.KNet:
		w.U(uint64(v.Net.Heap))
		w.U(uint64(v.Net.Site))
		w.U(uint64(v.Net.Node))
	case vm.KNetClass:
		w.S(v.S)
		w.U(uint64(v.Net.Site))
		w.U(uint64(v.Net.Node))
	}
}

func decodeResolvedValue(r *wire.Reader) (vm.Value, error) {
	k, err := r.Byte()
	if err != nil {
		return vm.Value{}, err
	}
	switch vm.Kind(k) {
	case vm.KChan:
		i, err := r.U()
		return vm.Chan(int(i)), err
	case vm.KNet:
		h, err := r.U()
		if err != nil {
			return vm.Value{}, err
		}
		st, err := r.U()
		if err != nil {
			return vm.Value{}, err
		}
		nd, err := r.U()
		return vm.Net(vm.NetRef{Heap: uint32(h), Site: uint32(st), Node: uint32(nd)}), err
	case vm.KNetClass:
		s, err := r.S()
		if err != nil {
			return vm.Value{}, err
		}
		st, err := r.U()
		if err != nil {
			return vm.Value{}, err
		}
		nd, err := r.U()
		return vm.NetClassVal(vm.NetClass{Name: s, Site: uint32(st), Node: uint32(nd)}), err
	default:
		return vm.Value{}, fmt.Errorf("site: journal: resolved value of kind %d", k)
	}
}

// DecodePayload decodes one mobility wire payload into a Delivery,
// returning the destination site id alongside. The node's dispatcher
// and journal replay share it.
func DecodePayload(t wire.FrameType, srcNode uint32, payload []byte) (Delivery, uint32, error) {
	switch t {
	case wire.FMsg:
		var m wire.Msg
		if err := wire.DecodeMsgInto(&m, payload); err != nil {
			return Delivery{}, 0, err
		}
		return Delivery{Src: srcNode, Op: m.Op, Msg: &MsgDelivery{Heap: m.To.Heap, Label: m.Label, Args: m.Args}}, m.To.Site, nil
	case wire.FObj:
		// The code stays bytes (sub-slicing payload): the site decodes
		// it only if it has not linked the same bytes before.
		var o wire.Obj
		if err := wire.DecodeObjInto(&o, payload); err != nil {
			return Delivery{}, 0, err
		}
		return Delivery{Src: srcNode, Op: o.Op, Obj: &ObjDelivery{Heap: o.To.Heap, Code: o.Unit, Table: o.Table, Frame: o.Frame}}, o.To.Site, nil
	case wire.FFetchReq:
		f, err := wire.DecodeFetchReq(payload)
		if err != nil {
			return Delivery{}, 0, err
		}
		return Delivery{Src: srcNode, Op: f.Op, Fetch: &FetchDelivery{
			Class: f.Class, ReqID: f.ReqID,
			Reply: Addr{Site: f.ReplySite, Node: f.ReplyNode},
		}}, f.OwnerSite, nil
	case wire.FFetchRep:
		f, err := wire.DecodeFetchRep(payload)
		if err != nil {
			return Delivery{}, 0, err
		}
		var u *asm.Unit
		if f.Err == "" {
			if u, err = asm.Decode(f.Unit); err != nil {
				return Delivery{}, 0, fmt.Errorf("fetched class: %w", err)
			}
		}
		return Delivery{Src: srcNode, Op: f.Op, FetchRep: &FetchRepDelivery{
			ReqID: f.ReqID, Err: f.Err, Class: f.Class,
			Unit: u, Group: f.Group, Index: f.Index, Captured: f.Captured,
		}}, f.DstSite, nil
	default:
		return Delivery{}, 0, fmt.Errorf("site: payload of frame type %s", t)
	}
}

// ------------------------------------------------------ loaded logs

// acceptedRecord is a decoded RecAccepted payload.
type acceptedRecord struct {
	t       wire.FrameType
	srcNode uint32
	payload []byte
}

// RecoveredLog is a parsed journal, ready to drive a restart.
type RecoveredLog struct {
	prog       *programRecord
	epoch      uint32 // highest recorded incarnation
	checkpoint []byte // last snapshot, nil if none
	deliveries []*deliveryRecord
	accepted   []*acceptedRecord
}

// SiteID returns the recorded site identifier.
func (l *RecoveredLog) SiteID() uint32 { return l.prog.siteID }

// SiteName returns the recorded site name.
func (l *RecoveredLog) SiteName() string { return l.prog.name }

// Epoch returns the highest incarnation number in the log.
func (l *RecoveredLog) Epoch() uint32 { return l.epoch }

// LoadJournal parses a site's journal. Deliveries before the last
// checkpoint are dropped (the snapshot covers them); accepted records
// are kept in order and filtered against the applied set at replay.
func LoadJournal(j *Journal) (*RecoveredLog, error) {
	recs, err := j.Records()
	if err != nil {
		return nil, err
	}
	l := &RecoveredLog{}
	for _, rec := range recs {
		switch rec.Kind {
		case RecProgram:
			p, err := decodeProgramRecord(rec.Data)
			if err != nil {
				return nil, fmt.Errorf("site: journal program record: %w", err)
			}
			l.prog = p
		case RecEpoch:
			e, err := decodeEpoch(rec.Data)
			if err != nil {
				return nil, fmt.Errorf("site: journal epoch record: %w", err)
			}
			if e > l.epoch {
				l.epoch = e
			}
		case RecDelivery:
			d, err := decodeDeliveryRecord(rec.Data)
			if err != nil {
				return nil, fmt.Errorf("site: journal delivery record: %w", err)
			}
			l.deliveries = append(l.deliveries, d)
		case RecAccepted:
			t, src, payload, err := decodeAccepted(rec.Data)
			if err != nil {
				return nil, fmt.Errorf("site: journal accepted record: %w", err)
			}
			l.accepted = append(l.accepted, &acceptedRecord{t: t, srcNode: src, payload: payload})
		case RecCheckpoint:
			l.checkpoint = rec.Data
			l.deliveries = nil // covered by the snapshot
		default:
			return nil, fmt.Errorf("site: journal record of unknown kind %d", rec.Kind)
		}
	}
	if l.prog == nil {
		return nil, fmt.Errorf("site: journal has no program record")
	}
	return l, nil
}

// ------------------------------------------------------- checkpoint

// maybeCheckpoint compacts the journal to a snapshot when the site is
// at a stable idle point and enough deliveries accumulated. Stable
// means: run-queue empty, no thread parked on an import, no fetch in
// flight — everything the snapshot skips is provably absent.
//
// The returned flag is true when a checkpoint is due and the site is
// stable but the transport gate refused it (outbound frames still
// unacked). That is the one blocker that clears without this site
// receiving anything — the caller should re-poll shortly instead of
// blocking until the next delivery, or a site that always has one
// request in flight would never compact.
func (s *Site) maybeCheckpoint() (gated bool) {
	if s.jl == nil || s.sinceCkpt < s.cfg.CheckpointEvery {
		return false
	}
	if !s.m.Idle() || len(s.waiting) != 0 || len(s.pendingFetch) != 0 {
		return false
	}
	if s.cfg.CheckpointGate != nil && !s.cfg.CheckpointGate() {
		return true
	}
	var start time.Time
	if s.tel != nil {
		start = time.Now()
	}
	if err := s.checkpoint(); err != nil {
		s.setErr(fmt.Errorf("site %s: checkpoint: %w", s.cfg.Name, err))
		return false
	}
	if s.tel != nil {
		s.tel.ObserveCheckpoint(time.Since(start))
	}
	s.sinceCkpt = 0
	s.Checkpoints++
	return false
}

// checkpoint snapshots machine + overlay and compacts the journal down
// to [program, epoch, checkpoint, accepted-but-unapplied...].
func (s *Site) checkpoint() error {
	w := vm.NewSnapWriter()
	s.m.EncodeSnapshot(w)
	s.encodeOverlay(w)
	snap := w.Finish()
	return s.jl.Compact(func(old []journal.Record) ([]journal.Record, error) {
		fresh := make([]journal.Record, 0, 8)
		for _, rec := range old {
			if rec.Kind == RecProgram {
				fresh = append(fresh, rec)
				break
			}
		}
		fresh = append(fresh,
			journal.Record{Kind: RecEpoch, Data: EncodeEpoch(s.epoch)},
			journal.Record{Kind: RecCheckpoint, Data: snap},
		)
		for _, rec := range old {
			if rec.Kind != RecAccepted {
				continue
			}
			_, _, payload, err := decodeAccepted(rec.Data)
			if err != nil {
				return nil, err
			}
			op, _, err := wire.PeekOp(payload)
			if err != nil {
				return nil, err
			}
			if !s.appliedOp(op) {
				fresh = append(fresh, rec)
			}
		}
		return fresh, nil
	})
}

// encodeOverlay appends the site's own state to a machine snapshot.
// A checkpoint of a given state must be byte-identical regardless of
// map layout, so replayed incarnations compact to comparable logs:
// the state that grows with traffic is kept in order already (the
// export table by id, applied ids as ranges) and is written as it
// stands; only the small maps — one entry per name, class or peer,
// never per message — are iterated through sorted keys.
func (s *Site) encodeOverlay(w *vm.SnapWriter) {
	s.expMu.Lock()
	// The export table in id order; a channel as its distance from the
	// previous id's (reply channels are exported as they are made, so
	// the distances are small).
	w.U(uint64(len(s.expRev)))
	prev := 0
	for _, c := range s.expRev {
		w.V(int64(c - prev))
		prev = c
	}
	s.expMu.Unlock()

	names := sortedKeys(s.expNames)
	w.U(uint64(len(names)))
	for _, k := range names {
		w.S(k)
		w.Value(s.expNames[k])
	}
	writeStringMap(w, s.expNameSigs)
	writeStringMap(w, s.expClassSigs)

	ncs := sortedNetClasses(s.classSigs)
	w.U(uint64(len(ncs)))
	for _, nc := range ncs {
		writeNetClass(w, nc)
		w.S(s.classSigs[nc])
	}

	fcs := sortedNetClasses(s.fetchCache)
	w.U(uint64(len(fcs)))
	for _, nc := range fcs {
		writeNetClass(w, nc)
		w.Value(s.fetchCache[nc])
	}

	// The link cache in link order: each unit's bytes and the placement
	// its link got (unit, entry, then where its tables and groups went —
	// all a later arrival of the same bytes needs).
	w.U(uint64(len(s.linkOrder)))
	for _, code := range s.linkOrder {
		l := s.linked[code]
		w.S(code)
		w.U(uint64(l.Unit))
		w.V(int64(l.Entry))
		writePlacements(w, l.Reloc.Tables)
		writePlacements(w, l.Reloc.Groups)
	}

	w.U(s.nextReq)

	w.U(uint64(len(s.peers)))
	for _, st := range sortedKeys(s.peers) {
		p := s.peers[st]
		w.U(uint64(st))
		w.U(p.nextOp)
		w.U(uint64(p.maxEpoch))
		p.applied.encode(w)
	}

	w.U(s.ctrlSent.Load())
	w.U(s.ctrlRecv.Load())
	s.ctrlMu.Lock()
	writeU64Map(w, s.sentTo)
	writeU64Map(w, s.recvFrom)
	s.ctrlMu.Unlock()

	w.U(s.UnitsLinked)
	w.U(s.ClassesFetched)
	w.U(s.FetchCacheHits)
	w.U(s.LinkCacheHits)
	w.U(s.DupDrops)
	w.U(s.StaleDrops)

	idxs := sortedKeys(s.pendingImports)
	w.U(uint64(len(idxs)))
	for _, i := range idxs {
		pi := s.pendingImports[i]
		w.V(int64(i))
		w.S(pi.imp.Site)
		w.S(pi.imp.Name)
		w.Bool(pi.imp.IsClass)
		w.S(pi.sig)
	}
}

// decodeOverlay restores the site state written by encodeOverlay.
func (s *Site) decodeOverlay(r *vm.SnapReader) error {
	s.expMu.Lock()
	n := r.Count("exports")
	s.exp, s.expRev = nil, make([]int, 0, n)
	for i, c := 0, 0; i < n; i++ {
		c += int(r.V())
		if c < 0 || c >= s.m.HeapSize() || (c < len(s.exp) && s.exp[c] != 0) {
			s.expMu.Unlock()
			return fmt.Errorf("site: checkpoint: export %d names channel %d: outside the heap or exported twice", i+1, c)
		}
		s.addExport(c)
	}
	s.expMu.Unlock()

	s.expNames = map[string]vm.Value{}
	for i, n := 0, r.Count("expNames"); i < n; i++ {
		k := r.S()
		s.expNames[k] = r.Value()
	}
	s.expNameSigs = readStringMap(r, "expNameSigs")
	s.expClassSigs = readStringMap(r, "expClassSigs")

	s.classSigs = map[vm.NetClass]string{}
	for i, n := 0, r.Count("classSigs"); i < n; i++ {
		nc := readNetClass(r)
		s.classSigs[nc] = r.S()
	}
	s.fetchCache = map[vm.NetClass]vm.Value{}
	for i, n := 0, r.Count("fetchCache"); i < n; i++ {
		nc := readNetClass(r)
		s.fetchCache[nc] = r.Value()
	}

	s.linked, s.linkOrder = nil, nil
	for i, n := 0, r.Count("linked units"); i < n; i++ {
		code := r.S()
		l := &vm.Linked{Unit: int(r.U()), Entry: int(r.V()), Reloc: &asm.Relocation{
			Tables: readPlacements(r, "linked tables"),
			Groups: readPlacements(r, "linked groups"),
		}}
		if err := s.checkPlacement(l); err != nil {
			return fmt.Errorf("site: checkpoint: linked unit %d: %w", i, err)
		}
		if _, dup := s.linked[code]; dup {
			return fmt.Errorf("site: checkpoint: linked unit %d repeats an earlier one", i)
		}
		s.remember(code, l)
	}

	s.nextReq = r.U()

	s.peers = map[uint32]*peerOps{}
	for i, n := 0, r.Count("peers"); i < n; i++ {
		st := uint32(r.U())
		p := &peerOps{nextOp: r.U(), maxEpoch: uint32(r.U())}
		if err := p.applied.decode(r); err != nil {
			return err
		}
		s.peers[st] = p
	}

	s.ctrlSent.Store(r.U())
	s.ctrlRecv.Store(r.U())
	s.ctrlMu.Lock()
	s.sentTo = readU64Map(r, "sentTo")
	s.recvFrom = readU64Map(r, "recvFrom")
	s.ctrlMu.Unlock()

	s.UnitsLinked = r.U()
	s.ClassesFetched = r.U()
	s.FetchCacheHits = r.U()
	s.LinkCacheHits = r.U()
	s.DupDrops = r.U()
	s.StaleDrops = r.U()

	s.pendingImports = map[int]pendingImport{}
	for i, n := 0, r.Count("pendingImports"); i < n; i++ {
		idx := int(r.V())
		var pi pendingImport
		pi.imp.Site = r.S()
		pi.imp.Name = r.S()
		pi.imp.IsClass = r.Bool()
		pi.sig = r.S()
		s.pendingImports[idx] = pi
	}
	return r.Err()
}

// writePlacements writes a link relocation (unit index i → program
// index m[i], for i = 0 … len(m)-1: a link places every table or group
// of the unit).
func writePlacements(w *vm.SnapWriter, m map[int]int) {
	w.U(uint64(len(m)))
	for i := range len(m) {
		w.U(uint64(m[i]))
	}
}

func readPlacements(r *vm.SnapReader, what string) map[int]int {
	n := r.Count(what)
	m := make(map[int]int, n)
	for i := range n {
		m[i] = int(r.U())
	}
	return m
}

// checkPlacement rejects a restored link placement that points outside
// the restored program area.
func (s *Site) checkPlacement(l *vm.Linked) error {
	p := s.prog
	if l.Unit < 0 || l.Unit >= p.Units() {
		return fmt.Errorf("unit %d outside the %d linked", l.Unit, p.Units())
	}
	if l.Entry < -1 || l.Entry >= len(p.Blocks) {
		return fmt.Errorf("entry block %d outside the %d blocks", l.Entry, len(p.Blocks))
	}
	for _, t := range l.Reloc.Tables {
		if t < 0 || t >= len(p.Tables) {
			return fmt.Errorf("table %d outside the %d tables", t, len(p.Tables))
		}
	}
	for _, g := range l.Reloc.Groups {
		if g < 0 || g >= len(p.Groups) {
			return fmt.Errorf("group %d outside the %d groups", g, len(p.Groups))
		}
	}
	return nil
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// sortedNetClasses returns m's keys ordered by name, site, node.
func sortedNetClasses[V any](m map[vm.NetClass]V) []vm.NetClass {
	out := make([]vm.NetClass, 0, len(m))
	for nc := range m {
		out = append(out, nc)
	}
	slices.SortFunc(out, func(a, b vm.NetClass) int {
		return cmp.Or(cmp.Compare(a.Name, b.Name), cmp.Compare(a.Site, b.Site), cmp.Compare(a.Node, b.Node))
	})
	return out
}

func writeNetClass(w *vm.SnapWriter, nc vm.NetClass) {
	w.S(nc.Name)
	w.U(uint64(nc.Site))
	w.U(uint64(nc.Node))
}

func readNetClass(r *vm.SnapReader) vm.NetClass {
	return vm.NetClass{Name: r.S(), Site: uint32(r.U()), Node: uint32(r.U())}
}

func writeStringMap(w *vm.SnapWriter, m map[string]string) {
	keys := sortedKeys(m)
	w.U(uint64(len(keys)))
	for _, k := range keys {
		w.S(k)
		w.S(m[k])
	}
}

func readStringMap(r *vm.SnapReader, what string) map[string]string {
	m := map[string]string{}
	for i, n := 0, r.Count(what); i < n; i++ {
		k := r.S()
		m[k] = r.S()
	}
	return m
}

func writeU64Map(w *vm.SnapWriter, m map[uint32]uint64) {
	keys := sortedKeys(m)
	w.U(uint64(len(keys)))
	for _, k := range keys {
		w.U(uint64(k))
		w.U(m[k])
	}
}

func readU64Map(r *vm.SnapReader, what string) map[uint32]uint64 {
	m := map[uint32]uint64{}
	for i, n := 0, r.Count(what); i < n; i++ {
		k := uint32(r.U())
		m[k] = r.U()
	}
	return m
}

// ---------------------------------------------------------- restore

// SetRestore arms the site to rebuild itself from a recovered log
// when Run starts. Must be called before Run; the site's configured
// Epoch must exceed every epoch in the log.
func (s *Site) SetRestore(l *RecoveredLog) { s.restoreLog = l }

// restore rebuilds the pre-crash state on the site goroutine: restore
// the checkpoint (or re-link the recorded program), replay journaled
// deliveries at their recorded context-switch counts, run to
// quiescence to reproduce the sends past the journal frontier, then
// hand accepted-but-unapplied operations to the normal path and
// re-register everything with the name service. Output produced
// during replay is suppressed — it already happened.
func (s *Site) restore(l *RecoveredLog) error {
	// Re-parse the journal on this side of site registration: the node
	// keeps appending accepted records for us while recovery is being
	// set up, and any record appended before we were re-registered in
	// the dispatch maps would otherwise be missed (its frame was dropped
	// at dispatch, its record absent from the supervisor's earlier
	// parse). Records() is serialized with Append, so everything
	// journaled before this moment is in the fresh parse; frames arriving
	// after registration reach us live instead.
	if s.jl != nil {
		fresh, err := LoadJournal(s.jl)
		if err != nil {
			return fmt.Errorf("re-parse journal: %w", err)
		}
		l = fresh
	}
	// Re-register first: importers blocked at the name service resolve
	// against the kept entries while we replay, and the higher epoch
	// fences any stale keepalive from the dead incarnation.
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ImportTimeout)
	err := s.cfg.NS.RegisterSite(ctx, s.cfg.Name, s.cfg.ID, s.cfg.NodeID, s.epoch)
	cancel()
	if err != nil {
		return fmt.Errorf("re-register: %w", err)
	}

	s.replaying = true
	savedOut := s.m.Out
	s.m.Out = io.Discard
	if l.checkpoint != nil {
		r, err := vm.NewSnapReader(l.checkpoint)
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if err := s.m.DecodeSnapshot(r); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if err := s.decodeOverlay(r); err != nil {
			return fmt.Errorf("checkpoint overlay: %w", err)
		}
	} else {
		if err := s.loadRecorded(l.prog); err != nil {
			return fmt.Errorf("relink: %w", err)
		}
	}

	for i, rec := range l.deliveries {
		if err := s.replayTo(rec.steps); err != nil {
			return fmt.Errorf("replay record %d: %w", i, err)
		}
		d, err := rec.delivery()
		if err != nil {
			return fmt.Errorf("replay record %d: %w", i, err)
		}
		if err := s.handle(d); err != nil {
			return fmt.Errorf("replay record %d: %w", i, err)
		}
	}
	// Epilogue: reproduce everything the machine did after the last
	// journaled delivery. Re-sent operations carry the same (site, id)
	// as before the crash, so receivers drop the duplicates.
	if err := s.m.RunToQuiescence(); err != nil {
		return fmt.Errorf("replay epilogue: %w", err)
	}
	s.m.Out = savedOut
	s.replaying = false

	// Operations the node accepted (and acknowledged — the sender will
	// never retransmit them) but the dead incarnation never handled:
	// apply through the normal path, so they are journaled and counted.
	for _, a := range l.accepted {
		d, _, err := DecodePayload(a.t, a.srcNode, a.payload)
		if err != nil {
			return fmt.Errorf("accepted replay: %w", err)
		}
		if !d.Op.IsZero() && s.appliedOp(d.Op) {
			continue
		}
		if err := s.handle(d); err != nil {
			return fmt.Errorf("accepted replay: %w", err)
		}
	}

	if err := s.reregisterExports(); err != nil {
		return err
	}
	// Imports whose resolution never completed: resolve them afresh.
	for idx, pi := range s.pendingImports {
		go s.resolveImport(pi.imp, idx, pi.sig)
	}
	return nil
}

// replayTo advances the machine to exactly the recorded context-switch
// count. Falling idle early or overshooting means the replay diverged
// from the recorded run — a bug, not a recoverable condition.
func (s *Site) replayTo(steps uint64) error {
	for s.m.Stats.ContextSwitches < steps {
		ran, err := s.m.Step()
		if err != nil {
			return err
		}
		if !ran {
			return fmt.Errorf("replay diverged: machine idle at %d context switches, record expects %d", s.m.Stats.ContextSwitches, steps)
		}
	}
	if s.m.Stats.ContextSwitches > steps {
		return fmt.Errorf("replay diverged: machine at %d context switches, record expects %d", s.m.Stats.ContextSwitches, steps)
	}
	return nil
}

// loadRecorded re-links the journaled program exactly as Load did, but
// without touching the name service and without spawning resolvers —
// journaled Resolved deliveries replay the resolutions; restore
// respawns resolvers for whatever is still pending afterwards.
func (s *Site) loadRecorded(p *programRecord) error {
	for name, sig := range p.nameSigs {
		s.expNameSigs[name] = sig
	}
	for name, sig := range p.classSigs {
		s.expClassSigs[name] = sig
	}
	u := p.unit
	imports := make([]vm.Value, len(u.Imports))
	consts := make([]vm.Value, len(u.Consts))
	for i, k := range u.Consts {
		v, err := s.ingressConst(k)
		if err != nil {
			return err
		}
		consts[i] = v
	}
	for i := range imports {
		imports[i] = vm.Pending(i)
	}
	linked, err := s.prog.Link(u, imports, consts)
	if err != nil {
		return err
	}
	s.UnitsLinked++
	for i, imp := range u.Imports {
		constIdx := linked.Reloc.Imports[i]
		s.prog.Consts[constIdx] = vm.Pending(constIdx)
		var sig string
		if i < len(p.importSigs) {
			sig = p.importSigs[i]
		}
		s.pendingImports[constIdx] = pendingImport{imp: imp, sig: sig}
	}
	if linked.Entry >= 0 {
		s.m.Spawn(linked.Entry, nil)
	}
	return nil
}

// reregisterExports replays the name-service registrations of every
// exported name and class. Heap ids are stable under deterministic
// replay, so these re-registrations are idempotent refreshes.
func (s *Site) reregisterExports() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ImportTimeout)
	defer cancel()
	for _, name := range sortedKeys(s.expNames) {
		v := s.expNames[name]
		switch v.Kind {
		case vm.KChan:
			heap := s.exportID(int(v.I))
			if err := s.cfg.NS.RegisterName(ctx, s.cfg.Name, name, heap, s.expNameSigs[name]); err != nil {
				return fmt.Errorf("re-register name %q: %w", name, err)
			}
		case vm.KClass:
			if err := s.cfg.NS.RegisterClass(ctx, s.cfg.Name, name, s.expClassSigs[name]); err != nil {
				return fmt.Errorf("re-register class %q: %w", name, err)
			}
		}
	}
	return nil
}
