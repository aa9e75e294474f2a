package site

import (
	"bytes"
	"context"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/nameservice"
	"repro/internal/syntax"
	"repro/internal/vm"
	"repro/internal/wire"
)

// keepRouter drops what a site routes out, keeping every unit it ships.
type keepRouter struct{ units []*asm.Unit }

func (r *keepRouter) RouteMsg(*Site, wire.OpRef, vm.NetRef, string, []WireVal) error { return nil }
func (r *keepRouter) RouteObj(_ *Site, _ wire.OpRef, _ vm.NetRef, unit *asm.Unit, _ int, _ []WireVal) error {
	r.units = append(r.units, unit)
	return nil
}
func (r *keepRouter) RouteFetch(*Site, wire.OpRef, Addr, string, uint64) error { return nil }
func (r *keepRouter) RouteFetchRep(*Site, wire.OpRef, Addr, *FetchRepDelivery) error {
	return nil
}

// shipTwice loads src as site "memo" (exporting svc), waits for its
// imports to resolve, and has svc ship an object to a remote channel
// twice.
func shipTwice(t *testing.T, src string) (*Site, *keepRouter) {
	t.Helper()
	unit, err := compiler.Compile(syntax.MustParse(src), "memo")
	if err != nil {
		t.Fatal(err)
	}
	ns := nameservice.NewSharded(nameservice.ShardedConfig{})
	router := &keepRouter{}
	s := New(Config{Name: "memo", ID: 1, NodeID: 1, NS: ns, Router: router})
	t.Cleanup(func() { s.Stop(); s.Turn() })
	if err := s.Load(&Program{Unit: unit}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Turn() == TurnMore || len(s.pendingImports) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("imports never resolved")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	svc, _, err := ns.LookupName(ctx, "memo", "svc")
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 2; id++ {
		if err := s.Deliver(Delivery{Src: 2, Op: wire.OpRef{Site: 2, Epoch: 1, ID: id}, Msg: &MsgDelivery{
			Heap: svc.Heap, Label: "get", Args: []wire.Value{{Kind: wire.WNet, Net: vm.NetRef{Heap: 9, Site: 2, Node: 2}}},
		}}); err != nil {
			t.Fatal(err)
		}
		for s.Turn() == TurnMore {
		}
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if len(router.units) != 2 {
		t.Fatalf("shipped %d objects, want 2", len(router.units))
	}
	return s, router
}

// TestExtractMemoMatchesFreshExtraction: the second ship of an object
// reuses the first one's extraction, and the memoised bytes are what a
// fresh Extract + Encode of the same (table, groups) produces — for
// code that references a local channel (an import of the site's own
// export: a constant σ-translated through the export table) and for a
// frame that captures a class (whose group travels with the unit).
func TestExtractMemoMatchesFreshExtraction(t *testing.T) {
	for _, c := range []struct {
		name, src string
		consts    bool // the unit carries a constant
		groups    bool // the memo key names captured class groups
	}{
		{"code references a local channel", `
export new home (
  import home from memo in
  def Server(self) = self ? { get(p) = (p?(x) = home![x]) | Server[self] }
  in export new svc Server[svc])`, true, false},
		{"frame captures a class", `
def Greet(who) = println("hi", who)
in def Server(self) = self ? { get(p) = (p?(x) = Greet[x]) | Server[self] }
in export new svc Server[svc]`, false, true},
	} {
		s, router := shipTwice(t, c.src)
		if router.units[0] != router.units[1] {
			t.Errorf("%s: the second ship extracted again", c.name)
		}
		if len(s.extracted) != 1 {
			t.Fatalf("%s: %d memo entries, want 1", c.name, len(s.extracted))
		}
		for key, ex := range s.extracted {
			var groups []int
			for b := []byte(key.groups); len(b) > 0; {
				g, n := binary.Uvarint(b)
				groups = append(groups, int(g))
				b = b[n:]
			}
			fresh, _, err := s.prog.Extract([]int{key.table}, groups, s.egressConst)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ex.unit.Encoded, asm.Encode(fresh)) {
				t.Errorf("%s: memoised bytes differ from a fresh extraction", c.name)
			}
			if (len(groups) > 0) != c.groups || (len(fresh.Consts) > 0) != c.consts {
				t.Errorf("%s: memo key groups %v, unit consts %v", c.name, groups, fresh.Consts)
			}
		}
	}
}

// TestOverlayRejectsPlacementOutsideProgram: a checkpoint whose link
// cache points outside the restored program area is refused, not
// restored into a placement a later arrival would run.
func TestOverlayRejectsPlacementOutsideProgram(t *testing.T) {
	s, router := shipTwice(t, `
def Server(self) = self ? { get(p) = (p?(n, r) = r![n + 1]) | Server[self] }
in export new svc Server[svc]`)
	linked, err := s.linkCode(router.units[0].Encoded)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() error {
		w := vm.NewSnapWriter()
		s.m.EncodeSnapshot(w)
		s.encodeOverlay(w)
		r, err := vm.NewSnapReader(w.Finish())
		if err != nil {
			t.Fatal(err)
		}
		fresh := New(Config{Name: "memo", ID: 1, NodeID: 1, NS: nameservice.NewSharded(nameservice.ShardedConfig{}), Router: router})
		if err := fresh.m.DecodeSnapshot(r); err != nil {
			t.Fatal(err)
		}
		return fresh.decodeOverlay(r)
	}
	if err := restore(); err != nil {
		t.Fatalf("intact checkpoint refused: %v", err)
	}
	good := *linked
	for _, c := range []struct {
		name    string
		corrupt func(l *vm.Linked)
	}{
		{"unit", func(l *vm.Linked) { l.Unit = s.prog.Units() }},
		{"entry", func(l *vm.Linked) { l.Entry = len(s.prog.Blocks) }},
		{"table", func(l *vm.Linked) {
			l.Reloc = &asm.Relocation{Tables: map[int]int{0: len(s.prog.Tables)}, Groups: good.Reloc.Groups}
		}},
		{"group", func(l *vm.Linked) {
			l.Reloc = &asm.Relocation{Tables: good.Reloc.Tables, Groups: map[int]int{0: len(s.prog.Groups)}}
		}},
	} {
		c.corrupt(linked)
		if err := restore(); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("%s out of range: restore returned %v", c.name, err)
		}
		*linked = good
	}
}
