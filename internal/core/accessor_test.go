package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
	"espresso/internal/vheap"
)

// surface is the object model as a caller sees it on either receiver.
// That both satisfy it is the compile-time half of the parity check.
type surface interface {
	KlassOf(layout.Ref) (*klass.Klass, error)
	New(*klass.Klass, int) (layout.Ref, error)
	PNew(*klass.Klass, int) (layout.Ref, error)
	PNewImage([]NewImage, []layout.Ref) error
	PNewMultiArray(*klass.Klass, []int) (layout.Ref, error)
	NewString(string, bool) (layout.Ref, error)
	GetString(layout.Ref) (string, error)
	ArrayLen(layout.Ref) int
	GetLong(layout.Ref, string) (int64, error)
	SetLong(layout.Ref, string, int64) error
	GetRef(layout.Ref, string) (layout.Ref, error)
	SetRef(layout.Ref, string, layout.Ref) error
	GetElem(layout.Ref, int) (layout.Ref, error)
	SetElem(layout.Ref, int, layout.Ref) error
	GetLongElem(layout.Ref, int) (int64, error)
	SetLongElem(layout.Ref, int, int64) error
	GetLongFast(layout.Ref, FieldRef) int64
	SetLongFast(layout.Ref, FieldRef, int64)
	GetRefFast(layout.Ref, FieldRef) layout.Ref
	SetRefFast(layout.Ref, FieldRef, layout.Ref) error
	CopyLongs(layout.Ref, int, []int64) error
	WriteLongs(layout.Ref, int, []int64) error
	CopyBytes(layout.Ref, int, []byte) error
	WriteBytes(layout.Ref, int, []byte) error
	FlushField(layout.Ref, string) error
	FlushArrayElem(layout.Ref, int) error
	FlushObject(layout.Ref) error
	FlushTransitive(layout.Ref) error
	FlushBatch([]layout.Ref) error
	ReadFieldImage(layout.Ref, []byte) error
	WriteFieldImage(layout.Ref, []byte, []byte, []int) error
	SetRoot(string, layout.Ref) error
	GetRoot(string) (layout.Ref, bool)
	CheckCast(layout.Ref, string) error
	InstanceOf(layout.Ref, string) (bool, error)
}

var (
	_ surface = (*Runtime)(nil)
	_ surface = (*Mutator)(nil)
)

// exportedMethods lists the exported methods of a pointer type by name.
func exportedMethods(t reflect.Type) []string {
	var names []string
	for i := 0; i < t.NumMethod(); i++ {
		names = append(names, t.Method(i).Name)
	}
	return names
}

// TestAccessorSurfaceParity: the object model is declared once. Every
// exported method of *Accessor is in the method sets of *Runtime and
// *Mutator with the same signature (a shadowing redeclaration would
// change or hide it), nothing of the surface is declared on either
// receiver directly, and what they do declare directly is the known
// non-surface rest — so a new accessor cannot land on one receiver only.
func TestAccessorSurfaceParity(t *testing.T) {
	acc := reflect.TypeOf((*Accessor)(nil))
	names := exportedMethods(acc)
	if want := exportedMethods(reflect.TypeOf((*surface)(nil)).Elem()); !slices.Equal(names, want) {
		t.Fatalf("the test's surface interface is out of date:\n Accessor %v\n surface  %v", names, want)
	}
	for _, recv := range []reflect.Type{reflect.TypeOf((*Runtime)(nil)), reflect.TypeOf((*Mutator)(nil))} {
		for _, name := range names {
			am, _ := acc.MethodByName(name)
			rm, ok := recv.MethodByName(name)
			if !ok {
				t.Errorf("%s lacks %s", recv, name)
				continue
			}
			// Compare signatures past the receiver.
			at, rtt := am.Type, rm.Type
			same := at.NumIn() == rtt.NumIn() && at.NumOut() == rtt.NumOut()
			for i := 1; same && i < at.NumIn(); i++ {
				same = at.In(i) == rtt.In(i)
			}
			for i := 0; same && i < at.NumOut(); i++ {
				same = at.Out(i) == rtt.Out(i)
			}
			if !same {
				t.Errorf("%s.%s is %s, the surface's is %s", recv, name, rtt, at)
			}
		}
	}

	// What each receiver may declare itself.
	own := map[string][]string{
		"Mutator": {"AllocStats", "Do", "Heap", "Release"},
		"Runtime": {
			// heap management (Table 1) and housekeeping
			"ActiveHeap", "Close", "CreateHeap", "ExistsHeap", "Heap", "Heaps", "LoadHeap", "SetActiveHeap", "SyncHeap",
			"NameManager", "StringKlass", "Volatile", "InPersistent", "InVolatile",
			// collectors
			"FullGC", "MinorGC", "PersistentGC",
			// handles
			"Get", "NewHandle", "Release",
			// contexts, handles on classes, diagnostics
			"NewMutator", "NewSafepointSlot", "SafepointPinner", "ResolveField", "MustResolveField",
			"NVMToVolSlots", "Metrics", "Telemetry",
		},
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range pkgs["core"].Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !fd.Name.IsExported() {
				continue
			}
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			id, ok := recv.(*ast.Ident)
			if !ok || own[id.Name] == nil {
				continue
			}
			if slices.Contains(names, fd.Name.Name) {
				t.Errorf("%s.%s redeclares a method of the surface", id.Name, fd.Name.Name)
			} else if !slices.Contains(own[id.Name], fd.Name.Name) {
				t.Errorf("%s.%s is declared on one receiver only: if it is object-model access it belongs on Accessor, otherwise list it here", id.Name, fd.Name.Name)
			}
		}
	}
}

// --- one table of the whole surface, driven two ways below ---

// surfaceWorld is a runtime with the heap under test and a fixture every
// row of the table operates on, built through the receiver under test and
// reachable from named roots (a collection may move it). Beside them is
// one address of each other kind the decode tells apart: a person in
// another loaded heap and one in the volatile old generation, both built
// ownerless, and two addresses nothing maps.
type surfaceWorld struct {
	t        testing.TB
	rt       *Runtime
	h        *pheap.Heap
	other    *pheap.Heap
	person   *klass.Klass
	node     *klass.Klass
	idF      FieldRef
	nameF    FieldRef
	nextF    FieldRef
	vold     Handle
	unmapped []layout.Ref
}

// fixture is the world's objects as currently placed.
type fixture struct {
	person, name, people, longs, bytes, chain layout.Ref // persistent
	operson                                   layout.Ref // in the other heap
	vperson, vold                             layout.Ref // volatile: eden, old
}

const (
	fxName     = "Jimmy Woo"
	fxID       = 1001
	fxOtherID  = 2002
	fxOldID    = 3003
	fxChainLen = 4
)

var (
	fxLongs = []int64{10, 11, 12, 13, 14, 15, 16, 17}
	fxBytes = []byte("0123456789abcdef")
)

func newSurfaceWorld(t testing.TB) *surfaceWorld {
	t.Helper()
	vcfg := vheap.Config{EdenSize: 256 << 10, SurvivorSize: 64 << 10, OldSize: 256 << 10}
	rt, err := NewRuntime(Config{PJHDataSize: 1 << 20, NVMMode: nvm.Tracked, Volatile: vcfg})
	if err != nil {
		t.Fatal(err)
	}
	w := &surfaceWorld{t: t, rt: rt, person: personKlass(t, rt), unmapped: []layout.Ref{
		layout.YoungBase + layout.Ref(vcfg.EdenSize+2*vcfg.SurvivorSize), // past the survivors, below old
		layout.DefaultPJHBase - 8, // below the first heap
	}}
	if w.other, err = rt.CreateHeap("other", 0); err != nil {
		t.Fatal(err)
	}
	operson := w.ref(rt.PNew(w.person, 0))
	w.must(rt.SetLong(operson, "id", fxOtherID))
	w.must(rt.SetRoot("other", operson))
	vold := w.ref(rt.New(w.person, 0))
	w.must(rt.SetLong(vold, "id", fxOldID))
	w.vold = rt.NewHandle(vold)
	w.must(rt.FullGC()) // tenures it
	if !rt.Volatile().InOld(rt.Get(w.vold)) {
		t.Fatal("the volatile person is not in the old generation")
	}
	if w.h, err = rt.CreateHeap("surface", 0); err != nil {
		t.Fatal(err)
	}
	w.node = klass.MustInstance("surface/Node", nil,
		klass.Field{Name: "v", Type: layout.FTLong},
		klass.Field{Name: "next", Type: layout.FTRef, RefKlass: "surface/Node"})
	w.idF = rt.MustResolveField(w.person, "id")
	w.nameF = rt.MustResolveField(w.person, "name")
	w.nextF = rt.MustResolveField(w.node, "next")
	return w
}

func (w *surfaceWorld) must(err error) {
	w.t.Helper()
	if err != nil {
		w.t.Fatal(err)
	}
}

func (w *surfaceWorld) ref(ref layout.Ref, err error) layout.Ref {
	w.t.Helper()
	w.must(err)
	return ref
}

// build creates the fixture through s and roots it.
func (w *surfaceWorld) build(s surface) {
	w.t.Helper()
	reg := w.rt.Reg
	var fx fixture
	fx.person = w.ref(s.PNew(w.person, 0))
	fx.name = w.ref(s.NewString(fxName, true))
	w.must(s.SetLong(fx.person, "id", fxID))
	w.must(s.SetRef(fx.person, "name", fx.name))
	fx.people = w.ref(s.PNew(reg.ObjArray(w.person.Name), 4))
	w.must(s.SetElem(fx.people, 0, fx.person))
	fx.longs = w.ref(s.PNew(reg.PrimArray(layout.FTLong), len(fxLongs)))
	w.must(s.WriteLongs(fx.longs, 0, fxLongs))
	fx.bytes = w.ref(s.PNew(reg.PrimArray(layout.FTByte), len(fxBytes)))
	w.must(s.WriteBytes(fx.bytes, 0, fxBytes))
	for i := 0; i < fxChainLen; i++ {
		n := w.ref(s.PNew(w.node, 0))
		w.must(s.SetLong(n, "v", int64(i)))
		w.must(s.SetRefFast(n, w.nextF, fx.chain))
		fx.chain = n
	}
	w.must(s.FlushTransitive(fx.chain))
	// The rows measure steady state: the nested array classes get their
	// Klass-segment records (heap-level traffic) here, not in a row.
	w.ref(s.PNewMultiArray(w.person, []int{1, 1}))
	for name, ref := range map[string]layout.Ref{"person": fx.person, "people": fx.people,
		"longs": fx.longs, "bytes": fx.bytes, "chain": fx.chain} {
		w.must(s.SetRoot(name, ref))
	}
}

// fixture finds the world's objects where they are now; the eden person
// is made fresh (nothing roots one across calls). The old one is read
// through its handle, a safepoint interval of the runtime's own: fixture
// runs where no pause is pending.
func (w *surfaceWorld) fixture(s surface) fixture {
	w.t.Helper()
	root := func(name string) layout.Ref {
		ref, ok := s.GetRoot(name)
		if !ok {
			w.t.Fatalf("root %q is gone", name)
		}
		return ref
	}
	fx := fixture{person: root("person"), people: root("people"), longs: root("longs"),
		bytes: root("bytes"), chain: root("chain"), operson: root("other"), vold: w.rt.Get(w.vold)}
	fx.name = w.ref(s.GetRef(fx.person, "name"))
	fx.vperson = w.ref(s.New(w.person, 0))
	return fx
}

// decodeRefs is one address of each kind the decode tells apart: four
// persons — the heap under test's, the other heap's, eden's, old's — then
// the unmapped addresses.
func (w *surfaceWorld) decodeRefs(fx fixture) []layout.Ref {
	return append([]layout.Ref{fx.person, fx.operson, fx.vperson, fx.vold}, w.unmapped...)
}

// panicOf runs f and returns what it panicked with, "" if it returned.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// verify checks the fixture still holds what build put there (every row
// of the table stores only values that keep it so).
func (w *surfaceWorld) verify(s surface, when string) {
	w.t.Helper()
	fx := w.fixture(s)
	id, err := s.GetLong(fx.person, "id")
	w.must(err)
	name, err := s.GetString(fx.name)
	w.must(err)
	first, err := s.GetElem(fx.people, 0)
	w.must(err)
	longs := make([]int64, len(fxLongs))
	w.must(s.CopyLongs(fx.longs, 0, longs))
	bytes := make([]byte, len(fxBytes))
	w.must(s.CopyBytes(fx.bytes, 0, bytes))
	n := 0
	for c := fx.chain; c != layout.NullRef; c = s.GetRefFast(c, w.nextF) {
		n++
	}
	if id != fxID || name != fxName || first != fx.person || !slices.Equal(longs, fxLongs) ||
		string(bytes) != string(fxBytes) || n != fxChainLen {
		w.t.Fatalf("%s: fixture damaged: id %d name %q people[0] %#x (person %#x) longs %v bytes %q chain %d",
			when, id, name, uint64(first), uint64(fx.person), longs, bytes, n)
	}
	if err := w.h.ForEachObject(func(int, *klass.Klass, int) bool { return true }); err != nil {
		w.t.Fatalf("%s: heap does not parse: %v", when, err)
	}
}

// surfaceRow is one method of the surface aimed at the fixture. call
// reports everything the method returned, rendered comparably. heapLevel
// marks the rows whose device traffic is the heap's own metadata (a
// name-table update), which no context's view counts.
type surfaceRow struct {
	method    string
	call      func(s surface, w *surfaceWorld, fx fixture) string
	heapLevel bool
}

func surfaceRows() []surfaceRow {
	show := func(vs ...any) string { return fmt.Sprint(vs...) }
	return []surfaceRow{
		{method: "KlassOf", call: func(s surface, w *surfaceWorld, fx fixture) string {
			var out []any
			for i, ref := range w.decodeRefs(fx) {
				k, err := s.KlassOf(ref)
				name := ""
				if k != nil {
					name = k.Name
				}
				if mapped := i < 4; mapped && (err != nil || name != w.person.Name) ||
					!mapped && (err == nil || !strings.Contains(err.Error(), "not an object address")) {
					w.t.Errorf("KlassOf(%#x) = %q, %v", uint64(ref), name, err)
				}
				out = append(out, name, err)
			}
			return show(out...)
		}},
		{method: "New", call: func(s surface, w *surfaceWorld, fx fixture) string {
			ref, err := s.New(w.person, 0)
			return show(w.rt.InVolatile(ref), err)
		}},
		{method: "PNew", call: func(s surface, w *surfaceWorld, fx fixture) string {
			ref, err := s.PNew(w.person, 0)
			return show(ref, err)
		}},
		{method: "PNewImage", call: func(s surface, w *surfaceWorld, fx fixture) string {
			img := make([]byte, 2*layout.WordSize)
			if err := s.ReadFieldImage(fx.person, img); err != nil {
				return show(err)
			}
			ref, err := pnewImage(s, w.person, img, []int{w.nameF.Offset()})
			copied := make([]byte, len(img))
			if err == nil {
				err = s.ReadFieldImage(ref, copied)
			}
			_, berr := pnewImage(s, w.person, img[:3], nil)
			_, serr := pnewImage(s, w.person, make([]byte, 3*layout.WordSize), nil)
			return show(ref, err, string(copied) == string(img), berr, serr)
		}},
		{method: "PNewMultiArray", call: func(s surface, w *surfaceWorld, fx fixture) string {
			ref, err := s.PNewMultiArray(w.person, []int{2, 3})
			return show(ref, err)
		}},
		{method: "NewString", call: func(s surface, w *surfaceWorld, fx fixture) string {
			p, err := s.NewString("Jimmy", true)
			v, verr := s.NewString("Jimmy", false)
			return show(p, err, w.rt.InVolatile(v), verr)
		}},
		{method: "GetString", call: func(s surface, w *surfaceWorld, fx fixture) string {
			str, err := s.GetString(fx.name)
			_, nerr := s.GetString(fx.person)
			return show(str, err, nerr != nil)
		}},
		{method: "ArrayLen", call: func(s surface, w *surfaceWorld, fx fixture) string {
			return show(s.ArrayLen(fx.people), s.ArrayLen(fx.longs))
		}},
		{method: "GetLong", call: func(s surface, w *surfaceWorld, fx fixture) string {
			v, err := s.GetLong(fx.person, "id")
			_, nerr := s.GetLong(fx.person, "nosuch")
			ov, oerr := s.GetLong(fx.operson, "id")
			vv, verr := s.GetLong(fx.vold, "id")
			_, uerr := s.GetLong(w.unmapped[0], "id")
			if ov != fxOtherID || oerr != nil || vv != fxOldID || verr != nil || uerr == nil {
				w.t.Errorf("GetLong: other heap %d, %v; old %d, %v; unmapped %v", ov, oerr, vv, verr, uerr)
			}
			return show(v, err, nerr, ov, oerr, vv, verr, uerr)
		}},
		{method: "SetLong", call: func(s surface, w *surfaceWorld, fx fixture) string {
			return show(s.SetLong(fx.person, "id", fxID), s.SetLong(fx.vperson, "id", 7))
		}},
		{method: "GetRef", call: func(s surface, w *surfaceWorld, fx fixture) string {
			v, err := s.GetRef(fx.person, "name")
			_, nerr := s.GetRef(fx.person, "id")
			return show(v == fx.name, err, nerr)
		}},
		{method: "SetRef", call: func(s surface, w *surfaceWorld, fx fixture) string {
			return show(s.SetRef(fx.person, "name", fx.name), s.SetRef(fx.person, "id", fx.name))
		}},
		{method: "GetElem", call: func(s surface, w *surfaceWorld, fx fixture) string {
			v, err := s.GetElem(fx.people, 0)
			_, oerr := s.GetElem(fx.people, 4)
			return show(v == fx.person, err, oerr)
		}},
		{method: "SetElem", call: func(s surface, w *surfaceWorld, fx fixture) string {
			return show(s.SetElem(fx.people, 0, fx.person), s.SetElem(fx.people, -1, fx.person))
		}},
		{method: "GetLongElem", call: func(s surface, w *surfaceWorld, fx fixture) string {
			v, err := s.GetLongElem(fx.longs, 3)
			return show(v, err)
		}},
		{method: "SetLongElem", call: func(s surface, w *surfaceWorld, fx fixture) string {
			return show(s.SetLongElem(fx.longs, 3, fxLongs[3]), s.SetLongElem(fx.person, 0, 1))
		}},
		{method: "GetLongFast", call: func(s surface, w *surfaceWorld, fx fixture) string {
			got := []int64{s.GetLongFast(fx.person, w.idF), s.GetLongFast(fx.operson, w.idF), s.GetLongFast(fx.vold, w.idF)}
			if !slices.Equal(got, []int64{fxID, fxOtherID, fxOldID}) {
				w.t.Errorf("GetLongFast ids %v", got)
			}
			var panics []string
			for _, ref := range w.unmapped {
				msg := panicOf(func() { s.GetLongFast(ref, w.idF) })
				if !strings.Contains(msg, "non-object address") {
					w.t.Errorf("GetLongFast(unmapped %#x) panicked with %q", uint64(ref), msg)
				}
				panics = append(panics, msg)
			}
			return show(got, panics)
		}},
		{method: "SetLongFast", call: func(s surface, w *surfaceWorld, fx fixture) string {
			s.SetLongFast(fx.person, w.idF, fxID)
			return ""
		}},
		{method: "GetRefFast", call: func(s surface, w *surfaceWorld, fx fixture) string {
			return show(s.GetRefFast(fx.person, w.nameF) == fx.name)
		}},
		{method: "SetRefFast", call: func(s surface, w *surfaceWorld, fx fixture) string {
			return show(s.SetRefFast(fx.person, w.nameF, fx.name), s.SetRefFast(fx.person, w.idF, fx.name))
		}},
		{method: "CopyLongs", call: func(s surface, w *surfaceWorld, fx fixture) string {
			dst := make([]int64, 4)
			err := s.CopyLongs(fx.longs, 2, dst)
			return show(dst, err, s.CopyLongs(fx.longs, 6, dst))
		}},
		{method: "WriteLongs", call: func(s surface, w *surfaceWorld, fx fixture) string {
			return show(s.WriteLongs(fx.longs, 2, fxLongs[2:6]), s.WriteLongs(fx.bytes, 0, fxLongs))
		}},
		{method: "CopyBytes", call: func(s surface, w *surfaceWorld, fx fixture) string {
			dst := make([]byte, 5)
			err := s.CopyBytes(fx.bytes, 3, dst)
			return show(string(dst), err)
		}},
		{method: "WriteBytes", call: func(s surface, w *surfaceWorld, fx fixture) string {
			return show(s.WriteBytes(fx.bytes, 3, fxBytes[3:8]))
		}},
		{method: "FlushField", call: func(s surface, w *surfaceWorld, fx fixture) string {
			return show(s.FlushField(fx.person, "id"), s.FlushField(fx.vperson, "id"))
		}},
		{method: "FlushArrayElem", call: func(s surface, w *surfaceWorld, fx fixture) string {
			return show(s.FlushArrayElem(fx.longs, 5), s.FlushArrayElem(fx.longs, 8))
		}},
		{method: "FlushObject", call: func(s surface, w *surfaceWorld, fx fixture) string {
			return show(s.FlushObject(fx.person), s.FlushObject(fx.people))
		}},
		{method: "FlushTransitive", call: func(s surface, w *surfaceWorld, fx fixture) string {
			return show(s.FlushTransitive(fx.chain), s.FlushTransitive(fx.people))
		}},
		{method: "FlushBatch", call: func(s surface, w *surfaceWorld, fx fixture) string {
			return show(s.FlushBatch([]layout.Ref{fx.person, fx.longs, fx.chain}), s.FlushBatch([]layout.Ref{fx.vperson}) != nil)
		}},
		{method: "ReadFieldImage", call: func(s surface, w *surfaceWorld, fx fixture) string {
			img := make([]byte, 2*layout.WordSize)
			err := s.ReadFieldImage(fx.person, img)
			return show(img[:layout.WordSize], err)
		}},
		{method: "WriteFieldImage", call: func(s surface, w *surfaceWorld, fx fixture) string {
			old := make([]byte, 2*layout.WordSize)
			if err := s.ReadFieldImage(fx.person, old); err != nil {
				return show(err)
			}
			img := slices.Clone(old)
			img[w.idF.Offset()-layout.FieldOff(0)]++
			refs := []int{w.nameF.Offset()}
			return show(s.WriteFieldImage(fx.person, old, img, refs), s.WriteFieldImage(fx.person, img, old, refs),
				s.WriteFieldImage(fx.person, old, old, refs),
				s.WriteFieldImage(fx.person, old[:3], img[:3], nil), s.WriteFieldImage(fx.person, old[:8], img, nil))
		}},
		{method: "SetRoot", heapLevel: true, call: func(s surface, w *surfaceWorld, fx fixture) string {
			return show(s.SetRoot("scratch", fx.person), s.SetRoot("vol", fx.vperson) != nil)
		}},
		{method: "GetRoot", call: func(s surface, w *surfaceWorld, fx fixture) string {
			ref, ok := s.GetRoot("person")
			_, nok := s.GetRoot("nosuch")
			return show(ref == fx.person, ok, nok)
		}},
		{method: "CheckCast", call: func(s surface, w *surfaceWorld, fx fixture) string {
			return show(s.CheckCast(fx.person, w.person.Name), s.CheckCast(fx.vperson, w.person.Name),
				s.CheckCast(fx.chain, w.person.Name))
		}},
		{method: "InstanceOf", call: func(s surface, w *surfaceWorld, fx fixture) string {
			ok, err := s.InstanceOf(fx.person, w.person.Name)
			nok, nerr := s.InstanceOf(fx.chain, w.person.Name)
			return show(ok, err, nok, nerr)
		}},
	}
}

// TestSurfaceTableIsWhole: the table above has exactly one row per method
// of the surface, so the two tests driven by it cover all of it.
func TestSurfaceTableIsWhole(t *testing.T) {
	var rows []string
	for _, r := range surfaceRows() {
		rows = append(rows, r.method)
	}
	slices.Sort(rows)
	if want := exportedMethods(reflect.TypeOf((*Accessor)(nil))); !slices.Equal(rows, want) {
		t.Fatalf("table rows %v\nsurface    %v", rows, want)
	}
}

// TestOwnedOwnerlessEquivalence runs every method of the surface through
// a Runtime, a Mutator, and the same kind of Mutator inside Do, on
// identically built heaps: what the method returns and what it costs the
// device must not depend on the receiver, and on a mutator the traffic
// must be in its own view — the device total moves by exactly what the
// view counted, so nothing took the ownerless path. Traffic on the other
// heap is the other way round: no context owns a view of its device, so
// all of it is that heap's ownerless traffic, and it must be the same
// whoever reads — none of it in the mutator's view.
func TestOwnedOwnerlessEquivalence(t *testing.T) {
	type outcome struct {
		result     string
		dev, other nvm.Stats
	}
	run := func(owned, inDo bool) []outcome {
		w := newSurfaceWorld(t)
		var s surface = w.rt
		var m *Mutator
		if owned {
			var err error
			if m, err = w.rt.NewMutator(); err != nil {
				t.Fatal(err)
			}
			defer m.Release()
			s = m
		}
		w.build(s)
		var out []outcome
		for _, row := range surfaceRows() {
			do := func() {
				fx := w.fixture(s)
				dev0, other0 := w.h.Device().Stats(), w.other.Device().Stats()
				var own0 nvm.Ops
				if owned {
					own0 = m.alloc.Ops()
				}
				result := row.call(s, w, fx)
				dev, other := w.h.Device().Stats().Sub(dev0), w.other.Device().Stats().Sub(other0)
				out = append(out, outcome{result, dev, other})
				if owned && !row.heapLevel {
					own := m.alloc.Ops()
					got := devOps{own.Reads - own0.Reads, own.Writes - own0.Writes,
						own.FlushedLines - own0.FlushedLines, own.Fences - own0.Fences}
					if got != opsOf(dev) {
						t.Errorf("%s (inDo=%v): device saw %+v, the mutator's view %+v", row.method, inDo, opsOf(dev), got)
					}
				}
			}
			if inDo {
				m.Do(do)
			} else {
				do()
			}
		}
		w.verify(s, "after the table")
		return out
	}
	ownerless, owned, ownedInDo := run(false, false), run(true, false), run(true, true)
	for i, row := range surfaceRows() {
		for _, other := range []struct {
			name string
			got  outcome
		}{{"Mutator", owned[i]}, {"Mutator inside Do", ownedInDo[i]}} {
			if other.got.result != ownerless[i].result {
				t.Errorf("%s: Runtime returned %q, %s %q", row.method, ownerless[i].result, other.name, other.got.result)
			}
			if other.got.dev != ownerless[i].dev {
				t.Errorf("%s: device delta\n Runtime %+v\n %s %+v", row.method, ownerless[i].dev, other.name, other.got.dev)
			}
			if other.got.other != ownerless[i].other {
				t.Errorf("%s: other heap's device delta\n Runtime %+v\n %s %+v", row.method, ownerless[i].other, other.name, other.got.other)
			}
		}
	}
}

// TestEveryAccessorInsideDoWithPausePending: a mutator inside Do holds
// every collector pause off, so anything it calls there that waits for a
// safepoint interval of its own waits forever — the pause for Do, the call
// for the pause. Every method of the surface, called on the mutator inside
// Do while a collection's stop is already pending, must return; the collection then completes and the
// fixture it moved is intact. (The same call on the Runtime inside Do
// deadlocks, by contract.)
func TestEveryAccessorInsideDoWithPausePending(t *testing.T) {
	w := newSurfaceWorld(t)
	m, err := w.rt.NewMutator()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	w.build(m)
	for _, row := range surfaceRows() {
		finished := make(chan error, 1)
		go func() {
			collected := make(chan error, 1)
			m.Do(func() {
				fx := w.fixture(m)
				go func() {
					_, err := w.rt.PersistentGC("surface")
					collected <- err
				}()
				for !w.rt.world.Stopping() {
					runtime.Gosched()
				}
				row.call(m, w, fx)
			})
			finished <- <-collected
		}()
		select {
		case err := <-finished:
			if err != nil {
				t.Fatalf("%s with a collection pending: collection failed: %v", row.method, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s inside Do with a collection pending: no return after 20s", row.method)
		}
		w.verify(m, row.method+" under PersistentGC")
	}
}
