// Package experiments regenerates the tables and figures of the paper's
// motivation and evaluation sections (the per-experiment index lives in
// docs/benchmarks.md; contract.go pins each to its BENCH_<name>.json).
// Each experiment builds the real systems, runs the real workloads, and
// reports rows of what they cost: device ops and Go allocations.
//
// Absolute numbers differ from the paper — the substrate is a simulated
// NVM device, not a Xeon with Viking NVDIMMs — so experiments report the
// *shape*: who wins, by what factor, and where the work goes. No
// experiment reads a clock: BenchmarkContract times each row's loop, the
// same body the contract counts.
package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"strings"

	"espresso/internal/bench"
	"espresso/internal/core"
	"espresso/internal/h2"
	"espresso/internal/jpa"
	"espresso/internal/jpab"
	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pcj"
	"espresso/internal/pcollections"
	"espresso/internal/pgc"
	"espresso/internal/pheap"
	"espresso/internal/pjo"
)

// Scale shrinks workload sizes uniformly (1 = paper-sized where feasible;
// larger values divide the populations for quick runs and unit tests).
type Scale int

func (s Scale) div(n int) int {
	if s <= 1 {
		return n
	}
	return max(n/int(s), 1)
}

// --- Figure 6: PCJ create breakdown ---

// Fig6Row is one phase of a PCJ create (§2.2): what it costs PCJ's
// device per PersistentLong object.
type Fig6Row struct {
	Series  string  `json:"series"` // the phase
	Objects int     `json:"objects"`
	Reads   float64 `json:"reads_per_object"`
	Writes  float64 `json:"writes_per_object"`
	Lines   float64 `json:"flushed_lines_per_object"`
	Fences  float64 `json:"fences_per_object"`

	dev, loop nvm.Stats // the phase's undivided delta, and the whole loop's
}

// Fig6 creates PersistentLong objects on PCJ with a phase counter
// installed, splitting each create's device traffic across transaction,
// allocation, metadata (type-information memorization), GC (refcount and
// object directory) and data.
// Paper: Data 1.8%, Metadata 36.8%, GC 14.8% (+ allocation, transaction).
func Fig6(scale Scale) ([]Fig6Row, error) {
	n := scale.div(200000)
	h := pcj.New(pcj.Config{Size: n*128 + (4 << 20), Mode: nvm.Direct})
	dev := h.Device()
	prof := bench.NewCounter(dev)
	h.SetProfile(prof)
	s0 := dev.Stats()
	for i := 0; i < n; i++ {
		if _, err := h.NewLong(int64(i)); err != nil {
			return nil, fmt.Errorf("object %d: %w", i, err)
		}
	}
	loop := dev.Stats().Sub(s0)
	h.SetProfile(nil)
	per := func(count uint64) float64 { return float64(count) / float64(n) }
	var rows []Fig6Row
	for _, p := range prof.Phases() {
		d := p.Dev
		rows = append(rows, Fig6Row{Series: p.Name, Objects: n, dev: d, loop: loop,
			Reads: per(d.Reads), Writes: per(d.Writes), Lines: per(d.FlushedLines), Fences: per(d.Fences)})
	}
	return rows, nil
}

// --- The walks every timed row runs ---

// loop is one operation a row times: the row's key (its identity fields
// joined with "/", as the contract test keys rows), its side — the system
// or variant — when the row has more than one, how many times the
// contract runs it, and its body, run with i = 0 … iters-1.
// BenchmarkContract times the same body as <key>[/<side>].
type loop struct {
	key, side string
	iters     int
	body      func(i int) error
}

func (l loop) run() error {
	for i := 0; i < l.iters; i++ {
		if err := l.body(i); err != nil {
			return err
		}
	}
	return nil
}

// walk is one system's fixtures, already built, and the loops over them
// in the order they run. Every loop is observed on devs; settle, when
// set, runs ahead of each loop, outside its window.
type walk struct {
	devs   []*nvm.Device
	settle func()
	loops  []loop
}

// builder builds a fresh walk. A contract lists its experiment's builders
// so that BenchmarkContract can rebuild a walk as often as it needs.
type builder func() (*walk, error)

// ready settles what the walk left for the next loop to pay, if anything.
func (w *walk) ready() {
	if w.settle != nil {
		w.settle()
	}
}

// sumStats sums the devices' counters.
func sumStats(devs []*nvm.Device) (s nvm.Stats) {
	for _, d := range devs {
		s = s.Add(d.Stats())
	}
	return s
}

// cell is one observed loop: each device's Stats delta, in the order of
// the walk's devs, and the process's Go-heap allocation delta. The device
// deltas are exact, single-goroutine counts; the allocation delta is
// repeatable on one Go release.
type cell struct {
	key           string
	ops           int
	dev           []nvm.Stats
	mallocs, heap uint64 // runtime.MemStats Mallocs / TotalAlloc
}

// observe runs every loop at its iters between two readings of the
// devices and of the Go allocator, both taken from outside the systems
// under test.
func (w *walk) observe() ([]cell, error) {
	cells := make([]cell, 0, len(w.loops))
	for _, l := range w.loops {
		w.ready()
		c := cell{key: l.key, ops: l.iters, dev: make([]nvm.Stats, len(w.devs))}
		for i, d := range w.devs {
			c.dev[i] = d.Stats()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := l.run()
		runtime.ReadMemStats(&m1)
		c.mallocs, c.heap = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		for i, d := range w.devs {
			c.dev[i] = d.Stats().Sub(c.dev[i])
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.key, err)
		}
		cells = append(cells, c)
	}
	return cells, nil
}

// observeAll builds and observes each walk in turn, one cell list each.
func observeAll(bs []builder) ([][]cell, error) {
	all := make([][]cell, len(bs))
	for i, b := range bs {
		w, err := b()
		if err != nil {
			return nil, err
		}
		if all[i], err = w.observe(); err != nil {
			return nil, err
		}
	}
	return all, nil
}

// per is a count per operation of the cell.
func (c cell) per(count uint64) float64 { return float64(count) / float64(c.ops) }

// total sums the cell's device deltas.
func (c cell) total() (s nvm.Stats) {
	for _, d := range c.dev {
		s = s.Add(d)
	}
	return s
}

// --- Figure 15: PJH vs PCJ microbenchmarks ---

// Fig15Row is one (data type, operation) cell: what an operation costs
// each system's device.
type Fig15Row struct {
	Op        string  `json:"op"`
	Series    string  `json:"series"` // the data type
	PCJReads  float64 `json:"pcj_reads_per_op"`
	PCJWrites float64 `json:"pcj_writes_per_op"`
	PCJLines  float64 `json:"pcj_flushed_lines_per_op"`
	PCJFences float64 `json:"pcj_fences_per_op"`
	EspReads  float64 `json:"espresso_reads_per_op"`
	EspWrites float64 `json:"espresso_writes_per_op"`
	EspLines  float64 `json:"espresso_flushed_lines_per_op"`
	EspFences float64 `json:"espresso_fences_per_op"`

	pcj, esp nvm.Stats // the undivided deltas
}

// fig15System is the fifteen operations Figure 15 times, over a system's
// own object handle H. *pcj.Heap and *pcollections.World have them all
// under the same names; pcjSystem and espressoSystem even out the two
// places their signatures differ.
type fig15System[H any] interface {
	NewLong(v int64) (H, error)
	SetLongValue(o H, v int64) error
	LongValue(o H) int64
	NewTuple(elems ...H) (H, error)
	TupleSet(o H, i int, v H) error
	TupleGet(o H, i int) H
	NewArray(n int) (H, error)
	ArraySet(o H, i int, v H) error
	ArrayGet(o H, i int) H
	NewList() (H, error)
	ListAdd(o H, v H) error
	ListSet(o H, i int, v H) error
	ListGet(o H, i int) (H, error)
	NewMap() (H, error)
	MapPut(m H, key int64, v H) error
	MapGet(m H, key int64) (H, bool)
}

// pcjSystem gives PCJ's setters, which cannot fail, the error return
// Espresso's have.
type pcjSystem struct{ *pcj.Heap }

func (s pcjSystem) SetLongValue(o pcj.Obj, v int64) error {
	s.Heap.SetLongValue(o, v)
	return nil
}
func (s pcjSystem) TupleSet(o pcj.Obj, i int, v pcj.Obj) error {
	s.Heap.TupleSet(o, i, v)
	return nil
}
func (s pcjSystem) ArraySet(o pcj.Obj, i int, v pcj.Obj) error {
	s.Heap.ArraySet(o, i, v)
	return nil
}
func (s pcjSystem) ListSet(o pcj.Obj, i int, v pcj.Obj) error {
	s.Heap.ListSet(o, i, v)
	return nil
}
func (s pcjSystem) ListGet(o pcj.Obj, i int) (pcj.Obj, error) { return s.Heap.ListGet(o, i), nil }

// espressoSystem gives Espresso's sized constructors the sizes Figure 15
// starts them at.
type espressoSystem struct{ *pcollections.World }

func (s espressoSystem) NewList() (layout.Ref, error) { return s.World.NewList(8) }
func (s espressoSystem) NewMap() (layout.Ref, error)  { return s.World.NewMap(64) }

var fig15Ops = [3]string{"Create", "Set", "Get"}

// fig15Walk builds the five data types of §6.2 on s — fixtures first,
// then each type's create, set and get loops over them, keyed
// <op>/<type> — at n operations a loop, as side. settle runs ahead of
// each loop: on the Espresso side it settles the header the fixtures or
// the previous loop's last allocation left deferred
// (pheap.Heap.PersistTops), so each loop pays for its own objects only.
func fig15Walk[H any](s fig15System[H], side string, dev *nvm.Device, settle func(), n int) (*walk, error) {
	const arrLen, mapKeys = 1024, 4096
	var errs []error
	fixture := func(h H, err error) H {
		errs = append(errs, err)
		return h
	}
	box := fixture(s.NewLong(0))
	list := fixture(s.NewList())
	arr := fixture(s.NewArray(arrLen))
	tup := fixture(s.NewTuple(box, box, box))
	m := fixture(s.NewMap())
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("%s fixtures: %w", side, err)
	}
	mapPut := func(i int) error { return s.MapPut(m, int64(i%mapKeys), box) }
	w := &walk{devs: []*nvm.Device{dev}, settle: settle}
	for _, typ := range []struct {
		name string
		ops  [3]loop // iters and body; the key and side are filled in
	}{
		{"ArrayList", [3]loop{
			{iters: n, body: func(int) error { return s.ListAdd(list, box) }},
			{iters: n, body: func(i int) error { return s.ListSet(list, i%n, box) }},
			{iters: n, body: func(i int) error { _, err := s.ListGet(list, i%n); return err }},
		}},
		{"Generic", [3]loop{
			{iters: n/arrLen + 1, body: func(int) error { _, err := s.NewArray(arrLen); return err }},
			{iters: n, body: func(i int) error { return s.ArraySet(arr, i%arrLen, box) }},
			{iters: n, body: func(i int) error { s.ArrayGet(arr, i%arrLen); return nil }},
		}},
		{"Tuple", [3]loop{
			{iters: n, body: func(int) error { _, err := s.NewTuple(box, box, box); return err }},
			{iters: n, body: func(i int) error { return s.TupleSet(tup, i%3, box) }},
			{iters: n, body: func(i int) error { s.TupleGet(tup, i%3); return nil }},
		}},
		// Boxed long, the PersistentLong case.
		{"Primitive", [3]loop{
			{iters: n, body: func(i int) error { _, err := s.NewLong(int64(i)); return err }},
			{iters: n, body: func(i int) error { return s.SetLongValue(box, int64(i)) }},
			{iters: n, body: func(int) error { s.LongValue(box); return nil }},
		}},
		// Create fills the map's key range; Set overwrites it.
		{"Hashmap", [3]loop{
			{iters: n, body: mapPut},
			{iters: n, body: mapPut},
			{iters: n, body: func(i int) error { s.MapGet(m, int64(i%mapKeys)); return nil }},
		}},
	} {
		for o, l := range typ.ops {
			l.key, l.side = fig15Ops[o]+"/"+typ.name, side
			w.loops = append(w.loops, l)
		}
	}
	return w, nil
}

// fig15Walks are Figure 15's two sides: PCJ with its built-in
// transactions, and Espresso's pcollections on the heap's undo log.
func fig15Walks(scale Scale) []builder {
	n := scale.div(100000)
	return []builder{
		func() (*walk, error) {
			h := pcj.New(pcj.Config{Size: 512 << 20, Mode: nvm.Direct})
			return fig15Walk[pcj.Obj](pcjSystem{h}, "pcj", h.Device(), nil, n)
		},
		func() (*walk, error) {
			ph, err := pheap.Create(klass.NewRegistry(), pheap.Config{DataSize: 256 << 20, Mode: nvm.Direct})
			if err != nil {
				return nil, err
			}
			world, err := pcollections.NewWorld(ph)
			if err != nil {
				return nil, err
			}
			return fig15Walk[layout.Ref](espressoSystem{world}, "espresso", ph.Device(), ph.PersistTops, n)
		},
	}
}

// Fig15 runs create/set/get on the five data types of §6.2 over both
// systems, both with ACID semantics (PCJ's built-in transactions vs
// Espresso's undo log).
// Paper: normalized speedup PJH over PCJ up to 256.3x (tuple set), ≥6.0x
// on gets.
func Fig15(scale Scale) ([]Fig15Row, error) {
	sides, err := observeAll(fig15Walks(scale))
	if err != nil {
		return nil, fmt.Errorf("fig15 %w", err)
	}
	rows := make([]Fig15Row, len(sides[0]))
	for i, p := range sides[0] {
		e := sides[1][i]
		pd, ed := p.dev[0], e.dev[0]
		op, series, _ := strings.Cut(p.key, "/")
		rows[i] = Fig15Row{Op: op, Series: series, pcj: pd, esp: ed,
			PCJReads: p.per(pd.Reads), PCJWrites: p.per(pd.Writes), PCJLines: p.per(pd.FlushedLines), PCJFences: p.per(pd.Fences),
			EspReads: e.per(ed.Reads), EspWrites: e.per(ed.Writes), EspLines: e.per(ed.FlushedLines), EspFences: e.per(ed.Fences)}
	}
	return rows, nil
}

// --- Figures 16/17: JPAB, H2-JPA vs H2-PJO ---

// Fig16Row is one (JPAB test, phase) cell, per operation (one MakeBatch
// entity, one Fetch, one Touch, one Drop — CollectionTest's Drop is five
// transactions): what it costs the database device under H2-JPA, the
// persistent heap's and the database's under H2-PJO, and the Go objects
// each provider allocates for it — the transformation PJO deletes,
// counted without a clock.
type Fig16Row struct {
	Op            string  `json:"op"`
	Series        string  `json:"series"` // the JPAB test
	JPAReads      float64 `json:"jpa_reads_per_op"`
	JPAWrites     float64 `json:"jpa_writes_per_op"`
	JPALines      float64 `json:"jpa_flushed_lines_per_op"`
	JPAFences     float64 `json:"jpa_fences_per_op"`
	PJOReads      float64 `json:"pjo_reads_per_op"`  // both devices
	PJOWrites     float64 `json:"pjo_writes_per_op"` // both devices
	HeapLines     float64 `json:"pjo_heap_flushed_lines_per_op"`
	HeapFences    float64 `json:"pjo_heap_fences_per_op"`
	H2Lines       float64 `json:"pjo_h2_flushed_lines_per_op"`
	H2Fences      float64 `json:"pjo_h2_fences_per_op"`
	JPAAllocs     float64 `json:"jpa_allocs_per_op"`
	PJOAllocs     float64 `json:"pjo_allocs_per_op"`
	JPAAllocBytes float64 `json:"jpa_alloc_bytes_per_op"`
	PJOAllocBytes float64 `json:"pjo_alloc_bytes_per_op"`
	AllocRatio    float64 `json:"allocs_pjo_over_jpa"`
	// AllocCeiling is the figure's claim in counts; the contract test
	// bounds AllocRatio by the baseline's copy.
	AllocCeiling float64 `json:"allocs_pjo_over_jpa_ceiling"`

	jpa, pjo nvm.Stats // the undivided deltas; pjo sums its two devices
}

// fig16AllocFields are the columns of every fig16 row that a Go release
// may move; allocs_pjo_over_jpa_ceiling holds them instead.
var fig16AllocFields = []string{"jpa_allocs_per_op", "pjo_allocs_per_op",
	"jpa_alloc_bytes_per_op", "pjo_alloc_bytes_per_op", "allocs_pjo_over_jpa"}

// fig16Batch is the create batch size, the wall-clock benchmark's.
const fig16Batch = 50

// stackSize scales the backing stores with the workload so small test
// runs do not spend their time (and flush the page cache) zero-filling
// hundreds of megabytes they never touch.
func stackSize(scale Scale) int {
	if scale <= 1 {
		return 128 << 20
	}
	size := (128 << 20) / int(scale)
	if size < 16<<20 {
		size = 16 << 20
	}
	return size
}

// jpabStack is a JPA provider of either kind — Figure 16's side — with
// the devices under it (the database's; for PJO the persistent heap's
// first) and its profile hook.
type jpabStack struct {
	side    string
	em      jpa.EntityManager
	devs    []*nvm.Device
	profile func(bench.Profiler)
}

var jpabStacks = []func(Scale) (jpabStack, error){newJPAStack, newPJOStack}

func newJPAStack(scale Scale) (jpabStack, error) {
	db, err := h2.New(stackSize(scale), nvm.Direct)
	if err != nil {
		return jpabStack{}, err
	}
	p := jpa.NewProvider(db)
	return jpabStack{"jpa", p, []*nvm.Device{db.Device()}, p.SetProfile}, nil
}

func newPJOStack(scale Scale) (jpabStack, error) {
	db, err := h2.New(stackSize(scale), nvm.Direct)
	if err != nil {
		return jpabStack{}, err
	}
	rt, err := core.NewRuntime(core.Config{PJHDataSize: stackSize(scale)})
	if err != nil {
		return jpabStack{}, err
	}
	h, err := rt.CreateHeap("pjo-bench", 0)
	if err != nil {
		return jpabStack{}, err
	}
	p := pjo.NewProvider(rt, db)
	return jpabStack{"pjo", p, []*nvm.Device{h.Device(), db.Device()}, p.SetProfile}, nil
}

// jpabWalk sets test's schema up on s and walks its four phases over n
// entities: create in batches of fig16Batch (a batch's first entity
// persists it), then retrieve, update and delete one entity at a time,
// each keyed <phase>/<test>.
func jpabWalk(test *jpab.Test, s jpabStack, n int) (*walk, error) {
	em, side := s.em, s.side
	for _, def := range test.Defs {
		if err := em.EnsureSchema(def); err != nil {
			return nil, err
		}
	}
	return &walk{devs: s.devs, loops: []loop{
		{"create/" + test.Name, side, n, func(i int) error {
			if i%fig16Batch != 0 {
				return nil
			}
			return test.MakeBatch(em, int64(i), min(fig16Batch, n-i))
		}},
		{"retrieve/" + test.Name, side, n, func(i int) error { return test.Fetch(em, int64(i)) }},
		{"update/" + test.Name, side, n, func(i int) error { return test.Touch(em, int64(i)) }},
		{"delete/" + test.Name, side, n, func(i int) error { return test.Drop(em, int64(i)) }},
	}}, nil
}

// fig16Walks are each JPAB test on a fresh H2-JPA stack, then on a fresh
// H2-PJO one.
func fig16Walks(scale Scale) []builder {
	n := max(scale.div(6000), 2*fig16Batch)
	var bs []builder
	for _, test := range jpab.AllTests() {
		for _, mk := range jpabStacks {
			bs = append(bs, func() (*walk, error) {
				s, err := mk(scale)
				if err != nil {
					return nil, err
				}
				return jpabWalk(test, s, n)
			})
		}
	}
	return bs
}

// Fig16 runs the four JPAB tests over both providers.
// Paper: H2-PJO beats H2-JPA everywhere, up to 3.24x.
func Fig16(scale Scale) ([]Fig16Row, error) {
	walks, err := observeAll(fig16Walks(scale))
	if err != nil {
		return nil, fmt.Errorf("fig16 %w", err)
	}
	var rows []Fig16Row
	for t := 0; t < len(walks); t += 2 {
		for i, j := range walks[t] {
			p := walks[t+1][i]
			db, heap, pdb := j.dev[0], p.dev[0], p.dev[1]
			op, series, _ := strings.Cut(j.key, "/")
			rows = append(rows, Fig16Row{Op: op, Series: series, jpa: db, pjo: heap.Add(pdb),
				JPAReads: j.per(db.Reads), JPAWrites: j.per(db.Writes),
				JPALines: j.per(db.FlushedLines), JPAFences: j.per(db.Fences),
				PJOReads: p.per(heap.Reads + pdb.Reads), PJOWrites: p.per(heap.Writes + pdb.Writes),
				HeapLines: p.per(heap.FlushedLines), HeapFences: p.per(heap.Fences),
				H2Lines: p.per(pdb.FlushedLines), H2Fences: p.per(pdb.Fences),
				JPAAllocs: j.per(j.mallocs), PJOAllocs: p.per(p.mallocs),
				JPAAllocBytes: j.per(j.heap), PJOAllocBytes: p.per(p.heap),
				AllocRatio: float64(p.mallocs) / float64(j.mallocs), AllocCeiling: 0.5})
		}
	}
	return rows, nil
}

// Fig17Row is one BasicTest operation's Figure 17 bars in counts: the Go
// objects each provider allocates per operation inside its
// transformation phase (entity to SQL text and back, or to a
// DBPersistable) and its database phase (H2).
type Fig17Row struct {
	Op                string  `json:"op"`
	Series            string  `json:"series"` // the JPAB test
	JPATransformation float64 `json:"jpa_transformation_allocs_per_op"`
	JPADatabase       float64 `json:"jpa_database_allocs_per_op"`
	PJOTransformation float64 `json:"pjo_transformation_allocs_per_op"`
	PJODatabase       float64 `json:"pjo_database_allocs_per_op"`
	// Figure 4 in counts (its floor is on create), and Figure 17: what is
	// left of JPA's transformation under PJO (its ceiling is on every op).
	JPARatio   float64 `json:"jpa_transformation_over_database"`
	JPAFloor   float64 `json:"jpa_transformation_over_database_floor,omitempty"`
	PJORatio   float64 `json:"pjo_over_jpa_transformation"`
	PJOCeiling float64 `json:"pjo_over_jpa_transformation_ceiling"`
}

// fig17AllocFields are the columns a Go release may move; the floor and
// the ceiling hold them instead.
var fig17AllocFields = []string{"jpa_transformation_allocs_per_op", "jpa_database_allocs_per_op",
	"pjo_transformation_allocs_per_op", "pjo_database_allocs_per_op",
	"jpa_transformation_over_database", "pjo_over_jpa_transformation"}

// Fig17 runs BasicTest's four loops — Figure 16's bodies — on a fresh
// stack of each provider with an allocation counter installed in the
// provider's phase hook: a walk of its own, so Figure 16's cells do not
// move.
// Paper: transformation is 41.9% of a JPA persist (Figure 4); PJO removes
// nearly all of it (Figure 17).
func Fig17(scale Scale) ([]Fig17Row, error) {
	n := max(scale.div(2000), 2*fig16Batch)
	test := jpab.BasicTest()
	var ops []string
	var counts [2][]*bench.Counter // JPA's and PJO's, one per op
	for i, mk := range jpabStacks {
		s, err := mk(scale)
		if err != nil {
			return nil, err
		}
		w, err := jpabWalk(test, s, n)
		if err != nil {
			return nil, fmt.Errorf("fig17 %w", err)
		}
		ops = ops[:0]
		for _, l := range w.loops {
			c := bench.NewCounter(nil)
			s.profile(c)
			err := l.run()
			s.profile(nil)
			if err != nil {
				return nil, fmt.Errorf("fig17 %s: %w", l.key, err)
			}
			op, _, _ := strings.Cut(l.key, "/")
			ops, counts[i] = append(ops, op), append(counts[i], c)
		}
	}
	rows := make([]Fig17Row, len(ops))
	for k, op := range ops {
		per := func(c *bench.Counter, phase string) float64 { return float64(c.Get(phase).Allocs) / float64(n) }
		jpa, pjo := counts[0][k], counts[1][k]
		r := Fig17Row{Op: op, Series: test.Name,
			JPATransformation: per(jpa, "Transformation"), JPADatabase: per(jpa, "Database"),
			PJOTransformation: per(pjo, "Transformation"), PJODatabase: per(pjo, "Database"),
			PJOCeiling: 0.25}
		r.JPARatio = r.JPATransformation / r.JPADatabase
		r.PJORatio = r.PJOTransformation / r.JPATransformation
		if op == "create" {
			r.JPAFloor = 5
		}
		rows[k] = r
	}
	return rows, nil
}

// --- Figure 18: heap loading time ---

// Fig18Row is loadHeap over one image under both safety levels: the
// device reads a user-guaranteed load and a zeroing load (the load plus
// the whole-heap scan) cost.
type Fig18Row struct {
	Series  string  `json:"series"` // "closed": imaged after an orderly shutdown; "unclosed": with the last PLAB open
	Objects int     `json:"objects"`
	Regions int     `json:"regions"`
	UGReads float64 `json:"ug_reads"`
	// UGCeiling bounds an unclosed image's load: the closed image's reads
	// plus three per object the forward parse can find above one region's
	// persisted top.
	UGCeiling          float64 `json:"ug_reads_ceiling,omitempty"`
	ZeroReads          float64 `json:"zero_reads"`
	ZeroReadsPerObject float64 `json:"zero_reads_per_object"`
}

// fig18Rows lays the figure's x axis out: ten closed images of up to
// 2M/scale objects, then the largest once more, unclosed.
func fig18Rows(scale Scale) []Fig18Row {
	step := max(scale.div(2000000)/10, 1)
	rows := make([]Fig18Row, 11)
	for i := range rows {
		rows[i] = Fig18Row{Series: "closed", Objects: (i + 1) * step}
	}
	rows[10] = Fig18Row{Series: "unclosed", Objects: 10 * step}
	return rows
}

// fig18Walks image each row's heap and load two copies of the image,
// keyed <series>/<objects>: user-guaranteed — metadata + Klass
// reinitialization only — and zeroing, the load and the whole-heap scan
// after it, which fills the row's Regions.
func fig18Walks(rows []Fig18Row) []builder {
	var bs []builder
	for i := range rows {
		row := &rows[i]
		bs = append(bs, func() (*walk, error) {
			img, err := buildFig18Image(row.Objects, row.Series == "closed")
			if err != nil {
				return nil, err
			}
			ug, zero := nvm.FromImage(img, nvm.Config{}), nvm.FromImage(img, nvm.Config{})
			load := func(dev *nvm.Device, zeroing bool) func(int) error {
				return func(int) error {
					h, err := pheap.Load(dev, klass.NewRegistry())
					if err != nil || !zeroing {
						return err
					}
					row.Regions = h.Geo().DataRegions()
					_, err = h.ZeroingScan(h.Contains)
					return err
				}
			}
			key := fmt.Sprintf("%s/%d", row.Series, row.Objects)
			return &walk{devs: []*nvm.Device{ug, zero},
				loops: []loop{{key, "ug", 1, load(ug, false)}, {key, "zero", 1, load(zero, true)}}}, nil
		})
	}
	return bs
}

// Fig18 builds heaps of 0.2M–2M objects across 20 Klasses and observes
// loadHeap under user-guaranteed and zeroing safety, then once more on
// the largest heap imaged without closing it.
// Paper: UG flat (∝ #Klasses), Zero linear (whole-heap scan); ~72.76 ms
// at 2M objects.
func Fig18(scale Scale) ([]Fig18Row, error) {
	rows := fig18Rows(scale)
	walks, err := observeAll(fig18Walks(rows))
	if err != nil {
		return nil, err
	}
	for i, cells := range walks {
		row := &rows[i]
		row.UGReads, row.ZeroReads = float64(cells[0].total().Reads), float64(cells[1].total().Reads)
		row.ZeroReadsPerObject = row.ZeroReads / float64(row.Objects)
	}
	rows[10].UGCeiling = rows[9].UGReads + 3*float64(layout.RegionSize/fig18ObjectSize)
	return rows, nil
}

// fig18ObjectSize is one of buildFig18Image's objects: a header and two
// fields.
const fig18ObjectSize = layout.HeaderBytes + 2*layout.WordSize

// buildFig18Image allocates objects across 20 Klasses and images the
// heap, after an orderly shutdown (closed: every region top persisted) or
// with the last PLAB's top still trailing its objects.
func buildFig18Image(objects int, closed bool) ([]byte, error) {
	reg := klass.NewRegistry()
	h, err := pheap.Create(reg, pheap.Config{DataSize: objects*48 + (8 << 20), Mode: nvm.Tracked})
	if err != nil {
		return nil, err
	}
	// 20 distinct Klasses, as in the paper's microbenchmark.
	klasses := make([]*klass.Klass, 20)
	for i := range klasses {
		klasses[i], err = reg.Define(klass.MustInstance(fmt.Sprintf("bench/K%d", i), nil,
			klass.Field{Name: "a", Type: layout.FTLong},
			klass.Field{Name: "b", Type: layout.FTRef},
		))
		if err != nil {
			return nil, err
		}
	}
	var prev layout.Ref
	for i := 0; i < objects; i++ {
		ref, err := h.Alloc(klasses[i%20], 0)
		if err != nil {
			return nil, err
		}
		// Half the refs point intra-heap, some point "volatile" so the
		// zeroing scan has real work.
		if i%2 == 0 && prev != 0 {
			h.SetWord(ref, layout.FieldOff(1), uint64(prev))
		} else if i%5 == 1 {
			h.SetWord(ref, layout.FieldOff(1), uint64(layout.YoungBase+layout.Ref(i*16)))
		}
		prev = ref
	}
	if err := h.SetRoot("head", prev); err != nil {
		return nil, err
	}
	if closed {
		h.PersistTops()
	}
	h.Device().FlushAll()
	return h.Device().CrashImage(nvm.CrashFlushedOnly, 0), nil
}

// --- §6.4: recoverable GC flush cost ---

// GCFlushRow is one crash-consistent collection (§6.4): what it costs the
// device.
type GCFlushRow struct {
	Series       string `json:"series"`
	LiveBytes    int    `json:"live_bytes"`
	Reads        uint64 `json:"reads"`
	Writes       uint64 `json:"writes"`
	FlushedLines uint64 `json:"flushed_lines"`
	Fences       uint64 `json:"fences"`
}

// gcflushWalk allocates 256 MB / scale of rooted objects, each behind a
// dead one it slides down over, on PJH, loads a crash image of that heap
// and collects it once, keyed collect, as side: "clflush", or
// "no-clflush" with the device's flushes off (nvm.Device.SetNoFlush). The
// collection fills row.LiveBytes.
//
// The paper's device is a battery-backed NVDIMM — DRAM-speed media — so
// a clflush costs the cache-line writeback, not slow-media latency. The
// device therefore runs in Tracked mode (each flush really copies its
// lines to the persisted view, the writeback analog) with no added media
// latency, and the clflush overhead is the flush work itself: the two
// sides' ns/op in BenchmarkContract/gcflush.
func gcflushWalk(scale Scale, side string, row *GCFlushRow) (*walk, error) {
	liveBytes := scale.div(256 << 20)
	reg := klass.NewRegistry()
	h0, err := pheap.Create(reg, pheap.Config{DataSize: liveBytes*3 + (16 << 20), Mode: nvm.Tracked})
	if err != nil {
		return nil, err
	}
	node, err := reg.Define(klass.MustInstance("bench/GCNode", nil, klass.Field{Name: "next", Type: layout.FTRef},
		klass.Field{Name: "pad1", Type: layout.FTLong}, klass.Field{Name: "pad2", Type: layout.FTLong},
		klass.Field{Name: "pad3", Type: layout.FTLong}))
	if err != nil {
		return nil, err
	}
	var prev layout.Ref
	for allocated := 0; allocated < liveBytes; allocated += node.SizeOf(0) {
		// Interleave garbage so the collector has moving to do.
		if _, err := h0.Alloc(node, 0); err != nil {
			return nil, err
		}
		ref, err := h0.Alloc(node, 0)
		if err != nil {
			return nil, err
		}
		h0.SetWord(ref, layout.FieldOff(0), uint64(prev))
		prev = ref
	}
	if err := h0.SetRoot("chain", prev); err != nil {
		return nil, err
	}
	h0.Device().FlushAll()
	img := h0.Device().CrashImage(nvm.CrashFlushedOnly, 0)
	h, err := pheap.Load(nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
	if err != nil {
		return nil, err
	}
	h.Device().SetNoFlush(side == "no-clflush")
	return &walk{devs: []*nvm.Device{h.Device()}, loops: []loop{{"collect", side, 1, func(int) error {
		res, err := pgc.Collect(h, pgc.NoRoots{})
		row.LiveBytes = res.LiveBytes
		return err
	}}}}, nil
}

func gcflushWalks(scale Scale) []builder {
	var bs []builder
	for _, side := range []string{"clflush", "no-clflush"} {
		bs = append(bs, func() (*walk, error) { return gcflushWalk(scale, side, &GCFlushRow{}) })
	}
	return bs
}

// GCFlush counts one crash-consistent collection's device ops.
// Paper: flushes add 17.8% to the pause.
func GCFlush(scale Scale) ([]GCFlushRow, error) {
	row := GCFlushRow{Series: "collect"}
	w, err := gcflushWalk(scale, "clflush", &row)
	if err != nil {
		return nil, err
	}
	cells, err := w.observe()
	if err != nil {
		return nil, err
	}
	d := cells[0].total()
	row.Reads, row.Writes, row.FlushedLines, row.Fences = d.Reads, d.Writes, d.FlushedLines, d.Fences
	return []GCFlushRow{row}, nil
}
