// Package experiments regenerates every table and figure of the paper's
// motivation and evaluation sections (the per-experiment index lives in
// docs/benchmarks.md). Each experiment builds the real systems, runs the real
// workloads, and prints rows/series shaped like the paper's plots.
//
// Absolute numbers differ from the paper — the substrate is a simulated
// NVM device, not a Xeon with Viking NVDIMMs — so experiments report the
// *shape*: who wins, by what factor, and where time goes. NVM media cost
// is modelled as write latency per flushed line (nvm.ModeledLineLatency)
// and included in reported times, since flush traffic is precisely what
// the paper's hardware charges for.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

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
	v := n / int(s)
	if v < 1 {
		return 1
	}
	return v
}

// --- Figure 4: JPA commit breakdown ---

// Fig4 reproduces the DataNucleus commit breakdown (§2.1): database
// execution vs object→SQL transformation vs other, measured on the real
// JPA provider running the JPAB BasicTest workload.
// Paper: Database 24.0%, Transformation 41.9%, Other 34.1%.
func Fig4(w io.Writer, scale Scale) error {
	db, err := h2.New(64<<20, nvm.Direct)
	if err != nil {
		return err
	}
	p := jpa.NewProvider(db)
	prof := bench.NewBreakdown()
	p.SetProfile(prof)
	test := jpab.BasicTest()
	if _, err := jpab.Run(test, p, scale.div(4000), 50); err != nil {
		return err
	}
	prof.PrintFractions(w, "Figure 4 — JPA (DataNucleus-style) commit breakdown")
	fmt.Fprintln(w, "paper: Database 24.0%  Transformation 41.9%  Other 34.1%")
	return nil
}

// --- Figure 6: PCJ create breakdown ---

// Fig6 reproduces the PCJ create-operation breakdown (§2.2): 200,000
// PersistentLong objects, time split across transaction, GC (refcount),
// metadata (type-information memorization), allocation, and data.
// Paper: Data 1.8%, Metadata 36.8%, GC 14.8% (+ allocation, transaction).
func Fig6(w io.Writer, scale Scale) error {
	h := pcj.New(pcj.Config{Size: 256 << 20, Mode: nvm.Direct})
	prof := bench.NewBreakdown()
	h.SetProfile(prof)
	n := scale.div(200000)
	for i := 0; i < n; i++ {
		if _, err := h.NewLong(int64(i)); err != nil {
			return err
		}
	}
	h.SetProfile(nil)
	prof.PrintFractions(w, fmt.Sprintf("Figure 6 — PCJ create breakdown (%d PersistentLong objects)", n))
	fmt.Fprintln(w, "paper: Data 1.8%  Metadata 36.8%  GC 14.8%  (rest: allocation, transaction, other)")
	return nil
}

// --- The observer Figures 15, 16 and 18 share ---

// cell is one observed loop of ops operations: each watched device's
// Stats delta, the process's Go-heap allocation delta, and the wall time.
// The device deltas are exact, single-goroutine counts; the allocation
// delta is repeatable on one Go release; the wall time is printed and
// held by nothing.
type cell struct {
	series, op    string
	ops           int
	dev           []nvm.Stats // in the order the devices were given
	mallocs, heap uint64      // runtime.MemStats Mallocs / TotalAlloc
	wall          time.Duration
}

// observe runs one loop between two readings of devs and of the Go
// allocator, both taken from outside the systems under test.
func observe(series, op string, ops int, devs []*nvm.Device, run func() error) (cell, error) {
	c := cell{series: series, op: op, ops: ops, dev: make([]nvm.Stats, len(devs))}
	for i, d := range devs {
		c.dev[i] = d.Stats()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := run()
	c.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	c.mallocs, c.heap = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	for i, d := range devs {
		c.dev[i] = d.Stats().Sub(c.dev[i])
	}
	return c, err
}

// per is a count per operation of the cell.
func (c cell) per(count uint64) float64 { return float64(count) / float64(c.ops) }

// --- Figure 15: PJH vs PCJ microbenchmarks ---

// Fig15Row is one (data type, operation) cell: what an operation costs
// each system's device, and — printed, not held — the time it took.
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
	PCJNs     float64 `json:"-" col:"pcj_ns_per_op"`
	EspNs     float64 `json:"-" col:"espresso_ns_per_op"`
	Speedup   float64 `json:"-" col:"speedup"`

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

// fig15Type is one data type's three observed loops — create, set, get —
// each an iteration count and the loop body.
type fig15Type struct {
	name string
	ops  [3]fig15Loop
}

type fig15Loop struct {
	iters int
	body  func(i int) error
}

var fig15Ops = [3]string{"Create", "Set", "Get"}

// fig15Types builds the five data types of §6.2 on s — fixtures first,
// then the table of loops over them — at n operations per loop.
func fig15Types[H any](s fig15System[H], n int) ([]fig15Type, error) {
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
		return nil, err
	}
	type loops = [3]fig15Loop
	mapPut := func(i int) error { return s.MapPut(m, int64(i%mapKeys), box) }
	return []fig15Type{
		{"ArrayList", loops{
			{n, func(int) error { return s.ListAdd(list, box) }},
			{n, func(i int) error { return s.ListSet(list, i%n, box) }},
			{n, func(i int) error { _, err := s.ListGet(list, i%n); return err }},
		}},
		{"Generic", loops{
			{n/arrLen + 1, func(int) error { _, err := s.NewArray(arrLen); return err }},
			{n, func(i int) error { return s.ArraySet(arr, i%arrLen, box) }},
			{n, func(i int) error { s.ArrayGet(arr, i%arrLen); return nil }},
		}},
		{"Tuple", loops{
			{n, func(int) error { _, err := s.NewTuple(box, box, box); return err }},
			{n, func(i int) error { return s.TupleSet(tup, i%3, box) }},
			{n, func(i int) error { s.TupleGet(tup, i%3); return nil }},
		}},
		// Boxed long, the PersistentLong case.
		{"Primitive", loops{
			{n, func(i int) error { _, err := s.NewLong(int64(i)); return err }},
			{n, func(i int) error { return s.SetLongValue(box, int64(i)) }},
			{n, func(int) error { s.LongValue(box); return nil }},
		}},
		// Create fills the map's key range; Set overwrites it.
		{"Hashmap", loops{
			{n, mapPut},
			{n, mapPut},
			{n, func(i int) error { s.MapGet(m, int64(i%mapKeys)); return nil }},
		}},
	}, nil
}

// fig15Side runs the whole table once on one system, observing its
// device around every loop. settle runs ahead of each loop, outside its
// window: on the Espresso side it settles the header the fixtures or the
// previous loop's last allocation left deferred (pheap.Heap.PersistTops),
// so each loop pays for its own objects only.
func fig15Side[H any](s fig15System[H], dev *nvm.Device, n int, settle func()) ([]cell, error) {
	types, err := fig15Types(s, n)
	if err != nil {
		return nil, fmt.Errorf("fixtures: %w", err)
	}
	var cells []cell
	for _, typ := range types {
		for o, loop := range typ.ops {
			settle()
			c, err := observe(typ.name, fig15Ops[o], loop.iters, []*nvm.Device{dev}, func() error {
				for i := 0; i < loop.iters; i++ {
					if err := loop.body(i); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", c.series, c.op, err)
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// Fig15 runs create/set/get on the five data types of §6.2 over both
// systems, both with ACID semantics (PCJ's built-in transactions vs
// Espresso's undo log).
// Paper: normalized speedup PJH over PCJ up to 256.3x (tuple set), ≥6.0x
// on gets.
func Fig15(scale Scale) ([]Fig15Row, error) {
	n := scale.div(100000)
	pcjHeap := pcj.New(pcj.Config{Size: 512 << 20, Mode: nvm.Direct})
	ph, err := pheap.Create(klass.NewRegistry(), pheap.Config{DataSize: 256 << 20, Mode: nvm.Direct})
	if err != nil {
		return nil, err
	}
	world, err := pcollections.NewWorld(ph)
	if err != nil {
		return nil, err
	}
	pcjCells, err := fig15Side[pcj.Obj](pcjSystem{pcjHeap}, pcjHeap.Device(), n, func() {})
	if err != nil {
		return nil, fmt.Errorf("fig15 pcj %w", err)
	}
	espCells, err := fig15Side[layout.Ref](espressoSystem{world}, ph.Device(), n, ph.PersistTops)
	if err != nil {
		return nil, fmt.Errorf("fig15 espresso %w", err)
	}
	rows := make([]Fig15Row, len(pcjCells))
	for i, p := range pcjCells {
		e := espCells[i]
		pd, ed := p.dev[0], e.dev[0]
		// A loop's reported time is its wall time plus the modeled media
		// time of the lines it flushed.
		ns := func(c cell) float64 { return c.per(uint64(c.wall + c.dev[0].ModeledFlushTime())) }
		rows[i] = Fig15Row{Op: p.op, Series: p.series, pcj: pd, esp: ed,
			PCJReads: p.per(pd.Reads), PCJWrites: p.per(pd.Writes), PCJLines: p.per(pd.FlushedLines), PCJFences: p.per(pd.Fences),
			EspReads: e.per(ed.Reads), EspWrites: e.per(ed.Writes), EspLines: e.per(ed.FlushedLines), EspFences: e.per(ed.Fences),
			PCJNs: ns(p), EspNs: ns(e), Speedup: ns(p) / ns(e)}
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
	JPARate      float64 `json:"-" col:"h2_jpa_ops_per_s"`
	PJORate      float64 `json:"-" col:"h2_pjo_ops_per_s"`
	Speedup      float64 `json:"-" col:"pjo_over_jpa"`

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

// jpabStack is a JPA provider of either kind with the devices under it
// (the database's; for PJO the persistent heap's first) and its profile
// hook.
type jpabStack struct {
	em      jpa.EntityManager
	devs    []*nvm.Device
	profile func(*bench.Breakdown)
}

func newJPAStack(scale Scale) (jpabStack, error) {
	db, err := h2.New(stackSize(scale), nvm.Direct)
	if err != nil {
		return jpabStack{}, err
	}
	p := jpa.NewProvider(db)
	return jpabStack{p, []*nvm.Device{db.Device()}, p.SetProfile}, nil
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
	return jpabStack{p, []*nvm.Device{h.Device(), db.Device()}, p.SetProfile}, nil
}

// jpabCells walks test's four phases on a fresh stack, observing its
// devices and the Go allocator around each.
func jpabCells(test *jpab.Test, mk func(Scale) (jpabStack, error), scale Scale, n int) ([]cell, error) {
	s, err := mk(scale)
	if err != nil {
		return nil, err
	}
	var cells []cell
	err = jpab.Phases(test, s.em, n, fig16Batch, func(op string, ops int, run func() error) error {
		c, err := observe(test.Name, op, ops, s.devs, run)
		cells = append(cells, c)
		return err
	})
	return cells, err
}

// Fig16 runs the four JPAB tests over both providers.
// Paper: H2-PJO beats H2-JPA everywhere, up to 3.24x.
func Fig16(scale Scale) ([]Fig16Row, error) {
	n := max(scale.div(6000), 2*fig16Batch)
	var rows []Fig16Row
	for _, test := range jpab.AllTests() {
		jpaCells, err := jpabCells(test, newJPAStack, scale, n)
		if err != nil {
			return nil, fmt.Errorf("fig16 JPA %w", err)
		}
		pjoCells, err := jpabCells(test, newPJOStack, scale, n)
		if err != nil {
			return nil, fmt.Errorf("fig16 PJO %w", err)
		}
		for i, j := range jpaCells {
			p := pjoCells[i]
			db, heap, pdb := j.dev[0], p.dev[0], p.dev[1]
			rate := func(c cell) float64 { return float64(c.ops) / c.wall.Seconds() }
			rows = append(rows, Fig16Row{Op: j.op, Series: j.series, jpa: db, pjo: heap.Add(pdb),
				JPAReads: j.per(db.Reads), JPAWrites: j.per(db.Writes),
				JPALines: j.per(db.FlushedLines), JPAFences: j.per(db.Fences),
				PJOReads: p.per(heap.Reads + pdb.Reads), PJOWrites: p.per(heap.Writes + pdb.Writes),
				HeapLines: p.per(heap.FlushedLines), HeapFences: p.per(heap.Fences),
				H2Lines: p.per(pdb.FlushedLines), H2Fences: p.per(pdb.Fences),
				JPAAllocs: j.per(j.mallocs), PJOAllocs: p.per(p.mallocs),
				JPAAllocBytes: j.per(j.heap), PJOAllocBytes: p.per(p.heap),
				AllocRatio: float64(p.mallocs) / float64(j.mallocs), AllocCeiling: 0.5,
				JPARate: rate(j), PJORate: rate(p), Speedup: rate(p) / rate(j)})
		}
	}
	return rows, nil
}

// Fig17 reruns BasicTest with phase profiles on both providers, printing
// the execution/transformation/other split per operation (paper's
// Figure 17 stacked bars).
func Fig17(w io.Writer, scale Scale) error {
	fmt.Fprintln(w, "Figure 17 — BasicTest time breakdown (Execution = database, Transformation, Other)")
	for _, sys := range []struct {
		name string
		mk   func(Scale) (jpabStack, error)
	}{{"H2-JPA", newJPAStack}, {"H2-PJO", newPJOStack}} {
		s, err := sys.mk(scale)
		if err != nil {
			return err
		}
		err = jpab.Phases(jpab.BasicTest(), s.em, scale.div(2000), fig16Batch, func(op string, _ int, run func() error) error {
			prof := bench.NewBreakdown()
			s.profile(prof)
			err := run()
			s.profile(nil)
			fr := prof.Fractions()
			fmt.Fprintf(w, "  %-7s %-9s total %-10v Execution %5.1f%%  Transformation %5.1f%%  Other %5.1f%%\n",
				sys.name, op, prof.Total().Round(time.Microsecond),
				fr["Database"]*100, fr["Transformation"]*100, fr["Other"]*100)
			return err
		})
		if err != nil {
			return fmt.Errorf("fig17 %s %w", sys.name, err)
		}
	}
	fmt.Fprintln(w, "paper: PJO removes nearly all transformation time; execution also drops for most ops")
	return nil
}

// --- Figure 18: heap loading time ---

// Fig18Row is loadHeap over one image under both safety levels: the
// device reads a user-guaranteed load and a zeroing load (the load plus
// the whole-heap scan) cost, and — printed, not held — how long each took.
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
	UGMillis           float64 `json:"-" col:"ug_ms"`
	ZeroMillis         float64 `json:"-" col:"zero_ms"`
}

// fig18Objects is the figure's x axis: ten object counts up to 2M/scale.
func fig18Objects(scale Scale) []int {
	step := max(scale.div(2000000)/10, 1)
	counts := make([]int, 10)
	for i := range counts {
		counts[i] = (i + 1) * step
	}
	return counts
}

// Fig18 builds heaps of 0.2M–2M objects across 20 Klasses and observes
// loadHeap under user-guaranteed and zeroing safety, then once more on
// the largest heap imaged without closing it.
// Paper: UG flat (∝ #Klasses), Zero linear (whole-heap scan); ~72.76 ms
// at 2M objects.
func Fig18(scale Scale) ([]Fig18Row, error) {
	var rows []Fig18Row
	for _, n := range fig18Objects(scale) {
		rows = append(rows, Fig18Row{Series: "closed", Objects: n})
	}
	closed := len(rows) - 1
	rows = append(rows, Fig18Row{Series: "unclosed", Objects: rows[closed].Objects})
	for i := range rows {
		row := &rows[i]
		img, err := buildFig18Image(row.Objects, row.Series == "closed")
		if err != nil {
			return nil, err
		}
		// load observes loadHeap on the image — user-guaranteed: metadata +
		// Klass reinitialization only — and, for zeroing, the whole-heap
		// scan after it.
		load := func(zeroing bool) (reads, ms float64, err error) {
			dev := nvm.FromImage(img, nvm.Config{})
			c, err := observe(row.Series, "load", row.Objects, []*nvm.Device{dev}, func() error {
				h, err := pheap.Load(dev, klass.NewRegistry())
				if err != nil || !zeroing {
					return err
				}
				row.Regions = h.Geo().DataRegions()
				_, err = h.ZeroingScan(h.Contains)
				return err
			})
			return float64(c.dev[0].Reads), float64(c.wall.Microseconds()) / 1000, err
		}
		if row.UGReads, row.UGMillis, err = load(false); err != nil {
			return nil, err
		}
		if row.ZeroReads, row.ZeroMillis, err = load(true); err != nil {
			return nil, err
		}
		row.ZeroReadsPerObject = row.ZeroReads / float64(row.Objects)
	}
	rows[closed+1].UGCeiling = rows[closed].UGReads + 3*float64(layout.RegionSize/fig18ObjectSize)
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

// GCFlushResult compares the crash-consistent collection's pause with and
// without clflush. FlushedLines is what the difference pays for: the lines
// the collection writes back, a function of the heap alone.
type GCFlushResult struct {
	WithFlush    time.Duration
	WithoutFlush time.Duration
	OverheadPct  float64
	LiveBytes    int
	FlushedLines uint64
}

// GCFlushCost allocates liveBytes of rooted objects plus garbage on PJH
// and measures a forced collection twice: flushes on and off.
// Paper: flushes add 17.8% to the pause.
//
// The paper's device is a battery-backed NVDIMM — DRAM-speed media — so
// a clflush costs the cache-line writeback, not slow-media latency. The
// device therefore runs in Tracked mode (each flush really copies its
// lines to the persisted view, the writeback analog) with no added media
// latency; the measured overhead is the flush work itself. The two pauses
// are one collection each, as timed as any wall clock here; the line count
// beside them is exact.
func GCFlushCost(liveBytes int) (GCFlushResult, error) {
	build := func() (*pheap.Heap, error) {
		reg := klass.NewRegistry()
		h, err := pheap.Create(reg, pheap.Config{
			DataSize: liveBytes*3 + (16 << 20), Mode: nvm.Tracked})
		if err != nil {
			return nil, err
		}
		node, err := reg.Define(klass.MustInstance("bench/GCNode", nil,
			klass.Field{Name: "next", Type: layout.FTRef},
			klass.Field{Name: "pad1", Type: layout.FTLong},
			klass.Field{Name: "pad2", Type: layout.FTLong},
			klass.Field{Name: "pad3", Type: layout.FTLong},
		))
		if err != nil {
			return nil, err
		}
		size := node.SizeOf(0)
		var prev layout.Ref
		for allocated := 0; allocated < liveBytes; allocated += size {
			// Interleave garbage so the collector has moving to do.
			if _, err := h.Alloc(node, 0); err != nil {
				return nil, err
			}
			ref, err := h.Alloc(node, 0)
			if err != nil {
				return nil, err
			}
			h.SetWord(ref, layout.FieldOff(0), uint64(prev))
			prev = ref
		}
		if err := h.SetRoot("chain", prev); err != nil {
			return nil, err
		}
		return h, nil
	}

	h0, err := build()
	if err != nil {
		return GCFlushResult{}, err
	}
	h0.Device().FlushAll()
	img := h0.Device().CrashImage(nvm.CrashFlushedOnly, 0)

	// Each measurement collects an identical copy of the image; a warmup
	// run first touches the allocator and page cache.
	collect := func(noFlush bool) (pgc.Result, error) {
		cp := make([]byte, len(img))
		copy(cp, img)
		h, err := pheap.Load(nvm.FromImage(cp, nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
		if err != nil {
			return pgc.Result{}, err
		}
		h.Device().SetNoFlush(noFlush)
		return pgc.Collect(h, pgc.NoRoots{})
	}
	if _, err := collect(false); err != nil { // warmup
		return GCFlushResult{}, err
	}
	with, err := collect(false)
	if err != nil {
		return GCFlushResult{}, err
	}
	without, err := collect(true)
	if err != nil {
		return GCFlushResult{}, err
	}
	return GCFlushResult{
		WithFlush:    with.PauseTime,
		WithoutFlush: without.PauseTime,
		OverheadPct:  (float64(with.PauseTime)/float64(without.PauseTime) - 1) * 100,
		LiveBytes:    with.LiveBytes,
		FlushedLines: with.DeviceStats.FlushedLines,
	}, nil
}

// PrintGCFlush renders the §6.4 result.
func PrintGCFlush(w io.Writer, r GCFlushResult) {
	fmt.Fprintf(w, "Recoverable GC pause (§6.4), %d live bytes:\n", r.LiveBytes)
	fmt.Fprintf(w, "  with clflush:    %v\n", r.WithFlush.Round(time.Microsecond))
	fmt.Fprintf(w, "  without clflush: %v\n", r.WithoutFlush.Round(time.Microsecond))
	fmt.Fprintf(w, "  overhead:        %.1f%%   (paper: 17.8%%)\n", r.OverheadPct)
	fmt.Fprintf(w, "  lines flushed:   %d\n", r.FlushedLines)
}
