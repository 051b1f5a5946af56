package experiments

import (
	"testing"

	"espresso/internal/core"
	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
)

// The experiments are exercised end to end at tiny scale so the figure
// harness itself is under test (shapes are asserted where they are
// scale-invariant).

const tiny = Scale(100)

// The figure tests assert on device and allocation counts only: they are
// the same at any scale, on any host, under the race detector.

// TestFig6MetadataDominatesData is Figure 6's shape in flushed lines: a
// create's metadata (the type name every PCJ object memorizes, through the
// undo log) is its largest phase and at least its data, and the phases
// account for every device op of the loop.
func TestFig6MetadataDominatesData(t *testing.T) {
	rows, err := Fig6(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("phases = %+v", rows)
	}
	cols := func(d nvm.Stats) [4]uint64 { return [4]uint64{d.Reads, d.Writes, d.FlushedLines, d.Fences} }
	var sum nvm.Stats
	byPhase := map[string]Fig6Row{}
	for _, r := range rows {
		sum = sum.Add(r.dev)
		byPhase[r.Series] = r
	}
	if cols(sum) != cols(rows[0].loop) {
		t.Errorf("the phases sum to %+v, the loop cost %+v", sum, rows[0].loop)
	}
	meta := byPhase["Metadata"]
	for _, r := range rows {
		if r.dev.FlushedLines > meta.dev.FlushedLines {
			t.Errorf("%s flushed %.2f lines per object, more than Metadata's %.2f", r.Series, r.Lines, meta.Lines)
		}
	}
	if data := byPhase["Data"]; meta.dev.FlushedLines < data.dev.FlushedLines {
		t.Errorf("Metadata flushed %.2f lines per object, Data %.2f", meta.Lines, data.Lines)
	}
}

func TestFig15EspressoWinsEverywhere(t *testing.T) {
	rows, err := Fig15(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 { // 5 types × 3 ops
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		p, e := r.pcj, r.esp
		if e.Reads > p.Reads || e.Writes > p.Writes || e.FlushedLines > p.FlushedLines || e.Fences > p.Fences {
			t.Errorf("%s/%s: Espresso costs the device more than PCJ: %+v vs %+v", r.Series, r.Op, e, p)
		}
		if r.Op != "Get" && e.FlushedLines >= p.FlushedLines {
			t.Errorf("%s/%s: Espresso flushes %d lines, PCJ %d", r.Series, r.Op, e.FlushedLines, p.FlushedLines)
		}
	}
}

func TestFig16PJOWinsEverywhere(t *testing.T) {
	rows, err := Fig16(Scale(50))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 { // 4 tests × 4 ops
		t.Fatalf("rows = %d", len(rows))
	}
	// The figure's four device columns (a JPA row is more bytes than the
	// key and reference PJO stores; the counts are what is compared).
	cols := func(d nvm.Stats) [4]uint64 { return [4]uint64{d.Reads, d.Writes, d.FlushedLines, d.Fences} }
	for _, r := range rows {
		// The win is host work: the objects the transformation allocates.
		if r.AllocRatio > r.AllocCeiling {
			t.Errorf("%s/%s: PJO allocates %.2fx JPA's objects (%.1f vs %.1f per op), ceiling %.2fx",
				r.Series, r.Op, r.AllocRatio, r.PJOAllocs, r.JPAAllocs, r.AllocCeiling)
		}
		switch r.Op {
		case "delete":
			if cols(r.pjo) != cols(r.jpa) {
				t.Errorf("%s/delete: the providers' device costs differ: PJO %+v, JPA %+v", r.Series, r.pjo, r.jpa)
			}
		case "retrieve":
			for sys, d := range map[string]nvm.Stats{"JPA": r.jpa, "PJO": r.pjo} {
				if d.Writes+d.Flushes+d.Fences != 0 {
					t.Errorf("%s/retrieve: %s wrote to a device: %+v", r.Series, sys, d)
				}
			}
		}
	}
}

// TestFig17PJORemovesTransformation is Figures 4 and 17 in Go
// allocations: JPA's transformation allocates several times what the
// database does on create, and PJO's is a small fraction of JPA's on
// every op. The floor and ceiling are the rows' own, as the contract
// holds them.
func TestFig17PJORemovesTransformation(t *testing.T) {
	rows, err := Fig17(Scale(2)) // 1 000 entities: enough windows that a span's late count is noise

	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.Op == "create" && !(r.JPARatio >= r.JPAFloor && r.JPAFloor == 5) {
			t.Errorf("create: JPA transformation allocates %.1f per op, database %.1f: %.2fx, floor %.0fx",
				r.JPATransformation, r.JPADatabase, r.JPARatio, r.JPAFloor)
		}
		if !(r.PJORatio <= r.PJOCeiling && r.PJOCeiling == 0.25) {
			t.Errorf("%s: PJO transformation allocates %.2f per op, JPA's %.1f: %.3fx, ceiling %.2fx",
				r.Op, r.PJOTransformation, r.JPATransformation, r.PJORatio, r.PJOCeiling)
		}
	}
}

func TestFig18UGFlatZeroGrows(t *testing.T) {
	rows, err := Fig18(Scale(20)) // up to 100k objects
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows = %d", len(rows))
	}
	closed, unclosed := rows[:10], rows[10]
	for i, r := range closed {
		// Zeroing reads every object; UG reads the metadata, whose only part
		// that grows with the heap is three words per region.
		if r.ZeroReadsPerObject < 2 {
			t.Errorf("%d objects: zeroing load read %.0f words, under 2 per object", r.Objects, r.ZeroReads)
		}
		if i > 0 {
			prev := closed[i-1]
			if grew, regions := r.UGReads-prev.UGReads, r.Regions-prev.Regions; grew > 3*float64(regions) {
				t.Errorf("%d → %d objects: UG load grew by %.0f reads over %d more regions", prev.Objects, r.Objects, grew, regions)
			}
		}
	}
	// An image taken without closing the heap is parsed forward above the
	// last persisted top, at most three reads per object of one region.
	last := closed[9]
	if unclosed.Objects != last.Objects || unclosed.UGReads <= last.UGReads || unclosed.UGReads > unclosed.UGCeiling {
		t.Errorf("unclosed image: UG load read %.0f words, want in (%.0f, %.0f]", unclosed.UGReads, last.UGReads, unclosed.UGCeiling)
	}
}

// TestFig18ObjectSchedule pins the figure's x axis, in particular at the
// CLI's default -scale 0, which once divided by zero.
func TestFig18ObjectSchedule(t *testing.T) {
	for scale, top := range map[Scale]int{0: 2000000, 1: 2000000, 20: 100000} {
		rows := fig18Rows(scale)
		if len(rows) != 11 || rows[0].Objects != top/10 || rows[9].Objects != top || rows[10].Objects != top {
			t.Errorf("scale %d: rows %+v, want ten steps up to %d and the last once more", scale, rows, top)
		}
	}
}

// TestScalingCurves runs every scaling curve at CI's shape (8 mutators;
// 4 shards × 2 mutators) and holds each to the same contract.
func TestScalingCurves(t *testing.T) {
	for _, tc := range []struct {
		name             string
		shards, mutators int
		// flat indexes the row the top row's per-op device cost is held
		// against: the 1-mutator row, or for shardedkv the 1-shard row at
		// the same mutator count.
		flat int
		// nonZero is the workload's proof-of-work column: the run left
		// entries / NVM→volatile edges / dispensed regions behind.
		nonZero func(Row) int
		// seed replays the 1-mutator row's ops through the seed's
		// serialized path on one goroutine (nil: the workload has none).
		seed func(t *testing.T, ops int) nvm.Stats
	}{
		{"alloc", 0, 8, 0, func(r Row) int { return r.RegionDispenses }, seedAlloc},
		{"kv", 0, 8, 0, func(r Row) int { return r.FinalEntries }, nil},
		{"refstore", 0, 8, 0, func(r Row) int { return r.RemsetSlots }, seedRefStore},
		{"shardedkv", 4, 2, 1, func(r Row) int { return r.FinalEntries }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows, err := Scaling(tc.name, Scale(50), tc.shards, tc.mutators)
			if err != nil {
				t.Fatal(err)
			}
			first, flat, top := rows[0], rows[tc.flat], rows[len(rows)-1]
			if first.Goroutines != 1 || flat.Goroutines != max(1, tc.flat*tc.mutators) ||
				top.Goroutines != tc.mutators || top.Shards != tc.shards {
				t.Fatalf("curve misses its endpoints: %+v", rows)
			}
			// The acceptance bar: ≥3x modeled throughput at the claim row,
			// which carries the floor the contract test enforces.
			if top.SpeedupFloor != 3 || top.ModeledSpeedup < top.SpeedupFloor {
				t.Fatalf("modeled speedup at the top of the curve = %.2fx, floor %.0fx", top.ModeledSpeedup, top.SpeedupFloor)
			}
			// More shards must beat the same mutator count on one shard: the
			// win comes from independent devices, not just more goroutines.
			if tc.flat != 0 && top.ModeledSpeedup <= flat.ModeledSpeedup {
				t.Fatalf("%d shards (%.2fx) did not beat 1 shard (%.2fx) at %d mutators",
					tc.shards, top.ModeledSpeedup, flat.ModeledSpeedup, tc.mutators)
			}
			// Per-op device costs must not grow with mutators or shards (no
			// shared persisted word on the hot path), within rounding.
			if top.DevWrites > flat.DevWrites*1.1+0.05 || top.FlushedLines > flat.FlushedLines*1.1+0.05 ||
				top.Fences > flat.Fences*1.1+0.05 {
				t.Fatalf("per-op device cost grew along the curve: %+v vs %+v", flat, top)
			}
			if tc.nonZero(top) == 0 {
				t.Fatalf("the run left nothing behind: %+v", top)
			}
			// One mutator on the scalable path must cost exactly what the
			// seed-equivalent serialized path costs: the same writes,
			// flushed lines and fences, to the word.
			if tc.seed != nil {
				got, want := first.raw, tc.seed(t, first.Ops+first.Allocs)
				if got.Writes != want.Writes || got.FlushedLines != want.FlushedLines || got.Fences != want.Fences {
					t.Fatalf("1-mutator device cost %+v != seed path %+v", got, want)
				}
			}
		})
	}
}

// seedAlloc allocates n of the alloc workload's nodes through Heap.Alloc,
// the seed's single shared allocator, after the same klass warm-up.
func seedAlloc(t *testing.T, n int) nvm.Stats {
	reg := klass.NewRegistry()
	nk, err := reg.Define(klass.MustInstance("alloc/Node", nil,
		klass.Field{Name: "a", Type: layout.FTLong}, klass.Field{Name: "b", Type: layout.FTLong},
		klass.Field{Name: "c", Type: layout.FTLong}, klass.Field{Name: "d", Type: layout.FTLong}))
	if err != nil {
		t.Fatal(err)
	}
	h, err := pheap.Create(reg, pheap.Config{DataSize: n*nk.SizeOf(0) + 17*layout.RegionSize, Mode: nvm.Direct})
	if err != nil {
		t.Fatal(err)
	}
	warm := h.NewAllocator() // registers the klass; the shared allocator still starts cold
	if _, err := warm.Alloc(nk, 0); err != nil {
		t.Fatal(err)
	}
	warm.Release()
	s0 := h.Device().Stats()
	for i := 0; i < n; i++ {
		if _, err := h.Alloc(nk, 0); err != nil {
			t.Fatal(err)
		}
	}
	return h.Device().Stats().Sub(s0)
}

// seedRefStore issues the refstore workload's n durable stores through
// Runtime.SetRefFast, on the heap's one ownerless context.
func seedRefStore(t *testing.T, n int) nvm.Stats {
	rt, err := core.NewRuntime(core.Config{PJHDataSize: 20 * layout.RegionSize, NVMMode: nvm.Direct})
	if err != nil {
		t.Fatal(err)
	}
	h, err := rt.CreateHeap("refstore", 0)
	if err != nil {
		t.Fatal(err)
	}
	node := klass.MustInstance("refstore/Node", nil,
		klass.Field{Name: "ref", Type: layout.FTRef},
		klass.Field{Name: "pad", Type: layout.FTLong})
	refF := rt.MustResolveField(node, "ref")
	own := make([]layout.Ref, 64)
	for j := range own {
		if own[j], err = rt.PNew(node, 0); err != nil {
			t.Fatal(err)
		}
	}
	vol, err := rt.NewString("vol", false)
	if err != nil {
		t.Fatal(err)
	}
	h.PersistTops() // settles the last node's deferred header, as the workload's set-up does
	s0 := h.Device().Stats()
	for i := 0; i < n; i++ {
		val := own[(i+1)%len(own)]
		if i%5 == 4 {
			val = vol
		}
		if err := rt.SetRefFast(own[i%len(own)], refF, val); err != nil {
			t.Fatal(err)
		}
		h.FlushRange(own[i%len(own)], refF.Offset(), layout.WordSize)
	}
	return h.Device().Stats().Sub(s0)
}

func TestShardedRecoverySpeedup(t *testing.T) {
	rows, err := ShardedRecovery(4, 6000, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byW := map[int]ShardedRecoveryRow{}
	for _, r := range rows {
		byW[r.Workers] = r
	}
	if byW[1].RecoverySpeedup != 1 {
		t.Fatalf("serial speedup = %.2f, want 1", byW[1].RecoverySpeedup)
	}
	// The acceptance bar: ≥2x modeled recovery speedup at 4 workers.
	if byW[4].RecoverySpeedup < 2 {
		t.Fatalf("modeled recovery speedup at 4 workers = %.2fx, want ≥2x", byW[4].RecoverySpeedup)
	}
	if byW[2].RecoverySpeedup > byW[4].RecoverySpeedup+1e-9 {
		t.Fatalf("speedup not monotone in workers: %+v", rows)
	}
	// Determinism across worker counts: the images are the same, so the
	// per-key recovery traffic must match exactly.
	if byW[1].DevReadsPerKey != byW[4].DevReadsPerKey ||
		byW[1].DevLinesPerKey != byW[4].DevLinesPerKey {
		t.Fatalf("recovery traffic varies with workers: %+v vs %+v", byW[1], byW[4])
	}
}
