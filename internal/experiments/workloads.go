package experiments

import (
	"fmt"

	"espresso/internal/core"
	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
	"espresso/internal/pindex"
	"espresso/internal/pshard"
)

// workloads is the table the scaling experiments draw from
// (espresso-bench -exp <name>).
var workloads = map[string]*workload{
	// PLAB allocation: every mutator bump-allocates from its own region,
	// flushing only its own objects and its own region-top line. The
	// curve runs warm (klass already in the segment) on 4-long nodes.
	"alloc": {name: "alloc", series: "plab", ops: 200000, curve: mutatorCurve, claim: point{mutators: 8},
		setup: allocSetup},
	// The durable lock-free index under a serving mix, one operation
	// context (its own pheap.Allocator) per mutator over disjoint
	// key ranges: the CAS publication adds no shared persisted word.
	"kv": {name: "kv", series: "pindex", ops: 160000, curve: mutatorCurve, claim: point{mutators: 8}, setup: kvSetup},
	// Durable reference stores through the barrier, one mutator each.
	"refstore": {name: "refstore", series: "refstore", ops: 320000, curve: mutatorCurve, claim: point{mutators: 8},
		setup: refstoreSetup},
	// The kv serving mix routed over independent shard heaps: a
	// mutator's flushes to different shards land on different media.
	"shardedkv": {name: "shardedkv", series: "sharded", ops: 160000, curve: shardCurve, claim: point{shards: 4, mutators: 2},
		setup: shardedKVSetup},
}

// allocSetup allocates 4-long nodes through one PLAB allocator per
// mutator, the klass registered before the measured window.
func allocSetup(e env) (*run, error) {
	total := e.mutators * e.ops
	reg := klass.NewRegistry()
	nk, err := reg.Define(klass.MustInstance("alloc/Node", nil,
		klass.Field{Name: "a", Type: layout.FTLong}, klass.Field{Name: "b", Type: layout.FTLong},
		klass.Field{Name: "c", Type: layout.FTLong}, klass.Field{Name: "d", Type: layout.FTLong}))
	if err != nil {
		return nil, err
	}
	h, err := pheap.Create(reg, pheap.Config{
		DataSize: total*nk.SizeOf(0) + (e.mutators+16)*layout.RegionSize,
		Mode:     nvm.Direct,
	})
	if err != nil {
		return nil, err
	}
	warm := h.NewAllocator()
	if _, err := warm.Alloc(nk, 0); err != nil {
		return nil, err
	}
	warm.Release()
	allocs := make([]*pheap.Allocator, e.mutators)
	for i := range allocs {
		allocs[i] = h.NewAllocator()
	}
	return &run{
		heaps: []*pheap.Heap{h},
		body: func(g int) error {
			for i := 0; i < e.ops; i++ {
				if _, err := allocs[g].Alloc(nk, 0); err != nil {
					return err
				}
			}
			return nil
		},
		critical: func() int {
			lines := 0
			for _, a := range allocs {
				lines = max(lines, a.Stats().FlushedLines)
			}
			return lines
		},
		report: func(row *Row) {
			row.Allocs, row.Ops = row.Ops, 0
			for _, a := range allocs {
				row.RegionDispenses += a.Stats().Dispenses
			}
		},
		finish: releaseAll(allocs),
	}, nil
}

// releaseAll is the finish of a workload whose only teardown is handing
// its mutator contexts back.
func releaseAll[C interface{ Release() }](cs []C) func() error {
	return func() error {
		for _, c := range cs {
			c.Release()
		}
		return nil
	}
}

// servingMix is the kv experiments' deterministic 10-op rotation over
// mutator g's own key range: 6 puts, 3 gets, 1 delete — the usual
// read-light serving mix flipped toward writes so the durability
// protocol (not raw reads) dominates.
func servingMix(g, n int, put func(k int64) error, get, del func(k int64) bool) error {
	base := int64(g) << 32
	live := int64(0) // keys [base, base+live) are present
	for i := 0; i < n; i++ {
		switch i % 10 {
		case 0, 1, 2, 3, 4, 5:
			if err := put(base + live); err != nil {
				return err
			}
			live++
		case 6, 7, 8:
			if live > 0 {
				if k := base + int64(i)%live; !get(k) {
					return fmt.Errorf("key %d lost", k)
				}
			}
		default:
			if live > 0 {
				live--
				if !del(base + live) {
					return fmt.Errorf("delete %d missed", base+live)
				}
			}
		}
	}
	return nil
}

func kvSetup(e env) (*run, error) {
	// Node (48 B) + boxed value (32 B) per put, ~60% of ops are puts,
	// plus PLAB slack per mutator and the bucket tables.
	h, err := pheap.Create(klass.NewRegistry(), pheap.Config{
		DataSize: e.mutators*e.ops*96 + (e.mutators+16)*2*layout.RegionSize,
		Mode:     nvm.Direct,
	})
	if err != nil {
		return nil, err
	}
	// A steady-state index: a fixed 1024-bucket table, so runs are
	// comparable.
	ix, err := pindex.Open(h, pindex.NoPin{}, "bench", pindex.Options{InitialBuckets: 1024, MaxLoadFactor: 64})
	if err != nil {
		return nil, err
	}
	boxK, err := h.Registry().Define(klass.MustInstance("kv/Box", nil,
		klass.Field{Name: "v", Type: layout.FTLong}))
	if err != nil {
		return nil, err
	}
	ctxs := make([]*pindex.Ctx, e.mutators)
	for i := range ctxs {
		ctxs[i] = ix.NewCtx()
	}
	return &run{
		heaps: []*pheap.Heap{h},
		body: func(g int) error {
			c := ctxs[g]
			return servingMix(g, e.ops, func(k int64) error {
				// Value box built inside the put, on the mutator's own
				// PLAB: one run with the node for a fresh key.
				return c.PutNew(k, boxK, func(box layout.Ref) {
					c.Allocator().SetWord(box, layout.FieldOff(0), uint64(k))
				})
			}, func(k int64) bool {
				_, ok := c.Get(k)
				return ok
			}, c.Delete)
		},
		critical: func() int {
			lines := 0
			for _, c := range ctxs {
				lines = max(lines, c.Stats().FlushedLines+c.AllocStats().FlushedLines)
			}
			return lines
		},
		report: func(row *Row) {
			help := 0
			for _, c := range ctxs {
				help += c.Stats().HelpFlushes
			}
			row.HelpFlushes, row.FinalEntries = &help, ix.Len()
		},
		finish: releaseAll(ctxs),
	}, nil
}

func shardedKVSetup(e env) (*run, error) {
	// The aggregate bucket table is held constant across shard counts
	// (1024 split over the shards) so per-op device costs are comparable:
	// sentinel setup scales with total buckets, and letting it grow with
	// the shard count would smear fixed cost into the per-op columns.
	set, err := pshard.OpenSet(pshard.NewMemStore(), "bench", pshard.Options{
		Shards: e.shards,
		// Node + box footprint split across shards, plus PLAB slack per
		// (mutator, shard) pair — every mutator lazily attaches an
		// allocator on every shard it touches.
		ShardDataSize: e.mutators*e.ops*96/e.shards + (e.mutators+16)*2*layout.RegionSize,
		Index:         pindex.Options{InitialBuckets: max(1024/e.shards, 64), MaxLoadFactor: 64},
		Mode:          nvm.Direct,
	})
	if err != nil {
		return nil, err
	}
	r := &run{}
	for i := 0; i < e.shards; i++ {
		r.heaps = append(r.heaps, set.Shard(i).Heap())
	}
	ctxs := make([]*pshard.Ctx, e.mutators)
	for i := range ctxs {
		ctxs[i] = set.NewCtx()
	}
	r.body = func(g int) error {
		c := ctxs[g]
		return servingMix(g, e.ops, func(k int64) error { return c.Put(k, k) },
			func(k int64) bool {
				_, ok := c.Get(k)
				return ok
			}, c.Delete)
	}
	// Every (mutator, shard) chain flushes disjoint lines on its own
	// device; the slowest chain bounds completion.
	r.critical = func() int {
		lines := 0
		for _, c := range ctxs {
			for i := 0; i < e.shards; i++ {
				lines = max(lines, c.ShardFlushedLines(i))
			}
		}
		return lines
	}
	r.report = func(row *Row) { row.FinalEntries = set.Len() }
	r.finish = releaseAll(ctxs)
	return r, nil
}

// refstoreSetup has every mutator hammer NVM→NVM and NVM→volatile
// reference stores over its own objects, each made durable with a slot
// flush (the paper's persistent write path: one word write, one line
// flush, one fence). Stores route through the mutator's own
// core.Mutator; a volatile one also adds its slot to the shared
// remembered set, and a persistent one owes the set nothing. The run
// ends with a self-check: the remembered set as NVMToVolSlots reads it
// must equal the single-threaded oracle (the slots whose last store was
// volatile), proving no add was lost on the way.
func refstoreSetup(e env) (*run, error) {
	const nodesPerG = 64
	rt, err := core.NewRuntime(core.Config{
		PJHDataSize: (e.mutators + 4) * 4 * layout.RegionSize,
		NVMMode:     nvm.Direct,
	})
	if err != nil {
		return nil, err
	}
	h, err := rt.CreateHeap("refstore", 0)
	if err != nil {
		return nil, err
	}
	node := klass.MustInstance("refstore/Node", nil,
		klass.Field{Name: "ref", Type: layout.FTRef},
		klass.Field{Name: "pad", Type: layout.FTLong})
	refF, err := rt.ResolveField(node, "ref")
	if err != nil {
		return nil, err
	}
	// Disjoint working sets: each mutator owns nodesPerG persistent nodes
	// (allocated on its own PLAB, so its slot flushes touch no other
	// mutator's lines) plus one volatile target allocated up front (vheap
	// keeps the seed's single-volatile-mutator contract, so workers only
	// store references to it, never mutate it).
	muts := make([]*core.Mutator, e.mutators)
	nodes := make([][]layout.Ref, e.mutators)
	vols := make([]layout.Ref, e.mutators)
	for g := range muts {
		if muts[g], err = rt.NewMutator(); err != nil {
			return nil, err
		}
		nodes[g] = make([]layout.Ref, nodesPerG)
		for j := range nodes[g] {
			if nodes[g][j], err = muts[g].PNew(node, 0); err != nil {
				return nil, err
			}
		}
		if vols[g], err = rt.NewString(fmt.Sprintf("vol-%d", g), false); err != nil {
			return nil, err
		}
	}
	// Each mutator's last node is still a deferred header: settle it now,
	// outside the window, rather than in the first store that names it.
	h.PersistTops()
	slots := 0 // published remembered-set size, counted by finish
	return &run{
		heaps: []*pheap.Heap{h},
		body: func(g int) error {
			m, own, boff := muts[g], nodes[g], refF.Offset()
			for i := 0; i < e.ops; i++ {
				obj := own[i%nodesPerG]
				// 4:1 NVM→NVM vs NVM→volatile mix. The mix period (5) is
				// coprime with nodesPerG (64), so every slot alternates
				// between volatile and persistent values over the run —
				// the remset churns, and the oracle below would catch a
				// lost add or a stale slot read as live.
				val := own[(i+1)%nodesPerG]
				if i%5 == 4 {
					val = vols[g]
				}
				if err := m.SetRefFast(obj, refF, val); err != nil {
					return err
				}
				h.FlushRange(obj, boff, layout.WordSize)
			}
			return nil
		},
		// One slot line per store, every mutator alike.
		critical: func() int { return e.ops },
		report:   func(row *Row) { row.RemsetSlots = slots },
		finish: func() error {
			// Per node, the largest op index that targeted it decides.
			expected := 0
			for j := 0; j < nodesPerG && j < e.ops; j++ {
				if last := j + (e.ops-1-j)/nodesPerG*nodesPerG; last%5 == 4 {
					expected++
				}
			}
			expected *= e.mutators
			if slots = len(rt.NVMToVolSlots()); slots != expected {
				return fmt.Errorf("remset holds %d slots, oracle says %d", slots, expected)
			}
			for _, m := range muts {
				m.Release()
			}
			return nil
		},
	}, nil
}
