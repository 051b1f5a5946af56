package main

import (
	"fmt"
	"path/filepath"

	"espresso"
	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
	"espresso/internal/pindex"
	"espresso/internal/pshard"
)

// traceOps is the length of each traced pass (1c): long enough for stable
// per-kind medians, short enough that five entry points fit in one run.
const traceOps = 200_000

// --- kv_get entry points below the facade ---

// kvGetHeld is the facade minus the PMap's ctx pool: a client-held
// pindex.Ctx of the PMap's own index, which still pins through the
// runtime's safepoint, with values through the same core accessors.
type kvGetHeld struct {
	kvGetFacade
	ctx *pindex.Ctx
}

func (e kvGetHeld) put(key, val int64) error {
	box, err := e.box(val)
	if err != nil {
		return err
	}
	return e.ctx.Put(key, box)
}

func (e kvGetHeld) get(key int64) (int64, bool) {
	ref, ok := e.ctx.Get(key)
	if !ok {
		return 0, false
	}
	return e.st.rt.GetLongFast(ref, e.st.fV), true
}

// boxIndex is a pindex.Ctx that pins nothing, with boxed values written
// and read through pheap directly: everything core and pshard add is gone.
type boxIndex struct {
	h    *pheap.Heap
	ctx  *pindex.Ctx
	boxK *klass.Klass
}

func newBoxIndex(ix *pindex.Index, boxKlass string) boxIndex {
	h := ix.Heap()
	return boxIndex{h: h, ctx: ix.NewCtx(), boxK: h.Registry().MustLookup(boxKlass)}
}

// allocBox is the pheap entry point: Allocator.Alloc + SetWord + FlushRange.
func (e boxIndex) allocBox(val int64) (layout.Ref, error) {
	box, err := e.ctx.Allocator().Alloc(e.boxK, 0)
	if err != nil {
		return 0, err
	}
	e.h.SetWord(box, layout.FieldOff(0), uint64(val))
	e.h.FlushRange(box, 0, e.boxK.SizeOf(0))
	return box, nil
}

func (e boxIndex) put(key, val int64) error {
	box, err := e.allocBox(val)
	if err != nil {
		return err
	}
	return e.ctx.Put(key, box)
}

func (e boxIndex) get(key int64) (int64, bool) {
	ref, ok := e.ctx.Get(key)
	if !ok {
		return 0, false
	}
	return int64(e.h.GetWord(ref, layout.FieldOff(0))), true
}

// ctxTotals sums the own-path counters of pindex contexts and of their
// allocators.
type ctxTotals struct {
	ix    pindex.CtxStats
	alloc pheap.AllocatorStats
}

func sumCtx(ctxs ...*pindex.Ctx) ctxTotals {
	var t ctxTotals
	for _, c := range ctxs {
		ix, a := c.Stats(), c.AllocStats()
		t.ix.FlushedLines += ix.FlushedLines
		t.ix.Fences += ix.Fences
		t.ix.HelpFlushes += ix.HelpFlushes
		t.ix.Retries += ix.Retries
		t.alloc.FlushedLines += a.FlushedLines
		t.alloc.Fences += a.Fences
		t.alloc.Dispenses += a.Dispenses
	}
	return t
}

// reportPutCounts stores what n puts (each a box allocation plus an index
// put) cost on the contexts' own paths, from snapshots around them.
func reportPutCounts(r *report, before, after ctxTotals, n float64) {
	r.layer["pindex.flushed_lines_per_put"] = float64(after.ix.FlushedLines-before.ix.FlushedLines) / n
	r.layer["pindex.fences_per_put"] = float64(after.ix.Fences-before.ix.Fences) / n
	r.layer["pindex.help_flushes"] = float64(after.ix.HelpFlushes - before.ix.HelpFlushes)
	r.layer["pindex.cas_retries"] = float64(after.ix.Retries - before.ix.Retries)
	r.layer["pheap.alloc_flushed_lines"] = float64(after.alloc.FlushedLines-before.alloc.FlushedLines) / n
	r.layer["pheap.alloc_fences"] = float64(after.alloc.Fences-before.alloc.Fences) / n
	r.layer["pheap.plab_dispenses"] = float64(after.alloc.Dispenses - before.alloc.Dispenses)
}

func perOp(s nvm.Stats, n int) nvm.Stats {
	d := uint64(max(n, 1))
	return nvm.Stats{Reads: s.Reads / d, Writes: s.Writes / d, FlushedLines: s.FlushedLines / d, Fences: s.Fences / d}
}

func traceKVGet(cfg config, r *report, st *kvGetState, dir string) error {
	tr := newTracer()
	ops := cfg.ops(traceOps)
	seed := subSeed(cfg.seed, 1, 1)
	t := &r.tally

	u := measureUnitCosts(st.heap.Device().Size())
	u.report(r)

	// Untraced reference: the same stream through the facade, 1c then 2c.
	p1 := st.pass(t, seed, 1, ops, st.facade)
	p2 := st.pass(t, subSeed(cfg.seed, 1, 2), clients2c, 2*ops, st.facade)
	puts := float64(ops) * kvGetPutShare
	reportDeviceCounts(r, p1, puts*8, u)
	reportPassPair(r, p1, p2)

	// The same stream, once per entry point.
	stream := st.genStream(subSeed(seed, 0), ops, 0, 1)
	kind := func(i int) string {
		if stream.keys[i] < 0 {
			return "put"
		}
		return "get"
	}
	held := kvGetHeld{kvGetFacade{st, st.muts[0]}, st.m.Index().NewCtx()}
	ix, err := pindex.Open(st.heap, pindex.NoPin{}, kvGetMapName, pindex.Options{})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	bi := newBoxIndex(ix, boxClass.Name)
	entries := []kvGetEntry{st.facade(0), held, bi}
	med, wall := tr.tracedEntries([]string{"espresso", "core", "pindex"}, ops, kind, func(e, _, i int) {
		stepKVGet(entries[e], st.oracle, t, &stream, i)
	})
	facade, core, index := med[0], med[1], med[2]
	held.ctx.Release()
	r.layer["trace.overhead_share"] = 1 - (float64(ops)/wall.Seconds())/p1.opsPerSec()

	// Per-kind device counts at the pindex entry, and the pheap entry on
	// its own: the box part of every put in the stream.
	dev := st.heap.Device()
	gets, putN := 0, 0
	before := dev.Stats()
	for _, k := range stream.keys {
		if k >= 0 {
			bi.get(k)
			gets++
		}
	}
	getDev := dev.Stats().Sub(before)
	r.layer["pindex.reads_per_get"] = float64(getDev.Reads) / float64(max(gets, 1))
	totals0 := sumCtx(bi.ctx)
	before = dev.Stats()
	var boxNs []int64
	for i, k := range stream.keys {
		if k >= 0 {
			continue
		}
		val := stream.val + int64(i)
		s := tr.now()
		box, err := bi.allocBox(val)
		boxNs = append(boxNs, tr.now()-s)
		if err == nil {
			err = bi.ctx.Put(^k, box)
		}
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		st.oracle[^k] = val
		putN++
	}
	putDev := dev.Stats().Sub(before)
	n := float64(max(putN, 1))
	r.layer["pindex.reads_per_put"] = float64(putDev.Reads) / n
	reportPutCounts(r, totals0, sumCtx(bi.ctx), n)
	r.layer["pheap.alloc_ns"] = quantileNs(boxNs, 0.5) - tr.timerNs()
	r.layer["pheap.used_bytes"] = float64(st.heap.UsedBytes())
	r.layer["pheap.free_bytes"] = float64(st.heap.FreeBytes())
	bi.ctx.Release()

	timer := tr.timerNs()
	r.layer["pindex.get_ns"] = index["get"] - timer
	r.layer["pindex.put_ns"] = index["put"] - timer
	// A get is the op this workload is about: its device traffic is reads
	// only and it allocates nothing, so pheap's share is zero.
	nvmGet := u.hostNs(perOp(getDev, gets))
	attribute(r, "get", facade["get"]-timer, []layerRow{
		{"espresso", facade["get"] - core["get"]},
		{"core", core["get"] - index["get"]},
		{"pindex", index["get"] - timer - nvmGet},
		{"pheap", 0},
		{"nvm", nvmGet},
	})
	r.info["entry_medians_ns"] = map[string]map[string]float64{"espresso": facade, "core": core, "pindex": index}
	r.info["span_overhead_ns"] = timer

	// Pool gauges need a telemetry registry: a 1/16-size map with it on.
	if err := kvGetPoolGauges(cfg, r); err != nil {
		return err
	}
	// Restart, split by layer, on the synced image.
	if err := st.rt.SyncHeap(kvGetHeapName); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	traceRestartLayers(r, filepath.Join(dir, kvGetHeapName+".pjh"), kvGetMapName, st.keys)
	return tr.write(cfg)
}

// kvGetPoolGauges runs one 2c pass on a small telemetry-enabled map and
// reads the PMap ctx pool's gauges.
func kvGetPoolGauges(cfg config, r *report) error {
	keys, heapSize := kvGetKeys/16, kvGetHeapSize/16
	st, err := openKVGet(cfg, "", espresso.Options{Telemetry: true}, keys, heapSize)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	st.pass(&r.tally, subSeed(cfg.seed, 98), clients2c, cfg.ops(durabilityOps), st.facade)
	g := st.rt.Metrics().Gauges
	r.layer["espresso.ctx_created"] = float64(g["pmap."+kvGetMapName+".ctx.created"])
	r.layer["espresso.ctx_retired"] = float64(g["pmap."+kvGetMapName+".ctx.retired"])
	return nil
}

// traceRestartLayers runs one restart round that is timed a layer at a
// time (see restartLayers) and stores the split.
func traceRestartLayers(r *report, path, mapName string, keys int) {
	rs := measureRestart(&r.tally, func(split *restartSplit) error { return restartLayers(path, mapName, keys, split) })
	l := rs[len(rs)-1]
	r.layer["nvm.image_read_ms"] = l.ImageReadMs
	r.layer["pheap.load_ms"] = l.HeapLoadMs
	r.layer["pindex.recover_ms"] = l.IndexRecoverMs
	r.layer["pindex.recover_reads_per_key"] = l.RecoverReadsPerKey
	if _, set := r.layer["espresso.restart_ms"]; !set { // kv_put reports its whole set's instead
		r.layer["espresso.restart_ms"] = l.Ms
	}
}

// --- kv_put entry points below the facade ---

// shardIndex routes like pshard but enters at pindex: one boxIndex per
// shard on the shard's own (NoPin) index, no shard world lock.
type shardIndex struct {
	set  *pshard.Set
	subs []boxIndex
}

func newShardIndex(set *pshard.Set) shardIndex {
	e := shardIndex{set: set}
	for i := 0; i < set.NumShards(); i++ {
		e.subs = append(e.subs, newBoxIndex(set.Shard(i).Index(), pshard.BoxKlassName))
	}
	return e
}

func (e shardIndex) Put(key, val int64) error { return e.subs[e.set.ShardOf(key)].put(key, val) }

func (e shardIndex) Get(key int64) (int64, bool) { return e.subs[e.set.ShardOf(key)].get(key) }

func (e shardIndex) Delete(key int64) bool { return e.subs[e.set.ShardOf(key)].ctx.Delete(key) }

func (e shardIndex) ctxs() []*pindex.Ctx {
	var out []*pindex.Ctx
	for _, s := range e.subs {
		out = append(out, s.ctx)
	}
	return out
}

var kvPutKinds = [...]string{opGet: "get", opPut: "put", opDel: "delete"}

func traceKVPut(cfg config, r *report, st *kvPutState, dir string, opts espresso.ShardedPMapOptions) error {
	tr := newTracer()
	ops := cfg.ops(traceOps)
	seed := subSeed(cfg.seed, 1, 1)
	t := &r.tally
	set := st.s.Set()

	u := measureUnitCosts(set.Shard(0).Heap().Device().Size())
	u.report(r)

	// Replaying a stream leaves every key as its last op left it, so from
	// the second replay on every replay starts from the same presence
	// state; the first one is the primer.
	st.pass(t, seed, 1, ops, st.facade)
	p1 := st.pass(t, seed, 1, ops, st.facade)
	p2 := st.pass(t, subSeed(cfg.seed, 1, 2), clients2c, 2*ops, st.facade)
	st.pass(t, seed, 1, ops, st.facade)
	reportDeviceCounts(r, p1, float64(ops)*kvPutPutShare*16, u)
	reportPassPair(r, p1, p2)

	stream := genKVPutStream(subSeed(seed, 0), st.keys, ops, 0, 1)
	kind := func(i int) string { return kvPutKinds[stream.ops[i]>>opKindShift] }
	perShard := make([]int, set.NumShards())
	for _, op := range stream.ops {
		perShard[set.ShardOf(op&opKeyMask)]++
	}
	maxShard := 0
	for _, n := range perShard {
		maxShard = max(maxShard, n)
	}
	r.layer["pshard.shard_imbalance"] = float64(maxShard) / (float64(ops) / float64(len(perShard)))

	ctx := set.NewCtx()
	si := newShardIndex(set)
	entries := []kvOps{st.s, ctx, si}
	med, wall := tr.tracedEntries([]string{"espresso", "pshard", "pindex"}, ops, kind, func(e, _, i int) {
		stepKVPut(entries[e], st.oracle, t, &stream, i)
	})
	facade, shard, index := med[0], med[1], med[2]
	ctx.Release()
	r.layer["trace.overhead_share"] = 1 - (float64(ops)/wall.Seconds())/p1.opsPerSec()

	// Per-kind device counts at the pindex entry; the pheap entry alone.
	devStats := st.devStats
	count := func(want int64, fn func(key, val int64)) (nvm.Stats, int) {
		n := 0
		before := devStats()
		for i, op := range stream.ops {
			if op>>opKindShift == want {
				fn(op&opKeyMask, stream.val+int64(i))
				n++
			}
		}
		return devStats().Sub(before), n
	}
	getDev, gets := count(opGet, func(key, _ int64) { si.Get(key) })
	r.layer["pindex.reads_per_get"] = float64(getDev.Reads) / float64(max(gets, 1))
	totals0 := sumCtx(si.ctxs()...)
	var boxNs []int64
	var allocDev nvm.Stats
	putDev, putN := count(opPut, func(key, val int64) {
		sub := si.subs[set.ShardOf(key)]
		d0 := sub.h.Device().Stats()
		s := tr.now()
		box, err := sub.allocBox(val)
		boxNs = append(boxNs, tr.now()-s)
		allocDev = allocDev.Add(sub.h.Device().Stats().Sub(d0))
		if err == nil {
			err = sub.ctx.Put(key, box)
		}
		if err != nil {
			t.fail("trace put key %d: %v", key, err)
			return
		}
		st.oracle[key] = val
	})
	n := float64(max(putN, 1))
	r.layer["pindex.reads_per_put"] = float64(putDev.Reads-allocDev.Reads) / n
	reportPutCounts(r, totals0, sumCtx(si.ctxs()...), n)
	for _, c := range si.ctxs() {
		c.Release()
	}
	st.live = st.s.Len()

	timer := tr.timerNs()
	boxMed := quantileNs(boxNs, 0.5) - timer
	r.layer["pheap.alloc_ns"] = boxMed
	r.layer["pindex.get_ns"] = index["get"] - timer
	r.layer["pindex.put_ns"] = index["put"] - timer
	r.layer["pindex.delete_ns"] = index["delete"] - timer
	free := 0
	for i := 0; i < set.NumShards(); i++ {
		free += set.Shard(i).Heap().FreeBytes()
	}
	r.layer["pheap.used_bytes"] = float64(st.usedBytes())
	r.layer["pheap.free_bytes"] = float64(free)

	// A put is the op this workload is about. Its device traffic splits
	// into the box allocation's (pheap) and the rest (pindex).
	nvmPut, nvmAlloc := u.hostNs(perOp(putDev, putN)), u.hostNs(perOp(allocDev, putN))
	attribute(r, "put", facade["put"]-timer, []layerRow{
		{"espresso", facade["put"] - shard["put"]},
		{"pshard", shard["put"] - index["put"]},
		{"pindex", index["put"] - timer - boxMed - (nvmPut - nvmAlloc)},
		{"pheap", boxMed - nvmAlloc},
		{"nvm", nvmPut},
	})
	r.info["entry_medians_ns"] = map[string]map[string]float64{"espresso": facade, "pshard": shard, "pindex": index}
	r.info["span_overhead_ns"] = timer

	if err := kvPutTelemetry(cfg, r, st, opts); err != nil {
		return err
	}

	// One collection of the never-collected set: the staggered per-shard
	// pauses. Then verify, sync, and split a restart by layer.
	res, err := st.s.GC()
	if err != nil {
		return fmt.Errorf("gc: %w", err)
	}
	var pauses []float64
	for _, g := range res {
		pauses = append(pauses, ms(g.PauseTime))
	}
	r.layer["pgc.shard_pause_ms_p50"] = median(pauses)
	for k := int64(0); k < int64(st.keys); k += 7 {
		t.attempted++
		got, ok := st.s.Get(k)
		if !ok {
			got = absent
		}
		if got != st.oracle[k] {
			t.fail("after gc: key %d = %d, oracle %d", k, got, st.oracle[k])
		}
	}
	if err := st.s.Sync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	rs := measureRestart(t, st.restartRound(cfg, dir))
	var slow, sum []float64
	for _, x := range rs {
		slow, sum = append(slow, x.RecoverSlowestMs), append(sum, x.RecoverSumMs)
	}
	r.layer["pshard.recover_slowest_ms"] = median(slow)
	r.layer["pshard.recover_sum_ms"] = median(sum)
	var total []float64
	for _, x := range rs {
		total = append(total, x.Ms)
	}
	r.layer["espresso.restart_ms"] = quantile(total, 0.25)
	traceRestartLayers(r, filepath.Join(dir, pshard.ShardHeapName(kvPutBase, 0)+".pjh"), pshard.IndexRootName, set.Shard(0).Index().Len())
	return tr.write(cfg)
}

// kvPutTelemetry measures the observer's cost: 2c ops/s on a second set
// with Telemetry on, over the same streams on the set without, in
// interleaved repetitions. It also reads the facade pool's gauges, which
// only a telemetry-enabled set publishes.
func kvPutTelemetry(cfg config, r *report, off *kvPutState, opts espresso.ShardedPMapOptions) error {
	opts.Telemetry = true
	const base = kvPutBase + "-tel"
	on, err := openKVPut(off.rt, base, opts, off.keys)
	if err != nil {
		return fmt.Errorf("telemetry set: %w", err)
	}
	defer on.s.Close()
	ops := cfg.ops(traceOps)
	var vOn, vOff []float64
	for i := 0; i < 3; i++ {
		seed := subSeed(cfg.seed, 97, i)
		vOff = append(vOff, off.pass(&r.tally, seed, clients2c, 2*ops, off.facade).opsPerSec())
		vOn = append(vOn, on.pass(&r.tally, seed, clients2c, 2*ops, on.facade).opsPerSec())
	}
	r.layer["telemetry.on_ops_ratio"] = median(vOn) / median(vOff)
	g := on.s.Metrics().Gauges
	r.layer["espresso.ctx_created"] = float64(g["shardedpmap."+base+".ctx.created"])
	r.layer["espresso.ctx_retired"] = float64(g["shardedpmap."+base+".ctx.retired"])
	return nil
}
