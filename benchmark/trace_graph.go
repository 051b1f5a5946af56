package main

import (
	"fmt"
	"time"

	"espresso"
	"espresso/internal/bench"
	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/pheap"
)

// --- obj_graph entry points below the facade ---

// graphPinned is the facade's calls inside one Mutator.Do per op: the
// per-call safepoint lock is paid once, so facade − pinned is what the
// unpinned convenience costs.
type graphPinned struct{ graphFacade }

func (e graphPinned) create(dir espresso.Ref, slot int, prev espresso.Ref, val, aux int64) (n espresso.Ref, err error) {
	e.mut.Do(func() { n, err = e.graphFacade.create(dir, slot, prev, val, aux) })
	return n, err
}

func (e graphPinned) update(node espresso.Ref, val int64) (err error) {
	e.mut.Do(func() { err = e.graphFacade.update(node, val) })
	return err
}

func (e graphPinned) walk(head espresso.Ref, out []int64) {
	e.mut.Do(func() { e.graphFacade.walk(head, out) })
}

// graphDirect does the same stores and flushes on pheap alone: no klass
// lookup, no write barrier, no remembered-set delta, no flush coalescing.
type graphDirect struct {
	h     *pheap.Heap
	alloc *pheap.Allocator
	nodeK *klass.Klass
}

var (
	offVal  = layout.FieldOff(0)
	offAux  = layout.FieldOff(1)
	offNext = layout.FieldOff(2)
)

func (e graphDirect) create(dir espresso.Ref, slot int, prev espresso.Ref, val, aux int64) (espresso.Ref, error) {
	n, err := e.alloc.Alloc(e.nodeK, 0)
	if err != nil {
		return 0, err
	}
	e.h.SetWord(n, offVal, uint64(val))
	e.h.SetWord(n, offAux, uint64(aux))
	e.h.SetWord(n, offNext, uint64(prev))
	e.h.FlushRange(n, 0, e.nodeK.SizeOf(0))
	boff := layout.ElemOff(layout.FTRef, slot)
	e.h.SetWord(dir, boff, uint64(n))
	e.h.FlushRange(dir, boff, layout.WordSize)
	return n, nil
}

func (e graphDirect) update(node espresso.Ref, val int64) error {
	e.h.SetWord(node, offVal, uint64(val))
	e.h.FlushRange(node, offVal, layout.WordSize)
	return nil
}

func (e graphDirect) walk(head espresso.Ref, out []int64) {
	n := head
	for i := range out {
		out[i] = int64(e.h.GetWord(n, offVal))
		n = layout.Ref(e.h.GetWord(n, offNext))
	}
}

func (e graphDirect) flushChain(head espresso.Ref) error {
	for n := head; n != layout.NullRef; n = layout.Ref(e.h.GetWord(n, offNext)) {
		e.h.FlushRange(n, 0, e.nodeK.SizeOf(0))
	}
	return nil
}

var graphKinds = [...]string{opWalk: "traverse", opCreate: "create", opUpdate: "update"}

func traceObjGraph(cfg config, r *report, st *objGraphState) error {
	tr := newTracer()
	ops := cfg.ops(traceOps)
	t := &r.tally
	u := measureUnitCosts(st.heap.Device().Size())
	u.report(r)

	p1 := st.pass(t, subSeed(cfg.seed, 1, 1), 1, ops, st.facade)
	p2 := st.pass(t, subSeed(cfg.seed, 1, 2), clients2c, 2*ops, st.facade)
	reportDeviceCounts(r, p1, float64(ops)*(objGraphCreateShare*nodePayload+objGraphUpdateShare*8), u)
	reportPassPair(r, p1, p2)

	cl := st.clients[0]
	stream := genGraphStream(subSeed(cfg.seed, 1, 3), ops)
	kind := func(i int) string { return graphKinds[stream[i]>>opKindShift] }
	fe := st.facade(0).(graphFacade)
	direct := graphDirect{h: st.heap, alloc: st.heap.NewAllocator(), nodeK: st.heap.Registry().MustLookup(nodeClass.Name)}
	entries := []graphEntry{fe, graphPinned{fe}, direct}
	// Every pass writes its own values, so a later pass's walks check what
	// the earlier passes wrote.
	med, wall := tr.tracedEntries([]string{"espresso", "core", "pheap"}, ops, kind, func(e, round, i int) {
		cl.step(entries[e], t, stream, int64(round*len(entries)+e+1)<<40, i)
	})
	facade, pinned, pheapM := med[0], med[1], med[2]
	r.layer["trace.overhead_share"] = 1 - (float64(ops)/wall.Seconds())/p1.opsPerSec()

	// A create's own device traffic, from creates alone at the pheap entry.
	const creates = 20_000
	before, as0 := st.devStats(), direct.alloc.Stats()
	for i := 0; i < creates; i++ {
		if err := cl.create(direct, int64(i)); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	createDev, as1 := st.devStats().Sub(before), direct.alloc.Stats()
	n := float64(creates)
	r.layer["pheap.alloc_flushed_lines"] = float64(as1.FlushedLines-as0.FlushedLines) / n
	r.layer["pheap.alloc_fences"] = float64(as1.Fences-as0.Fences) / n
	r.layer["pheap.plab_dispenses"] = float64(as1.Dispenses - as0.Dispenses)
	r.layer["pheap.used_bytes"] = float64(st.heap.UsedBytes())
	r.layer["pheap.free_bytes"] = float64(st.heap.FreeBytes())

	timer := tr.timerNs()
	nvmCreate := u.hostNs(createDev) / n
	attribute(r, "create", facade["create"]-timer, []layerRow{
		{"espresso", facade["create"] - pinned["create"]},
		{"core", pinned["create"] - pheapM["create"]},
		{"pindex", 0},
		{"pheap", pheapM["create"] - timer - nvmCreate},
		{"nvm", nvmCreate},
	})
	r.info["entry_medians_ns"] = map[string]map[string]float64{"espresso": facade, "core": pinned, "pheap": pheapM}
	r.info["span_overhead_ns"] = timer

	// The core primitives, each timed call by call.
	const calls = 20_000
	m, f := st.muts[0], st.f
	var nodes []espresso.Ref
	r.layer["core.pnew_ns"] = timeCalls(tr, calls, timer, func(int) {
		n, err := m.PNew(nodeClass, 0)
		if err != nil {
			t.fail("pnew: %v", err)
		}
		nodes = append(nodes, n)
	})
	r.layer["pheap.alloc_ns"] = timeCalls(tr, calls, timer, func(int) {
		if _, err := direct.alloc.Alloc(direct.nodeK, 0); err != nil {
			t.fail("alloc: %v", err)
		}
	})
	r.layer["core.setlong_ns"] = timeCalls(tr, calls, timer, func(i int) { m.SetLongFast(nodes[i], f.fVal, int64(i)) })
	r.layer["core.setref_ns"] = timeCalls(tr, calls, timer, func(i int) {
		if err := m.SetRefFast(nodes[i], f.fNext, nodes[(i+1)%calls]); err != nil {
			t.fail("setref: %v", err)
		}
	})
	r.layer["core.getref_ns"] = timeCalls(tr, calls, timer, func(i int) { m.GetRefFast(nodes[i], f.fNext) })
	r.layer["core.flushobject_ns"] = timeCalls(tr, calls, timer, func(i int) {
		if err := st.rt.FlushObject(nodes[i]); err != nil {
			t.fail("flushobject: %v", err)
		}
	})
	r.layer["core.flushtransitive_ns_per_node"] = timeCalls(tr, 2000, timer, func(i int) {
		if err := st.rt.FlushTransitive(cl.heads[i%cl.cur]); err != nil {
			t.fail("flushtransitive: %v", err)
		}
	}) / chainCap
	direct.alloc.Release()
	return tr.write(cfg)
}

// timeCalls times n calls of fn one by one and returns their median with
// the span overhead removed.
func timeCalls(tr *tracer, n int, timer float64, fn func(i int)) float64 {
	d := make([]int64, n)
	for i := range d {
		s := tr.now()
		fn(i)
		d[i] = tr.now() - s
	}
	return max(quantileNs(d, 0.5)-timer, 0)
}

// modeledReadNs is the read latency of the repo's existing pause model
// (internal/experiments: 100 ns per read, 300 ns per flushed line).
const modeledReadNs = 100

// traceGCChurn reduces the timed passes' collections to the pgc.* metrics.
func traceGCChurn(r *report, st *gcChurnState, cycles []gcCycle, sr series) error {
	u := measureUnitCosts(st.heap.Device().Size())
	u.report(r)
	if len(cycles) == 0 {
		return fmt.Errorf("trace: no collection ran")
	}
	var mark, pause, wall, moved, reads, lines, modeled, skew, share []float64
	for _, c := range cycles {
		mark = append(mark, ms(c.res.MarkTime))
		pause = append(pause, ms(c.res.PauseTime))
		wall = append(wall, ms(c.wall))
		moved = append(moved, float64(c.res.MovedBytes))
		ps := c.res.PauseDeviceStats
		reads = append(reads, float64(ps.Reads))
		lines = append(lines, float64(ps.FlushedLines))
		modeled = append(modeled, (float64(ps.Reads)*modeledReadNs+float64(ps.FlushedLines)*modeledLineNs)/1e6)
		if w := c.res.MarkWorkerTimes; len(w) > 0 {
			var sum, hi time.Duration
			for _, d := range w {
				sum += d
				hi = max(hi, d)
			}
			if sum > 0 {
				skew = append(skew, float64(hi)*float64(len(w))/float64(sum))
			}
		}
		// Mutator progress while the cycle ran, relative to the rate in
		// the gap before it.
		if c.opsGap > 0 && c.sinceGap > 0 && c.wall > 0 {
			share = append(share, (float64(c.opsIn)/c.wall.Seconds())/(float64(c.opsGap)/c.sinceGap.Seconds()))
		}
	}
	r.layer["pgc.mark_ms_p50"] = median(mark)
	r.layer["pgc.pause_ms_p50"] = median(pause)
	r.layer["pgc.pause_ms_max"] = quantile(pause, 1)
	r.layer["pgc.cycle_ms_p50"] = median(wall)
	r.layer["pgc.live_objects"] = float64(cycles[len(cycles)-1].res.LiveObjects)
	r.layer["pgc.moved_bytes_per_cycle"] = median(moved)
	r.layer["pgc.pause_reads"] = median(reads)
	r.layer["pgc.pause_flushed_lines"] = median(lines)
	r.layer["pgc.modeled_pause_ms"] = median(modeled)
	r.layer["pgc.mark_worker_skew"] = median(skew)
	r.layer["pgc.mutator_ops_share_during_mark"] = median(share)
	r.layer["espresso.scale_2c"] = sr.median("ops_per_s") / sr.median("ops_per_s_1c")
	r.layer["espresso.ops_per_s_1c"] = sr.median("ops_per_s_1c")
	r.layer["espresso.op_p99_ns"] = sr.median("op_p99_ns")
	r.layer["nvm.flushed_lines_per_op"] = sr.median("device_ns_per_op") / modeledLineNs
	r.layer["trace.facade_ns_per_op"] = sr.median("op_p50_ns")
	r.layer["trace.unattributed_ns"] = sr.median("op_p50_ns")
	r.layer["pheap.used_bytes"] = float64(st.heap.UsedBytes())
	r.layer["pheap.free_bytes"] = float64(st.heap.FreeBytes())
	r.info["gc_cycles"] = len(cycles)
	return nil
}

// traceJPABPJO reduces the repetitions to the pjo.* metrics.
func traceJPABPJO(cfg config, r *report, sr series, prof *bench.Breakdown, last jpabRep) error {
	u := measureUnitCosts(cfg.size(jpabStackSize))
	u.report(r)
	for name := range sr {
		if len(name) > 4 && name[:4] == "pjo." {
			r.layer[name] = sr.median(name)
		}
	}
	fr := prof.Fractions()
	r.layer["pjo.share_database"] = fr["Database"]
	r.layer["pjo.share_transformation"] = fr["Transformation"]
	reportDeviceCounts(r, passResult{ops: last.ops, dev: last.dev}, float64(last.payload), u)
	r.layer["trace.facade_ns_per_op"] = sr.median("op_p50_ns")
	r.layer["trace.unattributed_ns"] = sr.median("op_p50_ns")
	r.layer["espresso.ops_per_s_1c"] = sr.median("ops_per_s")
	r.layer["espresso.op_p99_ns"] = sr.median("op_p99_ns")
	return nil
}
