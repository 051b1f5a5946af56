package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"espresso"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
)

// gc_churn: gcLiveNodes live nodes in rooted lists plus mutators that,
// inside Mutator.Do, allocate short-lived nodes and re-link live ones,
// while a driver goroutine calls Runtime.PersistentGC each time heap fill
// passes gcFillTrigger. pgc mark/compact, the pheap redo commit and PLAB
// retire/hole recycling, and core safepoint handshakes do the work; the
// allocator is used differently from obj_graph (recycled holes under
// pauses vs fresh bump), and mutator throughput here includes the stalls.
//
// Every op is one Mutator.Do interval that re-fetches its directory from
// the named root, because a collection may move anything between ops.
//
// The collector is the one Options{} selects (stop-the-world). At this
// commit PersistentGCConcurrent does not survive the workload: its second
// cycle fails with "concurrent: marking ...: dangling klass word 0x0" on
// the first object of a region allocated during the previous cycle's
// marking, whose ref a mutator had stored (SetElem) into a directory
// array older than the snapshot. Swapping the call below reproduces it.
const (
	gcLiveNodes   = 200_000
	gcListLen     = 100
	gcHeapSize    = 48 << 20
	gcOps1c       = 600_000
	gcOps2c       = 1_200_000
	gcFillTrigger = 0.60
	gcScratch     = 64 // short-lived nodes each client keeps reachable
	gcWalkLen     = 16
	gcChurnShare  = 0.60
	gcRelinkShare = 0.25
)

const (
	opRead = iota
	opChurn
	opRelink
)

// gcDir is one directory of lists: dirs[d] holds the lists ≡ d (mod 2),
// so in a 2c pass client c works on dirs[c] only and in a 1c pass the
// single client works on both.
type gcDir struct {
	root  string
	lists int
	// vals[l*gcListLen+k] is the value of the k-th node from the head of
	// list l: the oracle.
	vals []int64
}

type gcChurnState struct {
	rt   *espresso.Runtime
	heap *pheap.Heap
	f    graphFields
	dirs [clients2c]*gcDir
	muts [clients2c]*espresso.Mutator
	// opsDone[c] counts client c's completed ops, read by the GC driver
	// to see how much mutator work overlapped each cycle.
	opsDone [clients2c]paddedCounter
	// prefaulted is how long touching the heap's pages took (see prefault).
	prefaulted time.Duration
}

type paddedCounter struct {
	n atomic.Int64
	_ [56]byte
}

func (st *gcChurnState) devStats() nvm.Stats { return st.heap.Device().Stats() }

func openGCChurn(dir string, heapSize, live int) (*gcChurnState, error) {
	rt, err := espresso.Open(espresso.Options{HeapDir: dir})
	if err != nil {
		return nil, err
	}
	if err := rt.CreateHeap(graphHeapName, heapSize); err != nil {
		return nil, err
	}
	st := &gcChurnState{rt: rt, f: resolveGraph(rt)}
	st.heap, _ = rt.Heap(graphHeapName)
	st.prefaulted = prefault(st.heap.Device())
	lists := live / gcListLen / clients2c
	// The live graph is built sequentially, one mutator after the other:
	// it is set-up, and a concurrent build hands the region layout (and
	// with it each cycle's compaction work) to the goroutine scheduler.
	for d := range st.dirs {
		if st.muts[d], err = rt.NewMutator(); err != nil {
			return nil, err
		}
		gd := &gcDir{root: graphRootName(d), lists: lists, vals: make([]int64, lists*gcListLen)}
		st.dirs[d] = gd
		dirRef, err := newGraphDir(rt, d, lists+gcScratch)
		if err != nil {
			return nil, err
		}
		m := st.muts[d]
		for l := 0; l < lists; l++ {
			var head espresso.Ref
			for k := gcListLen - 1; k >= 0; k-- {
				n, err := m.PNew(nodeClass, 0)
				if err != nil {
					return nil, fmt.Errorf("build: %w", err)
				}
				val := initialValue(int64(l*gcListLen + k))
				m.SetLongFast(n, st.f.fVal, val)
				if err := m.SetRefFast(n, st.f.fNext, head); err != nil {
					return nil, err
				}
				gd.vals[l*gcListLen+k] = val
				head = n
			}
			if err := m.SetElem(dirRef, l, head); err != nil {
				return nil, err
			}
		}
	}
	// First collection, untimed: it compacts the freshly built heap, so
	// measured cycles see the steady state.
	if _, err := rt.PersistentGC(graphHeapName); err != nil {
		return nil, err
	}
	return st, nil
}

// step performs op i of client c's stream inside one Mutator.Do interval.
func (st *gcChurnState) step(t *tally, c, clients int, stream []int64, valBase int64, i int) {
	kind, pick := stream[i]>>opKindShift, int(stream[i]&opKeyMask)
	d := c
	if clients == 1 {
		d = pick & 1
		pick >>= 1
	}
	gd, m, f := st.dirs[d], st.muts[c], st.f
	t.attempted++
	m.Do(func() {
		dir, ok := m.GetRoot(gd.root)
		if !ok {
			t.fail("root %s lost", gd.root)
			return
		}
		switch kind {
		case opChurn:
			n, err := m.PNew(nodeClass, 0)
			if err != nil {
				t.fail("churn alloc: %v", err)
				return
			}
			m.SetLongFast(n, f.fVal, valBase+int64(i))
			if err := m.SetElem(dir, gd.lists+i%gcScratch, n); err != nil {
				t.fail("churn publish: %v", err)
			}
		case opRelink:
			l := pick % gd.lists
			head, err := m.GetElem(dir, l)
			if err != nil {
				t.fail("relink list %d: %v", l, err)
				return
			}
			n, err := m.PNew(nodeClass, 0)
			if err != nil {
				t.fail("relink alloc: %v", err)
				return
			}
			val := valBase + int64(i)
			m.SetLongFast(n, f.fVal, val)
			if err := m.SetRefFast(n, f.fNext, m.GetRefFast(head, f.fNext)); err != nil {
				t.fail("relink list %d: %v", l, err)
				return
			}
			if err := m.SetElem(dir, l, n); err != nil {
				t.fail("relink list %d: %v", l, err)
				return
			}
			gd.vals[l*gcListLen] = val
		default:
			l := pick % gd.lists
			n, err := m.GetElem(dir, l)
			if err != nil {
				t.fail("read list %d: %v", l, err)
				return
			}
			for k := 0; k < gcWalkLen; k++ {
				if got, want := m.GetLongFast(n, f.fVal), gd.vals[l*gcListLen+k]; got != want {
					t.fail("read list %d node %d: value %d, oracle %d", l, k, got, want)
					return
				}
				n = m.GetRefFast(n, f.fNext)
			}
		}
	})
	st.opsDone[c].n.Add(1)
}

func genGCStream(seed int64, ops int) []int64 {
	r := rand.New(rand.NewSource(seed))
	s := make([]int64, ops)
	for i := range s {
		kind := int64(opRead)
		if p := r.Float64(); p < gcChurnShare {
			kind = opChurn
		} else if p < gcChurnShare+gcRelinkShare {
			kind = opRelink
		}
		s[i] = kind<<opKindShift | int64(r.Uint32())
	}
	return s
}

// gcCycle is one collection as the driver saw it.
type gcCycle struct {
	res      espresso.GCResult
	used     int // Heap.UsedBytes right after the cycle
	wall     time.Duration
	opsIn    int64         // mutator ops completed while the cycle ran
	sinceGap time.Duration // time since the previous cycle ended
	opsGap   int64         // mutator ops completed in that gap
}

// pass runs one closed-loop pass with the GC driver beside it: the driver
// polls heap fill and collects each time it passes the trigger, until
// the clients finish.
func (st *gcChurnState) pass(t *tally, seed int64, clients, ops int) (passResult, []gcCycle, error) {
	per := ops / clients
	streams := make([][]int64, clients)
	tallies := make([]tally, clients)
	for c := range streams {
		streams[c] = genGCStream(subSeed(seed, c), per)
	}
	valBase := (seed & 0xffff_ffff) << 24

	capacity := float64(st.heap.Geo().DataRegions()) * float64(layout.RegionSize)
	done := make(chan struct{})
	var cycles []gcCycle
	var gcErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		totalOps := func() int64 {
			var n int64
			for c := range st.opsDone {
				n += st.opsDone[c].n.Load()
			}
			return n
		}
		gapStart, gapOps := time.Now(), totalOps()
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			if 1-float64(st.heap.FreeBytes())/capacity < gcFillTrigger {
				continue
			}
			start, ops0 := time.Now(), totalOps()
			res, err := st.rt.PersistentGC(graphHeapName)
			if err != nil {
				gcErr = err
				return
			}
			end, ops1 := time.Now(), totalOps()
			cycles = append(cycles, gcCycle{
				res: res, used: st.heap.UsedBytes(), wall: end.Sub(start), opsIn: ops1 - ops0,
				sinceGap: start.Sub(gapStart), opsGap: ops0 - gapOps,
			})
			gapStart, gapOps = end, ops1
		}
	}()
	res := runPass(clients, per, st.devStats, func(c, i int) {
		st.step(&tallies[c], c, clients, streams[c], valBase, i)
	})
	close(done)
	wg.Wait()
	for c := range tallies {
		t.merge(&tallies[c])
	}
	if gcErr != nil {
		return res, cycles, fmt.Errorf("gc: %w", gcErr)
	}
	return res, cycles, nil
}

func runGCChurn(cfg config, r *report) error {
	dir, err := os.MkdirTemp(cfg.outDir, "heaps-gcchurn-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ops1, ops2 := cfg.ops(gcOps1c), cfg.ops(gcOps2c)
	live, heapSize := cfg.size(gcLiveNodes), cfg.size(gcHeapSize)

	setupStart := time.Now()
	st, err := openGCChurn(dir, heapSize, live)
	if err != nil {
		return err
	}
	if cfg.breakOracle {
		for k := range st.dirs[0].vals {
			st.dirs[0].vals[k]++
		}
	}
	// Untimed warm-up: reach the recycled-hole steady state.
	if _, _, err := st.pass(&r.tally, subSeed(cfg.seed, 0, 1), 1, ops1/2); err != nil {
		return err
	}
	if _, _, err := st.pass(&r.tally, subSeed(cfg.seed, 0, 2), clients2c, ops2/2); err != nil {
		return err
	}
	r.e2e["setup_s"] = (time.Since(setupStart) - st.prefaulted).Seconds()

	var all []gcCycle
	sr := series{}
	reps, err := cfg.repeatTimed(r, func(rep int) error {
		p1, c1, err := st.pass(&r.tally, subSeed(cfg.seed, rep+1, 1), 1, ops1)
		if err != nil {
			return err
		}
		p2, c2, err := st.pass(&r.tally, subSeed(cfg.seed, rep+1, 2), clients2c, ops2)
		if err != nil {
			return err
		}
		all = append(append(all, c1...), c2...)
		sr.addPasses(p1, p2)
		sr.add("gc_pause_p50_ms", gcPauseP50(append(c1, c2...)))
		return nil
	})
	if err != nil {
		return err
	}
	if cfg.trace {
		return traceGCChurn(r, st, all, sr)
	}
	r.reportSeries(sr, reps)
	r.info["ops_1c"], r.info["ops_2c"] = ops1, ops2
	r.info["gc_cycles"] = len(all)

	// What the heap holds right after a collection, over all of them: one
	// cycle in five leaves a looser heap (2.2 instead of 1.57), whichever
	// the last one happens to be.
	var used []float64
	for _, c := range all {
		used = append(used, float64(c.used))
	}
	r.e2e["space_amp"] = median(used) / float64(live*nodePayload)
	if err := st.rt.SyncHeap(graphHeapName); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	l := int(splitmix(uint64(cfg.seed)) % uint64(st.dirs[0].lists))
	rs := measureRestart(&r.tally, func(*restartSplit) error {
		return restartGraph(dir, l, st.dirs[0].vals[l*gcListLen])
	})
	reportRestart(r, rs)
	return nil
}

func gcPauseP50(cycles []gcCycle) float64 {
	var v []float64
	for _, c := range cycles {
		v = append(v, ms(c.res.PauseTime))
	}
	return median(v)
}
