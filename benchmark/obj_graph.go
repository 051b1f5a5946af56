package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"espresso"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
)

// obj_graph: the paper's PJH programming model with no index at all,
// through Runtime.NewMutator — 40 % create (PNew a 4-field node,
// SetLongFast ×2, SetRefFast onto the chain, publish the head in the
// client's directory, FlushObject node + FlushArrayElem head slot), 20 %
// update (SetLongFast + FlushField), 40 % traverse (32 × GetLongFast +
// GetRefFast, every value checked against the oracle); every 4096 creates
// one FlushTransitive of the newest chain (≤ 64 nodes). It isolates core
// accessors, the write barrier, flush coalescing and the pheap PLAB bump
// path; pindex, pshard and pgc do nothing, so an index optimisation must
// read "no change" here. The heap is sized so no collection runs, which
// is what lets clients keep chain-head refs in DRAM.
const (
	objGraphOps1c        = 300_000
	objGraphOps2c        = 500_000
	objGraphHeapSize     = 96 << 20
	objGraphPreload      = 1600 // full chains per client before the passes
	chainCap             = 64   // nodes per chain
	walkLen              = 32   // nodes visited by one traverse
	flushTransitiveEvery = 4096
	objGraphCreateShare  = 0.4
	objGraphUpdateShare  = 0.2
)

const (
	opWalk = iota
	opCreate
	opUpdate
)

// graphEntry is the entry point obj_graph ops are driven through.
type graphEntry interface {
	// create allocates a node holding (val, aux), links it in front of
	// prev, publishes it as head of the directory's slot, and persists
	// both.
	create(dir espresso.Ref, slot int, prev espresso.Ref, val, aux int64) (espresso.Ref, error)
	// update overwrites and persists a node's value.
	update(node espresso.Ref, val int64) error
	// walk reads n (value, next) pairs starting at head into out.
	walk(head espresso.Ref, out []int64)
	// flushChain persists everything reachable from head.
	flushChain(head espresso.Ref) error
}

// graphFacade is the public path: Mutator accessors, Runtime flushes.
type graphFacade struct {
	rt  *espresso.Runtime
	mut *espresso.Mutator
	f   graphFields
}

func (e graphFacade) create(dir espresso.Ref, slot int, prev espresso.Ref, val, aux int64) (espresso.Ref, error) {
	n, err := e.mut.PNew(nodeClass, 0)
	if err != nil {
		return 0, err
	}
	e.mut.SetLongFast(n, e.f.fVal, val)
	e.mut.SetLongFast(n, e.f.fAux, aux)
	if err := e.mut.SetRefFast(n, e.f.fNext, prev); err != nil {
		return 0, err
	}
	if err := e.rt.FlushObject(n); err != nil {
		return 0, err
	}
	if err := e.mut.SetElem(dir, slot, n); err != nil {
		return 0, err
	}
	return n, e.rt.FlushArrayElem(dir, slot)
}

func (e graphFacade) update(node espresso.Ref, val int64) error {
	e.mut.SetLongFast(node, e.f.fVal, val)
	return e.rt.FlushField(node, "val")
}

func (e graphFacade) walk(head espresso.Ref, out []int64) {
	n := head
	for i := range out {
		out[i] = e.mut.GetLongFast(n, e.f.fVal)
		n = e.mut.GetRefFast(n, e.f.fNext)
	}
}

func (e graphFacade) flushChain(head espresso.Ref) error { return e.rt.FlushTransitive(head) }

// graphClient is one client's chains and their oracle.
type graphClient struct {
	dir   espresso.Ref
	heads []espresso.Ref // chain heads; stable because no collection runs
	vals  []int64        // oracle: vals[chain*chainCap+k] is the k-th node created in chain
	cur   int            // chain receiving creates; chains below it are full
	curN  int            // nodes in chain cur
	made  int            // creates so far, for the FlushTransitive cadence
	buf   [walkLen]int64
}

// objGraphState is one fresh heap with both clients' preloaded chains.
type objGraphState struct {
	rt      *espresso.Runtime
	heap    *pheap.Heap
	f       graphFields
	clients [clients2c]*graphClient
	muts    [clients2c]*espresso.Mutator
	// prefaulted is how long touching the heap's pages took (see prefault).
	prefaulted time.Duration
}

func (st *objGraphState) devStats() nvm.Stats { return st.heap.Device().Stats() }

func (st *objGraphState) facade(c int) graphEntry {
	return graphFacade{rt: st.rt, mut: st.muts[c], f: st.f}
}

// openObjGraph creates the heap and preloads every client's full chains.
func openObjGraph(dir string, heapSize, preload, maxChains int) (*objGraphState, error) {
	rt, err := espresso.Open(espresso.Options{HeapDir: dir})
	if err != nil {
		return nil, err
	}
	if err := rt.CreateHeap(graphHeapName, heapSize); err != nil {
		return nil, err
	}
	st := &objGraphState{rt: rt, f: resolveGraph(rt)}
	st.heap, _ = rt.Heap(graphHeapName)
	st.prefaulted = prefault(st.heap.Device())
	for c := range st.clients {
		if st.muts[c], err = rt.NewMutator(); err != nil {
			return nil, err
		}
		cl := &graphClient{heads: make([]espresso.Ref, maxChains), vals: make([]int64, maxChains*chainCap)}
		if cl.dir, err = newGraphDir(rt, c, maxChains); err != nil {
			return nil, err
		}
		st.clients[c] = cl
		e := st.facade(c)
		for i := 0; i < preload*chainCap; i++ {
			if err := cl.create(e, initialValue(int64(i))); err != nil {
				return nil, fmt.Errorf("preload: %w", err)
			}
		}
	}
	return st, nil
}

// create appends one node to the current chain.
func (cl *graphClient) create(e graphEntry, val int64) error {
	n, err := e.create(cl.dir, cl.cur, cl.heads[cl.cur], val, int64(cl.made))
	if err != nil {
		return err
	}
	cl.heads[cl.cur] = n
	cl.vals[cl.cur*chainCap+cl.curN] = val
	cl.made++
	if cl.made%flushTransitiveEvery == 0 {
		if err := e.flushChain(n); err != nil {
			return err
		}
	}
	if cl.curN++; cl.curN == chainCap {
		cl.cur, cl.curN = cl.cur+1, 0
	}
	return nil
}

// genGraphStream pre-generates kind<<60 | 32 random bits per op.
func genGraphStream(seed int64, ops int) []int64 {
	r := rand.New(rand.NewSource(seed))
	s := make([]int64, ops)
	for i := range s {
		kind := int64(opWalk)
		if p := r.Float64(); p < objGraphCreateShare {
			kind = opCreate
		} else if p < objGraphCreateShare+objGraphUpdateShare {
			kind = opUpdate
		}
		s[i] = kind<<opKindShift | int64(r.Uint32())
	}
	return s
}

// step performs op i of the stream and checks it against the oracle.
func (cl *graphClient) step(e graphEntry, t *tally, stream []int64, valBase int64, i int) {
	kind, pick := stream[i]>>opKindShift, int(stream[i]&opKeyMask)
	t.attempted++
	switch kind {
	case opCreate:
		if err := cl.create(e, valBase+int64(i)); err != nil {
			t.fail("create in chain %d: %v", cl.cur, err)
		}
	case opUpdate:
		j := pick % cl.cur
		if err := e.update(cl.heads[j], valBase+int64(i)); err != nil {
			t.fail("update chain %d head: %v", j, err)
			return
		}
		cl.vals[j*chainCap+chainCap-1] = valBase + int64(i)
	default:
		j := pick % cl.cur
		e.walk(cl.heads[j], cl.buf[:])
		for k, got := range cl.buf {
			if want := cl.vals[j*chainCap+chainCap-1-k]; got != want {
				t.fail("walk chain %d node %d: value %d, oracle %d", j, k, got, want)
				break
			}
		}
	}
}

// pass runs one closed-loop pass over the first `clients` clients.
func (st *objGraphState) pass(t *tally, seed int64, clients, ops int, entry func(c int) graphEntry) passResult {
	per := ops / clients
	streams := make([][]int64, clients)
	entries := make([]graphEntry, clients)
	tallies := make([]tally, clients)
	for c := range streams {
		streams[c] = genGraphStream(subSeed(seed, c), per)
		entries[c] = entry(c)
	}
	valBase := (seed & 0xffff_ffff) << 24
	res := runPass(clients, per, st.devStats, func(c, i int) {
		st.clients[c].step(entries[c], &tallies[c], streams[c], valBase, i)
	})
	for c := range tallies {
		t.merge(&tallies[c])
	}
	return res
}

func (st *objGraphState) liveNodes() int {
	n := 0
	for _, cl := range st.clients {
		n += cl.made
	}
	return n
}

// objGraphMaxChains bounds the chains one client can need in a repetition.
func objGraphMaxChains(preload, ops int) int { return preload + ops/chainCap + 2 }

func runObjGraph(cfg config, r *report) error {
	ops1, ops2 := cfg.ops(objGraphOps1c), cfg.ops(objGraphOps2c)
	preload := cfg.size(objGraphPreload)
	heapSize := cfg.size(objGraphHeapSize)
	maxChains := objGraphMaxChains(preload, ops1+ops2)

	// Every repetition runs on a fresh heap (so the heap never needs a
	// collection, however many repetitions the clock allows); its
	// creation and preload are the workload's set-up, measured each time.
	sr := series{}
	var last *objGraphState
	var lastDir string
	rep := func(i int, timed bool) error {
		dir, err := os.MkdirTemp(cfg.outDir, "heaps-objgraph-")
		if err != nil {
			return err
		}
		if lastDir != "" {
			os.RemoveAll(lastDir)
		}
		lastDir = dir
		last = nil
		runtime.GC() // the previous repetition's heap is garbage now
		start := time.Now()
		st, err := openObjGraph(dir, heapSize, preload, maxChains)
		if err != nil {
			return err
		}
		setup := (time.Since(start) - st.prefaulted).Seconds()
		last = st
		if cfg.breakOracle {
			for k := range st.clients[0].vals {
				st.clients[0].vals[k]++
			}
		}
		p1 := st.pass(&r.tally, subSeed(cfg.seed, i, 1), 1, ops1, st.facade)
		p2 := st.pass(&r.tally, subSeed(cfg.seed, i, 2), clients2c, ops2, st.facade)
		if !timed {
			return nil
		}
		sr.add("setup_s", setup)
		sr.addPasses(p1, p2)
		sr.add("space_amp", float64(st.heap.UsedBytes())/float64(st.liveNodes()*nodePayload))
		return nil
	}
	defer func() { os.RemoveAll(lastDir) }()

	if cfg.trace {
		// The traced run replays its stream once per entry and round on one
		// heap, and times creates on their own besides.
		traced := cfg.ops(traceOps)
		st, err := openObjGraph("", heapSize, preload, objGraphMaxChains(preload, 10*traced+100_000))
		if err != nil {
			return err
		}
		return traceObjGraph(cfg, r, st)
	}
	if !cfg.quick {
		if err := rep(0, false); err != nil { // untimed warm-up
			return err
		}
	}
	reps, err := cfg.repeatTimed(r, func(i int) error { return rep(i+1, true) })
	if err != nil {
		return err
	}
	r.reportSeries(sr, reps)
	r.info["ops_1c"], r.info["ops_2c"] = ops1, ops2
	r.info["preloaded_nodes"] = clients2c * preload * chainCap

	// Restart on the last repetition's heap: reload it and read the head
	// of one full chain.
	if err := last.rt.SyncHeap(graphHeapName); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	cl := last.clients[0]
	j := int(splitmix(uint64(cfg.seed)) % uint64(cl.cur))
	rs := measureRestart(&r.tally, func(*restartSplit) error {
		return restartGraph(lastDir, j, cl.vals[j*chainCap+chainCap-1])
	})
	reportRestart(r, rs)
	return nil
}
