package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"espresso"
	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
	"espresso/internal/pindex"
)

// kv_get: 95 % Get + read value / 5 % Put of an existing key with a fresh
// box, Zipf(1.1) key ranks scattered by a seeded hash, on one PMap of
// kvGetKeys preloaded keys. The working set (nodes + boxes) far exceeds
// the CPU cache and the default 64K-bucket cap gives ~16-entry chains, so
// pindex traversal, nvm read accounting, the PMap ctx pool and the core
// safepoint pin do the work; pheap alloc and flush/fence do almost none.
// No collection runs, so a box ref may be carried from the mutator to Put.
const (
	kvGetKeys     = 1 << 20
	kvGetHeapSize = 256 << 20
	kvGetOps1c    = 500_000
	kvGetOps2c    = 1_000_000
	kvGetPutShare = 0.05
	// kvGetEpoch is the popularity drift: the rank → key scatter is re-drawn
	// every so many ops of a stream. How deep the few hottest keys sit in
	// their ~16-entry chains decides a third of all lookups, so one fixed
	// hot set makes throughput a property of the seed (±9 % measured);
	// averaging over many hot sets per pass makes it a property of the code.
	kvGetEpoch    = 8192
	kvGetHeapName = "kvget"
	kvGetMapName  = "map"
	zipfS         = 1.1
	durabilityOps = 50_000 // ops of the durability pass (tracked devices)
)

var boxClass = espresso.MustClass("bench/Box", nil, espresso.Long("v"))

// kvGetState is one opened map plus everything a client needs to drive it.
type kvGetState struct {
	rt   *espresso.Runtime
	m    *espresso.PMap
	heap *pheap.Heap
	fV   espresso.FieldRef
	keys int
	// oracle[k] is the acknowledged value of key k. Client c of a pass owns
	// the keys ≡ c (mod clients), so clients never touch the same entry.
	oracle []int64
	// prefaulted is how long touching the heap's pages took (see prefault).
	prefaulted time.Duration
	muts       []*espresso.Mutator // one per client
}

// scatter maps a popularity rank to a key index with a seeded odd
// multiplier and offset — a bijection on a power-of-two space — so the hot
// keys are spread over the whole table instead of clustered at 0.
type scatter struct {
	mul, add, mask uint64
}

func newScatter(seed int64, n int) scatter {
	return scatter{mul: splitmix(uint64(seed)) | 1, add: splitmix(uint64(seed) + 1), mask: uint64(n - 1)}
}

func (s scatter) at(rank uint64) uint64 { return (rank*s.mul + s.add) & s.mask }

// keyFor returns the key client c of `clients` uses for popularity rank r:
// the scattered index within the client's own residue class.
func (s scatter) keyFor(rank uint64, c, clients int) int64 {
	per := (s.mask + 1) / uint64(clients)
	return int64(s.at(rank)%per)*int64(clients) + int64(c)
}

func initialValue(key int64) int64 { return key*7 + 1 }

func openKVGet(cfg config, dir string, opts espresso.Options, keys, heapSize int) (*kvGetState, error) {
	opts.HeapDir = dir
	rt, err := espresso.Open(opts)
	if err != nil {
		return nil, err
	}
	if err := rt.CreateHeap(kvGetHeapName, heapSize); err != nil {
		return nil, err
	}
	m, err := rt.OpenPMap(kvGetHeapName, kvGetMapName, espresso.PMapOptions{})
	if err != nil {
		return nil, err
	}
	h, _ := rt.Heap(kvGetHeapName)
	st := &kvGetState{
		rt: rt, m: m, heap: h, keys: keys, prefaulted: prefault(h.Device()),
		fV:     rt.MustResolveField(boxClass, "v"),
		oracle: make([]int64, keys),
	}
	for c := 0; c < clients2c; c++ {
		mut, err := rt.NewMutator()
		if err != nil {
			return nil, err
		}
		st.muts = append(st.muts, mut)
	}
	// Preload with both clients, each inserting its own residue class — on
	// a tracked device with one: Flush there copies whole cache lines into
	// the shadow view, and two clients publishing into neighbouring bucket
	// slots would race on that copy.
	loaders := clients2c
	if opts.TrackedNVM {
		loaders = 1
	}
	errs := make(chan error, loaders)
	for c := 0; c < loaders; c++ {
		go func(c int) {
			for k := int64(c); k < int64(keys); k += int64(loaders) {
				if err := st.facade(c).put(k, initialValue(k)); err != nil {
					errs <- err
					return
				}
				st.oracle[k] = initialValue(k)
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < loaders; c++ {
		if err := <-errs; err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return st, nil
}

// kvGetEntry is the entry point a stream is driven through. put boxes
// the value, persists the box and publishes it; get looks the key up and
// reads the boxed value.
type kvGetEntry interface {
	put(key, val int64) error
	get(key int64) (int64, bool)
}

// kvGetFacade is the public path: PMap (pooled ctx) + Mutator + Runtime.
type kvGetFacade struct {
	st  *kvGetState
	mut *espresso.Mutator
}

// box allocates and persists a value box through the client's mutator.
func (e kvGetFacade) box(val int64) (espresso.Ref, error) {
	box, err := e.mut.PNew(boxClass, 0)
	if err != nil {
		return 0, err
	}
	e.mut.SetLongFast(box, e.st.fV, val)
	return box, e.st.rt.FlushObject(box)
}

func (e kvGetFacade) put(key, val int64) error {
	box, err := e.box(val)
	if err != nil {
		return err
	}
	return e.st.m.Put(key, box)
}

func (e kvGetFacade) get(key int64) (int64, bool) {
	ref, ok := e.st.m.Get(key)
	if !ok {
		return 0, false
	}
	return e.st.rt.GetLongFast(ref, e.st.fV), true
}

func (st *kvGetState) facade(c int) kvGetEntry { return kvGetFacade{st, st.muts[c]} }

// kvGetStream is one client's pre-generated op stream for one pass: the
// key of every op, complemented (negative) when the op is a Put.
type kvGetStream struct {
	keys []int64
	val  int64 // base of the fresh values this stream writes
}

func (st *kvGetState) genStream(seed int64, ops, c, clients int) kvGetStream {
	r := rand.New(rand.NewSource(seed))
	per := uint64(st.keys / clients)
	z := rand.NewZipf(r, zipfS, 1, per-1)
	s := kvGetStream{keys: make([]int64, ops), val: (seed & 0xffff_ffff) << 24}
	var scat scatter
	for i := range s.keys {
		if i%kvGetEpoch == 0 {
			scat = newScatter(subSeed(seed, i/kvGetEpoch), st.keys)
		}
		s.keys[i] = scat.keyFor(z.Uint64(), c, clients)
		if r.Float64() < kvGetPutShare {
			s.keys[i] = ^s.keys[i]
		}
	}
	return s
}

// stepKVGet performs op i of the stream through e and checks it against
// (and updates) the oracle.
func stepKVGet(e kvGetEntry, oracle []int64, t *tally, s *kvGetStream, i int) {
	key := s.keys[i]
	t.attempted++
	if key < 0 {
		key = ^key
		val := s.val + int64(i)
		if err := e.put(key, val); err != nil {
			t.fail("put key %d: %v", key, err)
			return
		}
		oracle[key] = val
		return
	}
	got, ok := e.get(key)
	if !ok {
		t.fail("get key %d: absent", key)
	} else if got != oracle[key] {
		t.fail("get key %d: value %d, oracle %d", key, got, oracle[key])
	}
}

func (st *kvGetState) devStats() nvm.Stats { return st.heap.Device().Stats() }

// pass runs one closed-loop pass; entry(c) is client c's entry point.
func (st *kvGetState) pass(t *tally, seed int64, clients, ops int, entry func(c int) kvGetEntry) passResult {
	per := ops / clients
	streams := make([]kvGetStream, clients)
	entries := make([]kvGetEntry, clients)
	tallies := make([]tally, clients)
	for c := range streams {
		streams[c] = st.genStream(subSeed(seed, c), per, c, clients)
		entries[c] = entry(c)
	}
	res := runPass(clients, per, st.devStats, func(c, i int) {
		stepKVGet(entries[c], st.oracle, &tallies[c], &streams[c], i)
	})
	for c := range tallies {
		t.merge(&tallies[c])
	}
	return res
}

func runKVGet(cfg config, r *report) error {
	dir, err := os.MkdirTemp(cfg.outDir, "heaps-kvget-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	keys, heapSize := cfg.size(kvGetKeys), cfg.size(kvGetHeapSize)
	ops1, ops2 := cfg.ops(kvGetOps1c), cfg.ops(kvGetOps2c)

	setupStart := time.Now()
	st, err := openKVGet(cfg, dir, espresso.Options{}, keys, heapSize)
	if err != nil {
		return err
	}
	if cfg.breakOracle {
		for k := range st.oracle {
			st.oracle[k]++
		}
	}
	usedAfterPreload := st.heap.UsedBytes()
	// Untimed warm-up: one short pass per client count.
	st.pass(&r.tally, subSeed(cfg.seed, 0, 1), 1, ops1/4, st.facade)
	st.pass(&r.tally, subSeed(cfg.seed, 0, 2), clients2c, ops2/4, st.facade)
	r.e2e["setup_s"] = (time.Since(setupStart) - st.prefaulted).Seconds()
	r.e2e["space_amp"] = float64(usedAfterPreload) / float64(keys*16)

	if cfg.trace {
		return traceKVGet(cfg, r, st, dir)
	}

	sr := series{}
	reps, err := cfg.repeatTimed(r, func(rep int) error {
		p1 := st.pass(&r.tally, subSeed(cfg.seed, rep+1, 1), 1, ops1, st.facade)
		p2 := st.pass(&r.tally, subSeed(cfg.seed, rep+1, 2), clients2c, ops2, st.facade)
		sr.addPasses(p1, p2)
		return nil
	})
	if err != nil {
		return err
	}
	r.reportSeries(sr, reps)
	r.info["ops_1c"], r.info["ops_2c"] = ops1, ops2
	r.info["keys"] = keys

	if err := st.rt.SyncHeap(kvGetHeapName); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	key := int64(splitmix(uint64(cfg.seed)) % uint64(keys))
	rs := measureRestart(&r.tally, func(*restartSplit) error { return restartKVGet(dir, key, st.oracle[key], keys) })
	reportRestart(r, rs)
	return kvGetDurability(cfg, &r.tally)
}

// kvGetDurability reruns the head of the 1c op stream on tracked devices
// (a 1/16-size map, so the shadow copy stays cheap), takes the
// flushed-lines-only crash image, reboots from that image alone through
// pheap.Load and pindex.Open, and compares every key against the oracle
// of acknowledged ops: an acknowledged write must be present, and nothing
// unacknowledged may be.
func kvGetDurability(cfg config, t *tally) error {
	keys, heapSize := kvGetKeys/16, kvGetHeapSize/16
	st, err := openKVGet(cfg, "", espresso.Options{TrackedNVM: true}, keys, heapSize)
	if err != nil {
		return fmt.Errorf("durability: %w", err)
	}
	st.pass(t, subSeed(cfg.seed, 99), 1, cfg.ops(durabilityOps), st.facade)

	img := st.heap.Device().CrashImage(nvm.CrashFlushedOnly, cfg.seed)
	h, err := pheap.Load(nvm.FromImage(img, nvm.Config{}), klass.NewRegistry())
	if err != nil {
		return fmt.Errorf("durability: load crash image: %w", err)
	}
	ix, err := pindex.Open(h, pindex.NoPin{}, kvGetMapName, pindex.Options{})
	if err != nil {
		return fmt.Errorf("durability: open index on crash image: %w", err)
	}
	c := ix.NewCtx()
	for k := int64(0); k < int64(keys); k++ {
		t.attempted++
		ref, ok := c.Get(k)
		if !ok {
			t.fail("crash reboot: acknowledged key %d missing", k)
			continue
		}
		if got := int64(h.GetWord(ref, layout.FieldOff(0))); got != st.oracle[k] {
			t.fail("crash reboot: key %d value %d, acknowledged %d", k, got, st.oracle[k])
		}
	}
	if ix.Len() != keys {
		t.fail("crash reboot: %d entries, want %d (unacknowledged keys present)", ix.Len(), keys)
	}
	return nil
}
