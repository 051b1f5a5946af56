package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"espresso"
	"espresso/internal/nvm"
	"espresso/internal/pshard"
)

// kv_put: 50 % Put (insert or update) / 20 % Delete / 30 % Get, uniform
// keys over a kvPutKeys key space that starts half full, on a 4-shard
// ShardedPMap. Two allocations, ~5 flushed lines and ~4.7 fences per put
// make pheap alloc, nvm flush/fence and pindex publication dominate,
// through the other stack (pshard, not core). Chains are short, so the
// traversal that dominates kv_get is small here: the same pindex code,
// used for writes beside reads.
//
// No collection runs between repetitions, and the shards are sized for
// that. At this commit a second ShardedPMap.GC() of a set that kept
// serving puts after its first loses or corrupts entries (Get reads
// absent or walks out of the device; later collections report "summary
// disagrees with marking" or "dangling klass word"); one collection of a
// never-collected set is intact, which is what the traced run measures
// for pgc.shard_pause_ms_p50.
const (
	kvPutKeys      = 1 << 20
	kvPutShards    = 4
	kvPutShardSize = 128 << 20
	kvPutOps1c     = 500_000
	kvPutOps2c     = 1_000_000
	kvPutBase      = "kvput"
	kvPutPutShare  = 0.5
	kvPutDelShare  = 0.2
	absent         = int64(-1) // oracle marker; stored values are never negative
)

const (
	opGet = iota
	opPut
	opDel
	opKindShift = 60
	opKeyMask   = 1<<opKindShift - 1
)

type kvPutState struct {
	rt   *espresso.Runtime
	s    *espresso.ShardedPMap
	keys int
	// oracle[k] is the acknowledged value of key k or absent. Client c of
	// a pass owns the keys ≡ c (mod clients).
	oracle []int64
	live   int // keys present, maintained between passes
	// prefaulted is how long touching the shards' pages took (see prefault).
	prefaulted time.Duration
}

// preloaded reports whether key k starts present: half of every client's
// residue class, for either client count.
func preloaded(k int64) bool { return k%4 < 2 }

func openKVPut(rt *espresso.Runtime, base string, opts espresso.ShardedPMapOptions, keys int) (*kvPutState, error) {
	s, err := rt.OpenSharded(base, opts)
	if err != nil {
		return nil, err
	}
	st := &kvPutState{rt: rt, s: s, keys: keys, oracle: make([]int64, keys)}
	for i := 0; i < s.NumShards(); i++ {
		st.prefaulted += prefault(s.Set().Shard(i).Heap().Device())
	}
	errs := make(chan error, clients2c)
	for c := 0; c < clients2c; c++ {
		go func(c int) {
			for k := int64(c); k < int64(keys); k += clients2c {
				st.oracle[k] = absent
				if !preloaded(k) {
					continue
				}
				if err := s.Put(k, initialValue(k)); err != nil {
					errs <- err
					return
				}
				st.oracle[k] = initialValue(k)
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < clients2c; c++ {
		if err := <-errs; err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	st.live = s.Len()
	return st, nil
}

// kvPutStream is one client's pre-generated op stream: key | kind<<60.
type kvPutStream struct {
	ops []int64
	val int64
}

func genKVPutStream(seed int64, keys, ops, c, clients int) kvPutStream {
	r := rand.New(rand.NewSource(seed))
	per := int64(keys / clients)
	s := kvPutStream{ops: make([]int64, ops), val: (seed & 0xffff_ffff) << 24}
	for i := range s.ops {
		key := r.Int63n(per)*int64(clients) + int64(c)
		kind := int64(opGet)
		if p := r.Float64(); p < kvPutPutShare {
			kind = opPut
		} else if p < kvPutPutShare+kvPutDelShare {
			kind = opDel
		}
		s.ops[i] = key | kind<<opKindShift
	}
	return s
}

// kvOps is the entry point a stream is driven through: the facade
// (*espresso.ShardedPMap) or a client-held *pshard.Ctx.
type kvOps interface {
	Put(key, val int64) error
	Get(key int64) (int64, bool)
	Delete(key int64) bool
}

// stepKVPut performs op i of the stream through e and checks it against
// (and updates) the oracle.
func stepKVPut(e kvOps, oracle []int64, t *tally, s *kvPutStream, i int) {
	key, kind := s.ops[i]&opKeyMask, s.ops[i]>>opKindShift
	t.attempted++
	switch kind {
	case opPut:
		val := s.val + int64(i)
		if err := e.Put(key, val); err != nil {
			t.fail("put key %d: %v", key, err)
			return
		}
		oracle[key] = val
	case opDel:
		if ok := e.Delete(key); ok != (oracle[key] != absent) {
			t.fail("delete key %d: present=%v, oracle %d", key, ok, oracle[key])
		}
		oracle[key] = absent
	default:
		got, ok := e.Get(key)
		if !ok {
			got = absent
		}
		if got != oracle[key] {
			t.fail("get key %d: %d, oracle %d", key, got, oracle[key])
		}
	}
}

func (st *kvPutState) devStats() nvm.Stats {
	var s nvm.Stats
	set := st.s.Set()
	for i := 0; i < set.NumShards(); i++ {
		s = s.Add(set.Shard(i).Heap().Device().Stats())
	}
	return s
}

func (st *kvPutState) usedBytes() int {
	n := 0
	set := st.s.Set()
	for i := 0; i < set.NumShards(); i++ {
		n += set.Shard(i).Heap().UsedBytes()
	}
	return n
}

// pass runs one closed-loop pass; entry(c) is client c's entry point.
func (st *kvPutState) pass(t *tally, seed int64, clients, ops int, entry func(c int) kvOps) passResult {
	per := ops / clients
	streams := make([]kvPutStream, clients)
	entries := make([]kvOps, clients)
	tallies := make([]tally, clients)
	for c := range streams {
		streams[c] = genKVPutStream(subSeed(seed, c), st.keys, per, c, clients)
		entries[c] = entry(c)
	}
	res := runPass(clients, per, st.devStats, func(c, i int) {
		stepKVPut(entries[c], st.oracle, &tallies[c], &streams[c], i)
	})
	for c := range tallies {
		t.merge(&tallies[c])
	}
	st.live = st.s.Len()
	return res
}

func (st *kvPutState) facade(int) kvOps { return st.s }

func runKVPut(cfg config, r *report) error {
	dir, err := os.MkdirTemp(cfg.outDir, "heaps-kvput-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	keys := cfg.size(kvPutKeys)
	ops1, ops2 := cfg.ops(kvPutOps1c), cfg.ops(kvPutOps2c)
	opts := espresso.ShardedPMapOptions{Shards: kvPutShards, ShardDataSize: cfg.size(kvPutShardSize)}

	setupStart := time.Now()
	rt, err := espresso.Open(espresso.Options{HeapDir: dir})
	if err != nil {
		return err
	}
	st, err := openKVPut(rt, kvPutBase, opts, keys)
	if err != nil {
		return err
	}
	defer st.s.Close()

	if cfg.breakOracle {
		for k := range st.oracle {
			st.oracle[k]++
		}
	}
	usedAfterPreload, liveAfterPreload := st.usedBytes(), st.live
	st.pass(&r.tally, subSeed(cfg.seed, 0, 1), 1, ops1/4, st.facade)
	st.pass(&r.tally, subSeed(cfg.seed, 0, 2), clients2c, ops2/4, st.facade)
	r.e2e["setup_s"] = (time.Since(setupStart) - st.prefaulted).Seconds()
	r.e2e["space_amp"] = float64(usedAfterPreload) / float64(liveAfterPreload*16)

	if cfg.trace {
		return traceKVPut(cfg, r, st, dir, opts)
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

	if err := st.s.Sync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	rs := measureRestart(&r.tally, st.restartRound(cfg, dir))
	reportRestart(r, rs)
	return kvPutDurability(cfg, &r.tally)
}

// restartRound picks a present key for the first Get after reopening.
func (st *kvPutState) restartRound(cfg config, dir string) func(*restartSplit) error {
	key := int64(splitmix(uint64(cfg.seed)) % uint64(st.keys))
	for st.oracle[key] == absent {
		key = (key + 1) % int64(st.keys)
	}
	return func(split *restartSplit) error { return restartKVPut(dir, key, st.oracle[key], st.live, split) }
}

// kvPutDurability reruns the head of the 1c op stream on a tracked set
// over a MemStore (1/16 size), takes the flushed-lines-only crash image of
// the manifest and every shard, reboots a new set from those images only,
// and compares every key against the oracle of acknowledged ops.
func kvPutDurability(cfg config, t *tally) error {
	keys, shardSize := kvPutKeys/16, kvPutShardSize/16
	store := pshard.NewMemStore()
	popts := pshard.Options{Shards: kvPutShards, ShardDataSize: shardSize, Mode: nvm.Tracked}
	set, err := pshard.OpenSet(store, kvPutBase, popts)
	if err != nil {
		return fmt.Errorf("durability: %w", err)
	}
	defer set.Close()
	oracle := make([]int64, keys)
	ctx := set.NewCtx()
	for k := int64(0); k < int64(keys); k++ {
		oracle[k] = absent
		if preloaded(k) {
			if err := ctx.Put(k, initialValue(k)); err != nil {
				return fmt.Errorf("durability: preload: %w", err)
			}
			oracle[k] = initialValue(k)
		}
	}
	ops := cfg.ops(durabilityOps)
	stream := genKVPutStream(subSeed(cfg.seed, 99), keys, ops, 0, 1)
	for i := 0; i < ops; i++ {
		stepKVPut(ctx, oracle, t, &stream, i)
	}

	// Power loss: only flushed lines survive, on every device of the set.
	reboot := pshard.NewMemStore()
	names := []string{pshard.ManifestName(kvPutBase)}
	for i := 0; i < kvPutShards; i++ {
		names = append(names, pshard.ShardHeapName(kvPutBase, i))
	}
	for _, name := range names {
		dev, err := store.Open(name)
		if err != nil {
			return fmt.Errorf("durability: %w", err)
		}
		img := dev.CrashImage(nvm.CrashFlushedOnly, cfg.seed)
		if err := reboot.Register(name, nvm.FromImage(img, nvm.Config{})); err != nil {
			return fmt.Errorf("durability: %w", err)
		}
	}
	re, err := pshard.OpenSet(reboot, kvPutBase, pshard.Options{})
	if err != nil {
		return fmt.Errorf("durability: reopen from crash images: %w", err)
	}
	defer re.Close()
	rc := re.NewCtx()
	present := 0
	for k := int64(0); k < int64(keys); k++ {
		t.attempted++
		got, ok := rc.Get(k)
		if !ok {
			got = absent
		}
		if got != oracle[k] {
			t.fail("crash reboot: key %d = %d, acknowledged %d", k, got, oracle[k])
		}
		if oracle[k] != absent {
			present++
		}
	}
	if re.Len() != present {
		t.fail("crash reboot: %d entries, acknowledged %d (unacknowledged keys present)", re.Len(), present)
	}
	return nil
}
