package espresso

import (
	"testing"

	"espresso/internal/pindex"
)

// The index's volatile key → node hints must not outlive a collection
// that moves nodes: warm the table, fill the heap below the nodes with
// garbage, collect, and require that the first probe afterwards is a miss
// (the layout epoch moved, the table is forgotten — not a stale address
// read) and that every key still reads its oracle value. Two rounds, so
// the second runs on a table rebuilt after the first move.

const (
	hintGCKeys   = 2000 // 512 buckets: the table stays far below the humongous threshold
	hintGCRounds = 2
)

// probeIsMiss performs one Get of key through c and reports whether it
// took the hint table's miss path, failing the test if key is absent.
func probeIsMiss(t *testing.T, c *pindex.Ctx, key int64) bool {
	t.Helper()
	before := c.Stats()
	if _, ok := c.Get(key); !ok {
		t.Fatalf("key %d absent", key)
	}
	after := c.Stats()
	if after.HintHits+after.HintMisses != before.HintHits+before.HintMisses+1 {
		t.Fatalf("a Get probed the hint table %d times", after.HintHits+after.HintMisses-before.HintHits-before.HintMisses)
	}
	return after.HintMisses == before.HintMisses+1
}

func TestPMapHintsAcrossPersistentGC(t *testing.T) {
	rt, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateHeap("kv", 16<<20); err != nil {
		t.Fatal(err)
	}
	m, err := rt.OpenPMap("kv", "hinted", PMapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	box := MustClass("hintgc/Box", nil, Long("v"))
	fV := rt.MustResolveField(box, "v")
	put := func(key, val int64) {
		t.Helper()
		if err := putBoxedLong(rt, m, box, fV, key, val); err != nil {
			t.Fatal(err)
		}
	}
	held := m.Index().NewCtx() // its Stats show which path a Get took
	defer held.Release()
	oracle := make([]int64, hintGCKeys)
	for r := 0; r < hintGCRounds; r++ {
		// Every key gets a fresh box (the old ones die) and, in round 0,
		// a node; then half the keys are deleted and re-put, so dead
		// nodes sit between the live ones and compaction has to slide.
		for k := int64(0); k < hintGCKeys; k++ {
			oracle[k] = int64(r+1)<<32 | k
			put(k, oracle[k])
		}
		for k := int64(0); k < hintGCKeys; k += 2 {
			m.Delete(k)
			put(k, oracle[k])
		}
		hot := int64(hintGCKeys - 1)
		m.Get(hot)
		if probeIsMiss(t, held, hot) {
			t.Fatalf("round %d: warm key missed before the collection", r)
		}
		res, err := rt.PersistentGC("kv")
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if res.MovedObjects == 0 {
			t.Fatalf("round %d: the collection moved nothing; the test is vacuous", r)
		}
		if !probeIsMiss(t, held, hot) {
			t.Fatalf("round %d: first probe after the collection hit a hint from before it", r)
		}
		for k := int64(0); k < hintGCKeys; k++ {
			ref, ok := m.Get(k)
			if !ok {
				t.Fatalf("round %d: key %d absent after the collection", r, k)
			}
			if got := rt.GetLongFast(ref, fV); got != oracle[k] {
				t.Fatalf("round %d: key %d = %#x, want %#x", r, k, got, oracle[k])
			}
		}
		if probeIsMiss(t, held, hot) {
			t.Fatalf("round %d: the table did not refill after the collection", r)
		}
	}
}

func TestShardedPMapHintsAcrossGC(t *testing.T) {
	rt, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.OpenSharded("hinted", ShardedPMapOptions{Shards: 2, ShardDataSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// One held pindex ctx per shard, on the shard's own index: nothing
	// else runs while the test probes, so it needs no pin.
	held := make([]*pindex.Ctx, m.NumShards())
	for i := range held {
		held[i] = m.Set().Shard(i).Index().NewCtx()
		defer held[i].Release()
	}
	oracle := make([]int64, hintGCKeys)
	for r := 0; r < hintGCRounds; r++ {
		for k := int64(0); k < hintGCKeys; k++ {
			oracle[k] = int64(r+1)<<32 | k
			if err := m.Put(k, oracle[k]); err != nil {
				t.Fatal(err)
			}
		}
		for k := int64(0); k < hintGCKeys; k += 2 {
			m.Delete(k)
			if err := m.Put(k, oracle[k]); err != nil {
				t.Fatal(err)
			}
		}
		// One key per shard to watch; the Get below leaves its hint in place.
		hot := make([]int64, m.NumShards())
		for k := int64(0); k < hintGCKeys; k++ {
			hot[m.ShardOf(k)] = k
		}
		for i, k := range hot {
			m.Get(k)
			if probeIsMiss(t, held[i], k) {
				t.Fatalf("round %d shard %d: warm key missed before the collection", r, i)
			}
		}
		results, err := m.GC()
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for i, res := range results {
			if res.MovedObjects == 0 {
				t.Fatalf("round %d shard %d: the collection moved nothing; the test is vacuous", r, i)
			}
			if !probeIsMiss(t, held[i], hot[i]) {
				t.Fatalf("round %d shard %d: first probe after the collection hit a hint from before it", r, i)
			}
		}
		for k := int64(0); k < hintGCKeys; k++ {
			if got, ok := m.Get(k); !ok || got != oracle[k] {
				t.Fatalf("round %d: key %d = (%#x, %v), want %#x", r, k, got, ok, oracle[k])
			}
		}
		for i, k := range hot {
			if probeIsMiss(t, held[i], k) {
				t.Fatalf("round %d shard %d: the table did not refill after the collection", r, i)
			}
		}
	}
}
