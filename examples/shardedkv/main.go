// Shardedkv runs a range-partitioned sharded map (internal/pshard)
// through its full life cycle: four independent persistent heaps behind
// one key space, concurrent mutators, a staggered per-shard collection,
// a worst-case power loss, and a parallel-recovery reboot that must
// produce exactly the committed mappings.
//
// # Why shards
//
// Each shard owns its own device, region-top table, redo log, index,
// collector state, and safepoint domain — no lock, cache line, or fence is
// shared between shards. That buys two things this example demonstrates:
//
//   - GCShard(i) pauses only shard i's operations; the other three
//     shards keep serving (staggered pauses instead of stacked ones);
//   - reopening the set fans per-shard recovery out across workers, so
//     restart time scales with the slowest shard, not the sum.
//
// # The crash rule
//
// The set's manifest (shard count, hash-range table, generation) is
// fully persisted before any shard heap exists, so a reboot re-derives
// the complete shard list from the manifest alone — even out of a crash
// that strands a partially-created set. The crash below is the
// adversarial CrashFlushedOnly image per device: only explicitly flushed
// lines survive, on every shard independently.
//
//	go run ./examples/shardedkv
package main

import (
	"fmt"
	"log"
	"sync"

	"espresso/internal/nvm"
	"espresso/internal/pshard"
)

const (
	shards     = 4
	goroutines = 4
	perG       = 200
)

func main() {
	store := pshard.NewMemStore()
	set, err := pshard.OpenSet(store, "kv", pshard.Options{
		Shards:        shards,
		ShardDataSize: 4 << 20,
		Mode:          nvm.Tracked, // crash images available
	})
	if err != nil {
		log.Fatal(err)
	}

	// Four mutators, each with its own operation context, write disjoint
	// key ranges; keys route to shards by hash range, so every goroutine
	// touches every shard. Every fourth key is deleted again.
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := set.NewCtx()
			defer c.Release()
			for i := 0; i < perG; i++ {
				key := int64(g*100000 + i)
				if err := c.Put(key, key*10); err != nil {
					log.Fatal(err)
				}
				if i%4 == 3 && !c.Delete(key) {
					log.Fatal("delete missed its own insert")
				}
			}
		}(g)
	}
	wg.Wait()
	fmt.Printf("committed %d entries across %d shards (no shutdown flush!)\n",
		set.Len(), set.NumShards())

	// A staggered collection: shard 1 compacts under its own world lock
	// while shards 0, 2, 3 stay fully available (their devices see zero
	// traffic during it — pshard's tests assert exactly that).
	if _, err := set.GCShard(1); err != nil {
		log.Fatal(err)
	}
	fmt.Println("collected shard 1; sibling shards never paused")

	// Power loss, worst case, on every device at once: only explicitly
	// flushed lines survive, per shard independently.
	images := map[string][]byte{
		pshard.ManifestName("kv"): crash(store, pshard.ManifestName("kv")),
	}
	for i := 0; i < shards; i++ {
		name := pshard.ShardHeapName("kv", i)
		images[name] = crash(store, name)
	}
	fmt.Println("simulated power loss; rebooting from per-shard crash images")

	// Reboot: a fresh store holding only the crash images. OpenSet fans
	// recovery out across 4 workers — heap load, interrupted-GC repair,
	// and index recovery per shard, in parallel.
	store2 := pshard.NewMemStore()
	for name, img := range images {
		if err := store2.Register(name, nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked})); err != nil {
			log.Fatal(err)
		}
	}
	set2, err := pshard.OpenSet(store2, "kv", pshard.Options{RecoveryWorkers: 4})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < set2.NumShards(); i++ {
		rec := set2.Shard(i).Recovery()
		fmt.Printf("  shard %d recovered: %d entries, %d device reads, gc-repair=%v\n",
			i, set2.Shard(i).Index().Len(), rec.Dev.Reads, rec.GCRecovered)
	}

	// The reloaded set must contain exactly the committed mappings.
	c := set2.NewCtx()
	defer c.Release()
	good, want := 0, 0
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			key := int64(g*100000 + i)
			v, ok := c.Get(key)
			if i%4 == 3 {
				if ok {
					log.Fatalf("deleted key %d resurrected!", key)
				}
				continue
			}
			want++
			if ok && v == key*10 {
				good++
			}
		}
	}
	fmt.Printf("after reboot: %d/%d committed entries intact, deletes honored, set size %d\n",
		good, want, set2.Len())
	if good != want || set2.Len() != want {
		log.Fatal("data loss detected!")
	}
	fmt.Println("sharded kv survived the crash with exactly the committed keys")
}

// crash takes the worst-case power-loss image of one named device.
func crash(store *pshard.MemStore, name string) []byte {
	dev, err := store.Open(name)
	if err != nil {
		log.Fatal(err)
	}
	return dev.CrashImage(nvm.CrashFlushedOnly, 0)
}
