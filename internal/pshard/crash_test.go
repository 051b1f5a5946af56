package pshard

import (
	"testing"

	"espresso/internal/klass"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
	"espresso/internal/pheap"
)

// loadForCheck loads a heap image for direct inspection.
func loadForCheck(dev *nvm.Device) (*pheap.Heap, error) {
	return pheap.Load(dev, klass.NewRegistry())
}

// buildCrashedScenario constructs the canonical recovery workload: a
// 4-shard set with a committed model, with shard 1 crashed mid-collection
// (its image carries a persisted gcActive, so reopening must run the pgc
// recovery pass on it). Returns the power-loss images, the committed
// model, and the crashed shard's index.
func buildCrashedScenario(t *testing.T) (map[string][]byte, map[int64]int64, int) {
	t.Helper()
	const crashShard = 1
	store := NewMemStore()
	set, err := OpenSet(store, "kv", testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[int64]int64)
	c := set.NewCtx()
	for k := int64(0); k < 800; k++ {
		if err := c.Put(k, k*11); err != nil {
			t.Fatal(err)
		}
		model[k] = k * 11
	}
	// Garbage on every shard so collections move things.
	for k := int64(0); k < 400; k++ {
		if err := c.Put(k, k*13); err != nil {
			t.Fatal(err)
		}
		model[k] = k * 13
	}
	c.Release()

	// Crash shard crashShard mid-collection: wait until the persisted
	// gcActive flag is up, then let two more flushes land and cut
	// power. The crash image is then guaranteed to need pgc recovery.
	sh := set.Shard(crashShard)
	dev := sh.Heap().Device()
	faultdev.CrashWhen(dev, 2, sh.Heap().GCActive)
	crashed, err := faultdev.Run(dev, func() error {
		_, err := set.GCShard(crashShard)
		return err
	})
	if err != nil {
		t.Fatalf("GCShard: %v", err)
	}
	if !crashed {
		t.Fatal("collection completed without reaching the injected crash point")
	}

	imgs := images(t, store, "kv", 4)
	// Sanity: the scenario really does leave an interrupted collection.
	re := nvm.FromImage(append([]byte(nil), imgs[ShardHeapName("kv", crashShard)]...),
		nvm.Config{Mode: nvm.Tracked})
	h, err := loadForCheck(re)
	if err != nil {
		t.Fatalf("loading crashed shard image: %v", err)
	}
	if !h.GCActive() {
		t.Fatal("crashed shard image does not carry gcActive; scenario is inert")
	}
	return imgs, model, crashShard
}

// TestCrashDuringParallelRecovery injects a power cut while the parallel
// recovery fan-out is mid-flight — the crashed shard is replaying an
// interrupted collection while its siblings recover cleanly — and checks
// that a second OpenSet lands on exactly the committed mappings, with no
// double-applied replay and the manifest generation all-old after the
// failed open, all-new after the successful one.
func TestCrashDuringParallelRecovery(t *testing.T) {
	imgs, model, crashShard := buildCrashedScenario(t)
	sawCrash := false
	sweepErr := faultdev.SweepDoubling(func(k uint64) (bool, error) {
		store := storeFrom(t, imgs)
		dev, err := store.Open(ShardHeapName("kv", crashShard))
		if err != nil {
			t.Fatal(err)
		}
		faultdev.CrashIn(dev, k)
		// The injected panic fires inside a recovery worker; pshard's
		// containment converts it to a per-shard error that OpenSet
		// returns, and Run recognizes it (IsCrashError) as the crash.
		crashed, err := faultdev.Run(dev, func() error {
			_, err := OpenSet(store, "kv", Options{Mode: nvm.Tracked, RecoveryWorkers: 2})
			return err
		})
		if err != nil {
			t.Fatalf("k=%d: unexpected OpenSet error: %v", k, err)
		}
		if !crashed {
			// Recovery finished under k flushes: the sweep has covered
			// every boundary.
			return false, nil
		}
		sawCrash = true

		// All-old: the failed open must not have bumped the generation.
		mdev, err := store.Open(ManifestName("kv"))
		if err != nil {
			t.Fatal(err)
		}
		mani, err := ReadManifest(mdev)
		if err != nil {
			t.Fatalf("k=%d: manifest unreadable after crashed recovery: %v", k, err)
		}
		if mani.Generation != 1 {
			t.Fatalf("k=%d: generation %d after failed open, want 1 (all-old)", k, mani.Generation)
		}

		// Power-cut the half-recovered state and open again: every
		// repair is idempotent, so the committed set must come back
		// exactly.
		store2 := storeFrom(t, images(t, store, "kv", 4))
		set, err := OpenSet(store2, "kv", Options{Mode: nvm.Tracked})
		if err != nil {
			t.Fatalf("k=%d: second OpenSet: %v", k, err)
		}
		if g := set.Manifest().Generation; g != 2 {
			t.Fatalf("k=%d: generation %d after successful open, want 2 (all-new)", k, g)
		}
		verifySet(t, "second open", set, model)
		return true, nil
	})
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	if !sawCrash {
		t.Fatal("no injected crash ever fired; recovery issued no flushes")
	}
}
