package espresso

import (
	"path/filepath"
	"sync"
	"testing"
)

func TestShardedPMapBasics(t *testing.T) {
	rt, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.OpenSharded("sessions", ShardedPMapOptions{Shards: 4, ShardDataSize: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShards() != 4 {
		t.Fatalf("NumShards = %d", m.NumShards())
	}
	for i := int64(0); i < 300; i++ {
		if err := m.Put(i, i*2); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 300; i++ {
		if v, ok := m.Get(i); !ok || v != i*2 {
			t.Fatalf("key %d = (%d, %v)", i, v, ok)
		}
		if s := m.ShardOf(i); s < 0 || s >= 4 {
			t.Fatalf("key %d routed to %d", i, s)
		}
	}
	if !m.Delete(7) {
		t.Fatal("delete 7 missed")
	}
	if m.Len() != 299 {
		t.Fatalf("Len = %d", m.Len())
	}
	seen := 0
	m.Scan(func(int64, int64) bool { seen++; return true })
	if seen != 299 {
		t.Fatalf("scan saw %d", seen)
	}
	if _, err := m.GC(); err != nil {
		t.Fatalf("GC: %v", err)
	}
	if v, ok := m.Get(12); !ok || v != 24 {
		t.Fatalf("post-GC get: (%d, %v)", v, ok)
	}
}

func TestShardedPMapReopenFromDir(t *testing.T) {
	dir := t.TempDir()
	rt, err := Open(Options{HeapDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.OpenSharded("kv", ShardedPMapOptions{Shards: 2, ShardDataSize: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if err := m.Put(i, i+5); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "kv-*.pjh")); len(files) != 3 {
		t.Fatalf("expected manifest + 2 shard images on disk, found %v", files)
	}

	// A second runtime (a new process, as far as the store is concerned)
	// reopens the set from the files; the shard count comes from the
	// manifest, not from the options.
	rt2, err := Open(Options{HeapDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := rt2.OpenSharded("kv", ShardedPMapOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumShards() != 2 {
		t.Fatalf("reopened with %d shards, want 2 from manifest", m2.NumShards())
	}
	for i := int64(0); i < 100; i++ {
		if v, ok := m2.Get(i); !ok || v != i+5 {
			t.Fatalf("key %d = (%d, %v) after reopen", i, v, ok)
		}
	}
}

// TestShardedPMapCtxPoolBounded checks the idle-context cap: after a
// burst of concurrency wider than maxIdleCtxs drains, the pool must hold
// at most maxIdleCtxs contexts — the rest were released, unpinning their
// PLAB regions, instead of idling forever (N shards would otherwise pin
// N regions per leaked ctx).
func TestShardedPMapCtxPoolBounded(t *testing.T) {
	rt, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every ctx out at once holds a PLAB region (256 KB) per shard: size
	// the shards for the whole burst, not for the idle cap.
	m, err := rt.OpenSharded("burst", ShardedPMapOptions{Shards: 2, ShardDataSize: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const burst = maxIdleCtxs + 16
	start := make(chan struct{})
	var ready, done sync.WaitGroup
	for g := 0; g < burst; g++ {
		ready.Add(1)
		done.Add(1)
		go func(g int) {
			defer done.Done()
			ready.Done()
			<-start
			for i := 0; i < 20; i++ {
				if err := m.Put(int64(g*1000+i), int64(i)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(g)
	}
	ready.Wait()
	close(start)
	done.Wait()
	if idle := m.pool.idleCount(); idle > maxIdleCtxs {
		t.Fatalf("idle ctx pool holds %d, cap is %d", idle, maxIdleCtxs)
	}
}

// TestPMapCtxPoolBounded is the same property for the unsharded map.
func TestPMapCtxPoolBounded(t *testing.T) {
	rt, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 48 bursting ctxs each pin a PLAB region; the v4 format's flight-
	// recorder ring carve-out shaved the old 8MB size's last margin.
	if err := rt.CreateHeap("kv", 16<<20); err != nil {
		t.Fatal(err)
	}
	m, err := rt.OpenPMap("kv", "users", PMapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const burst = maxIdleCtxs + 16
	start := make(chan struct{})
	var ready, done sync.WaitGroup
	for g := 0; g < burst; g++ {
		ready.Add(1)
		done.Add(1)
		go func(g int) {
			defer done.Done()
			ready.Done()
			<-start
			for i := 0; i < 20; i++ {
				if err := m.Put(int64(g*1000+i), 0); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(g)
	}
	ready.Wait()
	close(start)
	done.Wait()
	if idle := m.pool.idleCount(); idle > maxIdleCtxs {
		t.Fatalf("idle ctx pool holds %d, cap is %d", idle, maxIdleCtxs)
	}
}
