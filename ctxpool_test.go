package espresso

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"espresso/internal/layout"
	"espresso/internal/pshard"
)

// burstThroughPool checks burst ctxs out of p at once, has each attach
// a PLAB region through use, and hands them all back. Every ctx past
// maxIdleCtxs must be counted retired and actually released — which
// shows on the heap side as its region's headroom returning to the free
// estimate (an idle ctx keeps its region pinned; a dropped-but-not-
// released one would too).
func burstThroughPool[T any, C interface {
	*T
	Release()
}](t *testing.T, p *ctxPool[T, C], use func(c C, i int) error, free func() int) {
	t.Helper()
	const burst = maxIdleCtxs + 8
	ctxs := make([]C, burst)
	for i := range ctxs {
		ctxs[i] = p.borrow()
		if err := use(ctxs[i], i); err != nil {
			t.Fatal(err)
		}
	}
	pinned := free()
	for _, c := range ctxs {
		p.put(c)
	}
	if created, idle, retired := p.created.Load(), p.idleCount(), p.retired.Load(); created != burst ||
		idle != maxIdleCtxs || retired != burst-maxIdleCtxs {
		t.Fatalf("created/idle/retired = %d/%d/%d, want %d/%d/%d",
			created, idle, retired, burst, maxIdleCtxs, burst-maxIdleCtxs)
	}
	if gained, want := free()-pinned, (burst-maxIdleCtxs)*layout.RegionSize/2; gained < want {
		t.Fatalf("handing back past the cap freed %d bytes, want ≥ %d: retired ctxs were not released", gained, want)
	}
}

// TestCtxPoolBurstRetiresAndReleases runs the burst through both
// facades: one ctxPool, two ctx types.
func TestCtxPoolBurstRetiresAndReleases(t *testing.T) {
	rt, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("PMap", func(t *testing.T) {
		if err := rt.CreateHeap("kv", 16<<20); err != nil {
			t.Fatal(err)
		}
		m, err := rt.OpenPMap("kv", "burst", PMapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h, _ := rt.Heap("kv")
		burstThroughPool(t, &m.pool, func(c *pmapCtx, i int) error { return c.Put(int64(i), 0) }, h.FreeBytes)
	})
	t.Run("ShardedPMap", func(t *testing.T) {
		m, err := rt.OpenSharded("burst", ShardedPMapOptions{Shards: 2, ShardDataSize: 16 << 20})
		if err != nil {
			t.Fatal(err)
		}
		burstThroughPool(t, &m.pool, func(c *pshard.Ctx, i int) error { return c.Put(int64(i), int64(i)) }, func() int {
			free := 0
			for i := 0; i < m.NumShards(); i++ {
				free += m.Set().Shard(i).Heap().FreeBytes()
			}
			return free
		})
	})
}

// stressPool has 8 goroutines borrow, use and hand back ctxs of p — one
// to three at a time — as fast as they can while another goroutine keeps
// sampling the gauges. Every four rounds each holds five at once until
// all do — 40 out against a cap of 32 — and then all hand theirs back at
// once (they wait by yielding, not parking, so two cores leave the
// barrier together), so puts race each other for the same free slots and
// the retire path. No ctx may be out with two borrowers at once, and once
// everyone is done nothing may be missing: created − retired − idle, the
// number checked out, is 0.
func stressPool[T any, C interface {
	*T
	Release()
}](t *testing.T, p *ctxPool[T, C], use func(c C, g, i int) error) {
	t.Helper()
	const goroutines, bursts, rounds = 8, 100, 4
	var held sync.Map
	take := func(g int) C {
		c := p.borrow()
		if other, dup := held.LoadOrStore(c, g); dup {
			t.Errorf("goroutine %d was handed a ctx goroutine %d still holds", g, other)
		}
		return c
	}
	give := func(c C) {
		held.Delete(c)
		p.put(c)
	}
	done := make(chan struct{})
	var sampler, workers sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if idle := p.idleCount(); idle < 0 || idle > maxIdleCtxs {
				t.Errorf("idle gauge read %d with a cap of %d", idle, maxIdleCtxs)
				return
			}
			if live := p.created.Load() - p.retired.Load(); live < 0 {
				t.Errorf("created − retired read %d", live)
				return
			}
			runtime.Gosched()
		}
	}()
	var holding [bursts]atomic.Int32
	for g := 0; g < goroutines; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			var cs [5]C
			for b := 0; b < bursts; b++ {
				for j := range cs {
					cs[j] = take(g)
				}
				for holding[b].Add(1); holding[b].Load() < goroutines; {
					runtime.Gosched()
				}
				for j := range cs {
					give(cs[j])
				}
				for i := b * rounds; i < (b+1)*rounds; i++ {
					n := 1 + i%3
					for j := 0; j < n; j++ {
						cs[j] = take(g)
					}
					for j := 0; j < n; j++ {
						if err := use(cs[j], g, i*3+j); err != nil {
							t.Errorf("goroutine %d: %v", g, err)
						}
						give(cs[j])
					}
				}
			}
		}(g)
	}
	workers.Wait()
	close(done)
	sampler.Wait()
	created, idle, retired := p.created.Load(), p.idleCount(), p.retired.Load()
	if out := created - retired - idle; out != 0 || idle > maxIdleCtxs {
		t.Fatalf("at rest created/idle/retired = %d/%d/%d: %d checked out, want 0", created, idle, retired, out)
	}
	if retired == 0 {
		t.Fatalf("%d ctxs were out at once and none was retired at a cap of %d", 5*goroutines, maxIdleCtxs)
	}
}

// TestCtxPoolStress is the pool's -race target, over both facades' ctx
// types: real ctxs doing real puts and gets on disjoint keys.
func TestCtxPoolStress(t *testing.T) {
	rt, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("PMap", func(t *testing.T) {
		if err := rt.CreateHeap("kv", 64<<20); err != nil {
			t.Fatal(err)
		}
		m, err := rt.OpenPMap("kv", "stress", PMapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		stressPool(t, &m.pool, func(c *pmapCtx, g, i int) error {
			k := int64(g)<<32 | int64(i)
			if err := c.Put(k, 0); err != nil {
				return err
			}
			if _, ok := c.Get(k); !ok {
				return fmt.Errorf("key %d lost", k)
			}
			return nil
		})
	})
	t.Run("ShardedPMap", func(t *testing.T) {
		m, err := rt.OpenSharded("stress", ShardedPMapOptions{Shards: 2, ShardDataSize: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		stressPool(t, &m.pool, func(c *pshard.Ctx, g, i int) error {
			k := int64(g)<<32 | int64(i)
			if err := c.Put(k, k); err != nil {
				return err
			}
			if v, ok := c.Get(k); !ok || v != k {
				return fmt.Errorf("key %d = (%d, %v)", k, v, ok)
			}
			return nil
		})
	})
}

// steadyPool runs op through a facade whose pool is p: first 10 000 ops
// on one goroutine, which must reuse a single ctx (created 1, retired 0,
// idle 1), then k ∈ {2, 4} goroutines that each hold at most one ctx at
// a time, which must never find the slots full: at rest, retired is 0
// and every ctx created is idle.
func steadyPool[T any, C interface {
	*T
	Release()
}](t *testing.T, p *ctxPool[T, C], op func(g, i int) error) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if err := op(0, i); err != nil {
			t.Fatal(err)
		}
	}
	if created, idle, retired := p.created.Load(), p.idleCount(), p.retired.Load(); created != 1 || idle != 1 || retired != 0 {
		t.Fatalf("after serial ops created/idle/retired = %d/%d/%d, want 1/1/0", created, idle, retired)
	}
	for _, k := range []int{2, 4} {
		var wg sync.WaitGroup
		for g := 1; g <= k; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					if err := op(g, i); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if created, idle, retired := p.created.Load(), p.idleCount(), p.retired.Load(); idle != created-retired || retired != 0 {
			t.Fatalf("at rest after %d clients created/idle/retired = %d/%d/%d, want idle = created and none retired",
				k, created, idle, retired)
		}
	}
}

// TestCtxPoolSteadyState runs steadyPool through both facades' public
// operations, a put then a get of the same key.
func TestCtxPoolSteadyState(t *testing.T) {
	rt, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := func(g, i int) int64 { return int64(g)<<32 | int64(i) }
	t.Run("PMap", func(t *testing.T) {
		if err := rt.CreateHeap("kv", 16<<20); err != nil {
			t.Fatal(err)
		}
		m, err := rt.OpenPMap("kv", "steady", PMapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		steadyPool(t, &m.pool, func(g, i int) error {
			if err := m.Put(key(g, i), 0); err != nil {
				return err
			}
			if _, ok := m.Get(key(g, i)); !ok {
				return fmt.Errorf("key %d lost", key(g, i))
			}
			return nil
		})
	})
	t.Run("ShardedPMap", func(t *testing.T) {
		m, err := rt.OpenSharded("steady", ShardedPMapOptions{Shards: 2, ShardDataSize: 16 << 20})
		if err != nil {
			t.Fatal(err)
		}
		steadyPool(t, &m.pool, func(g, i int) error {
			k := key(g, i)
			if err := m.Put(k, k); err != nil {
				return err
			}
			if v, ok := m.Get(k); !ok || v != k {
				return fmt.Errorf("key %d = (%d, %v)", k, v, ok)
			}
			return nil
		})
	})
}
