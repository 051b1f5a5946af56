package espresso

import (
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
func burstThroughPool[C interface{ Release() }](t *testing.T, p *ctxPool[C], use func(c C, i int) error, free func() int) {
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
		burstThroughPool(t, &m.pool, func(c pmapCtx, i int) error { return c.Put(int64(i), 0) }, h.FreeBytes)
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
