package espresso

import (
	"sync/atomic"

	"espresso/internal/layout"
	"espresso/internal/stackstripe"
	"espresso/internal/telemetry"
)

// maxIdleCtxs bounds every per-map (and, through ShardedPMap, per-shard)
// idle operation-context pool. Each idle ctx pins a PLAB region
// (layout.RegionSize, 256 KB) of its heap until the next persistent
// collection, so an unbounded pool multiplied by N sharded heaps would
// quietly pin N × peak-concurrency regions. 32 covers any plausible
// serving concurrency per map while capping the idle footprint at
// 8 MB per map (or per shard).
const maxIdleCtxs = 32

// ctxPool is the free list of operation contexts behind PMap
// (pindex.Ctx) and ShardedPMap (pshard.Ctx), capped at maxIdleCtxs.
// sync.Pool would be the obvious choice, but it sheds entries on
// runtime GCs (and randomly under the race detector), and a shed ctx
// leaks its attached PLAB region until the next persistent collection
// — a quarter-megabyte per drop, per shard the ctx touched. Releasing
// past the cap is explicit instead: the ctx hands its PLAB headroom
// back to the heap first. Idle ctxs sit in slots of a cache line each
// (nil = empty), probed from the one the caller's stack picks
// (stackstripe): a borrow is one Swap, a put one CompareAndSwap, and two
// clients seldom share a line.
type ctxPool[T any, C interface {
	*T
	Release()
}] struct {
	newCtx func() C
	slots  [maxIdleCtxs]struct {
		c atomic.Pointer[T]
		_ [layout.LineSize - 8]byte
	}

	// created counts every newCtx call, retired every release past the
	// cap. created − retired − idle is the number checked out right now;
	// retired > 0 flags a concurrency burst past maxIdleCtxs, each drop
	// costing a PLAB detach/reattach (per shard) on the next miss.
	created atomic.Int64
	retired atomic.Int64
}

func (p *ctxPool[T, C]) borrow() C {
	for i, s := 0, stackstripe.Pick(); i < maxIdleCtxs; i++ {
		slot := &p.slots[(s+i)%maxIdleCtxs].c
		if slot.Load() != nil {
			if c := slot.Swap(nil); c != nil {
				return c
			}
		}
	}
	p.created.Add(1)
	return p.newCtx()
}

func (p *ctxPool[T, C]) put(c C) {
	for i, s := 0, stackstripe.Pick(); i < maxIdleCtxs; i++ {
		slot := &p.slots[(s+i)%maxIdleCtxs].c
		if slot.Load() == nil && slot.CompareAndSwap(nil, c) {
			return
		}
	}
	// Past the cap: retire the ctx properly so its PLAB regions unpin now
	// rather than at the next collection.
	p.retired.Add(1)
	c.Release()
}

func (p *ctxPool[T, C]) idleCount() int64 {
	var n int64
	for i := range p.slots {
		if p.slots[i].c.Load() != nil {
			n++
		}
	}
	return n
}

// registerGauges publishes the pool's occupancy on reg (nil = telemetry
// off) as prefix.{idle,created,retired}. idle counts the full slots at
// snapshot time, without a lock: a ctx moving meanwhile may count 0 or 2.
func (p *ctxPool[T, C]) registerGauges(reg *telemetry.Registry, prefix string) {
	reg.RegisterGauge(prefix+".idle", p.idleCount)
	reg.RegisterGauge(prefix+".created", p.created.Load)
	reg.RegisterGauge(prefix+".retired", p.retired.Load)
}
