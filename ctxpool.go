package espresso

import (
	"sync"
	"sync/atomic"

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
// back to the heap first.
type ctxPool[C interface{ Release() }] struct {
	newCtx func() C

	mu   sync.Mutex
	idle []C

	// created counts every newCtx call, retired every release past the
	// cap. created − retired − idle is the number checked out right now;
	// retired > 0 flags a concurrency burst past maxIdleCtxs, each drop
	// costing a PLAB detach/reattach (per shard) on the next miss.
	created atomic.Int64
	retired atomic.Int64
}

func (p *ctxPool[C]) borrow() C {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c
	}
	p.mu.Unlock()
	p.created.Add(1)
	return p.newCtx()
}

func (p *ctxPool[C]) put(c C) {
	p.mu.Lock()
	if len(p.idle) < maxIdleCtxs {
		p.idle = append(p.idle, c)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	// Past the cap: retire the ctx properly so its PLAB regions unpin now
	// rather than at the next collection.
	p.retired.Add(1)
	c.Release()
}

func (p *ctxPool[C]) idleCount() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(len(p.idle))
}

// registerGauges publishes the pool's occupancy on reg (nil = telemetry
// off) as prefix.{idle,created,retired}. idle is sampled at snapshot
// time — gauge callbacks run outside the registry lock precisely so
// this can take the pool lock.
func (p *ctxPool[C]) registerGauges(reg *telemetry.Registry, prefix string) {
	reg.RegisterGauge(prefix+".idle", p.idleCount)
	reg.RegisterGauge(prefix+".created", p.created.Load)
	reg.RegisterGauge(prefix+".retired", p.retired.Load)
}
