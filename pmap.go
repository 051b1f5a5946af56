package espresso

import (
	"fmt"

	"espresso/internal/pindex"
	"espresso/internal/safepoint"
)

// PMapOptions configures OpenPMap. Zero values select the pindex
// defaults (8 initial buckets, load factor 4, 64K max buckets).
type PMapOptions struct {
	// InitialBuckets is the starting bucket-table size (power of two).
	InitialBuckets int
	// MaxLoadFactor is the entries-per-bucket threshold past which the
	// table doubles.
	MaxLoadFactor float64
	// MaxBuckets caps the table (power of two).
	MaxBuckets int
}

// PMap is a durable, lock-free, resizable persistent hash map — the
// serving-style concurrent index over the persistent heap
// (internal/pindex), opened by name like any other root object. All
// methods are safe for concurrent use from any goroutine: each call
// borrows a per-goroutine operation context (one pheap.Allocator — PLAB,
// device view, barrier buffer — and a private slot of the runtime's
// safepoint) from an internal pool, runs as one safepoint interval on that slot — a line no
// other context writes — and is durable-linearizable — when Put or Delete returns, the mutation
// has been persisted (no FlushObject call needed), and a reload after a
// crash recovers exactly the committed mappings.
//
// Operations must not nest: code running inside a Scan callback (or
// otherwise already inside a PMap or Mutator.Do safepoint interval on
// the same goroutine) must not call other PMap or Runtime operations —
// a collector pause waiting between the two lock acquisitions deadlocks
// the process.
type PMap struct {
	ix   *pindex.Index
	pool ctxPool[pmapCtx, *pmapCtx]
}

// pmapCtx is a pooled operation context: a pindex.Ctx that pins through
// its own slot of the runtime's safepoint, the way a pshard.Ctx holds one
// slot per shard.
type pmapCtx struct {
	*pindex.Ctx
	slot *safepoint.Slot
}

// Release retires the context and then its slot (Ctx.Release pins
// through it one last time).
func (c *pmapCtx) Release() {
	c.Ctx.Release()
	c.slot.Retire()
}

// OpenPMap attaches to (or creates) the persistent map registered under
// mapName in the named loaded heap. Attaching runs the index recovery
// pass, so a map that crashed mid-operation is consistent before the
// first lookup.
func (rt *Runtime) OpenPMap(heapName, mapName string, opts PMapOptions) (*PMap, error) {
	h, ok := rt.Heap(heapName)
	if !ok {
		return nil, fmt.Errorf("espresso: heap %q is not loaded", heapName)
	}
	ix, err := pindex.Open(h, rt.Runtime.SafepointPinner(), mapName, pindex.Options{
		InitialBuckets: opts.InitialBuckets,
		MaxLoadFactor:  opts.MaxLoadFactor,
		MaxBuckets:     opts.MaxBuckets,
	})
	if err != nil {
		return nil, err
	}
	m := &PMap{ix: ix}
	m.pool.newCtx = func() *pmapCtx {
		slot := rt.Runtime.NewSafepointSlot()
		return &pmapCtx{ix.NewCtxPinned(slot), slot}
	}
	m.pool.registerGauges(h.Telemetry(), "pmap."+mapName+".ctx")
	return m, nil
}

// Index exposes the underlying pindex handle (per-goroutine Ctx access,
// stats, tooling).
func (m *PMap) Index() *pindex.Index { return m.ix }

// Put durably inserts or updates key → val. val must be 0 or reference
// an object in the same persistent heap (volatile references are
// rejected — see pindex.Ctx.Put).
func (m *PMap) Put(key int64, val Ref) error {
	c := m.pool.borrow()
	defer m.pool.put(c)
	return c.Put(key, val)
}

// Get looks key up; the answer is durable before it is returned.
func (m *PMap) Get(key int64) (Ref, bool) {
	c := m.pool.borrow()
	defer m.pool.put(c)
	return c.Get(key)
}

// Delete durably removes key, reporting whether it was present.
func (m *PMap) Delete(key int64) bool {
	c := m.pool.borrow()
	defer m.pool.put(c)
	return c.Delete(key)
}

// Scan walks every entry until fn returns false (weakly consistent, as
// lock-free iteration always is). It pins the world for its duration;
// prefer short scans while collections run beside it, and never call
// other PMap or Runtime operations from fn (see the type doc: nested
// safepoint intervals can deadlock against a waiting collector pause).
func (m *PMap) Scan(fn func(key int64, val Ref) bool) {
	c := m.pool.borrow()
	defer m.pool.put(c)
	c.Scan(fn)
}

// Len reports the entry count (exact when quiescent).
func (m *PMap) Len() int { return m.ix.Len() }
