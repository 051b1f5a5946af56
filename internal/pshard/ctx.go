package pshard

import (
	"espresso/internal/layout"
	"espresso/internal/pindex"
	"espresso/internal/safepoint"
)

// Ctx is a per-goroutine operation handle over the whole set: one lazily
// created pindex context per shard, each around its own pheap.Allocator
// (PLAB, device view, barrier buffer) on that shard's heap. Not safe for concurrent use; give
// each goroutine its own and Release it when done.
//
// Every operation is one safepoint interval on the owning shard (a pin
// on the ctx's own slot of that shard's safepoint — a line no other ctx
// writes), so a shard collection waits for in-flight operations on
// *its* shard only and never touches a sibling's. The interval covers
// the whole operation — for Put, the value box and node allocation and
// the index publication — so the shard's compactor can never move the
// box between those steps. Operations must not nest (no Ctx or Set
// calls from inside a Scan callback): the second pin can deadlock behind
// a waiting collector pause.
//
// On a degraded set, operations routed to a quarantined shard fail
// with an error matching ErrShardQuarantined (Put, Lookup,
// Remove) or report absence (Get, Delete — their signatures
// cannot carry the distinction; use the erroring variants when it
// matters). A shard that reopens behind a ctx is picked up
// transparently: the ctx notices the new instance and re-attaches.
type Ctx struct {
	set      *Set
	subs     []*pindex.Ctx
	subShard []*Shard          // the Shard instance each sub was created against
	slots    []*safepoint.Slot // this ctx's pin on subShard[i]'s safepoint, created with subs[i]
}

// NewCtx attaches a per-goroutine operation handle.
func (s *Set) NewCtx() *Ctx {
	return &Ctx{
		set:      s,
		subs:     make([]*pindex.Ctx, len(s.shards)),
		subShard: make([]*Shard, len(s.shards)),
		slots:    make([]*safepoint.Slot, len(s.shards)),
	}
}

// acquire pins shard i (on the ctx's slot of its safepoint) and returns
// it with the ctx's handle for it, re-attaching if the shard was
// reopened since the handle was created. Fails without pinning anything
// when the shard is quarantined; on success the caller must
// c.slots[i].Unpin(t).
func (c *Ctx) acquire(i int) (sh *Shard, sub *pindex.Ctx, t safepoint.Token, err error) {
	sh = c.set.shard(i)
	if sh == nil {
		return nil, nil, 0, &QuarantinedError{Shard: i, Cause: c.set.QuarantineCause(i)}
	}
	// First touch, or the shard was rebuilt (quarantine + reopen) since
	// this ctx last saw it. The old sub's heap is gone — drop the handle
	// without Release (releasing would write PLAB metadata through the
	// dead instance onto the live device), and the old slot with it: it
	// belongs to the dead instance's safepoint, which nobody will stop
	// again.
	fresh := c.subShard[i] != sh
	if fresh {
		c.slots[i] = sh.world.NewSlot()
	}
	t = c.slots[i].Pin()
	if fresh {
		c.subs[i] = sh.ix.NewCtx()
		c.subShard[i] = sh
	}
	return sh, c.subs[i], t, nil
}

// Put durably maps key → val: the value is boxed on the owning shard's
// mutator-local PLAB inside the index operation (pindex.PutNew: for a
// fresh key box and node are one allocation run, one persist) and
// published through that shard's index — durable-linearizable like
// pindex.Put, per shard.
func (c *Ctx) Put(key, val int64) error {
	i := c.set.mani.ShardOf(key)
	sh, sub, t, err := c.acquire(i)
	if err != nil {
		return err
	}
	defer c.slots[i].Unpin(t)
	a := sub.Allocator()
	return sub.PutNew(key, sh.boxK, func(box layout.Ref) {
		a.SetWord(box, layout.FieldOff(0), uint64(val))
	})
}

// Get looks key up on its owning shard; the answer is durable before it
// is returned. A quarantined shard reads as absent — use Lookup to tell
// "not present" from "shard unavailable".
func (c *Ctx) Get(key int64) (int64, bool) {
	v, ok, _ := c.Lookup(key)
	return v, ok
}

// Lookup is Get with the quarantine made visible: the error matches
// ErrShardQuarantined when the owning shard is fenced off.
func (c *Ctx) Lookup(key int64) (int64, bool, error) {
	i := c.set.mani.ShardOf(key)
	_, sub, t, err := c.acquire(i)
	if err != nil {
		return 0, false, err
	}
	defer c.slots[i].Unpin(t)
	box, ok := sub.Get(key)
	if !ok || box == layout.NullRef {
		return 0, false, nil
	}
	return int64(sub.Allocator().GetWord(box, layout.FieldOff(0))), true, nil
}

// Delete durably removes key from its owning shard, reporting whether it
// was present. A quarantined shard reports false — use Remove to tell
// the cases apart.
func (c *Ctx) Delete(key int64) bool {
	ok, _ := c.Remove(key)
	return ok
}

// Remove is Delete with the quarantine made visible: the error matches
// ErrShardQuarantined when the owning shard is fenced off.
func (c *Ctx) Remove(key int64) (bool, error) {
	i := c.set.mani.ShardOf(key)
	_, sub, t, err := c.acquire(i)
	if err != nil {
		return false, err
	}
	defer c.slots[i].Unpin(t)
	return sub.Delete(key), nil
}

// Scan walks every entry of every shard until fn returns false (weakly
// consistent per shard, shards in range order). It pins one shard at a
// time, so long scans block at most one shard's collector. Quarantined
// shards are skipped — their entries are unreachable, not invented.
func (c *Ctx) Scan(fn func(key, val int64) bool) {
	for i := range c.set.shards {
		_, sub, t, err := c.acquire(i)
		if err != nil {
			continue
		}
		more := true
		sub.Scan(func(key int64, box layout.Ref) bool {
			v := int64(0)
			if box != layout.NullRef {
				v = int64(sub.Allocator().GetWord(box, layout.FieldOff(0)))
			}
			more = fn(key, v)
			return more
		})
		c.slots[i].Unpin(t)
		if !more {
			return
		}
	}
}

// ShardFlushedLines reports the cache lines this ctx flushed against
// shard i — its index publications and help flushes plus everything its
// allocator persisted (value boxes, nodes, region tops). The shardedkv
// experiment's modeled device critical path is the slowest (ctx, shard)
// chain: chains flush disjoint lines on disjoint devices, so their media
// time overlaps.
func (c *Ctx) ShardFlushedLines(i int) int {
	sub := c.subs[i]
	if sub == nil {
		return 0
	}
	return sub.Stats().FlushedLines + sub.AllocStats().FlushedLines
}

// Release retires every shard handle the ctx created: PLAB headroom
// returns to each shard's dispenser and pending barrier records hand off
// to the shard's shared buffer. A handle whose shard instance was
// replaced (quarantine + reopen) is dropped instead — its PLAB and
// buffers belong to the dead instance.
func (c *Ctx) Release() {
	for i, sub := range c.subs {
		if sub == nil {
			continue
		}
		sh := c.set.shard(i)
		if sh == nil || sh != c.subShard[i] {
			c.subs[i], c.subShard[i], c.slots[i] = nil, nil, nil
			continue
		}
		t := c.slots[i].Pin()
		sub.Release()
		c.slots[i].Unpin(t)
		c.slots[i].Retire()
		c.subs[i], c.subShard[i], c.slots[i] = nil, nil, nil
	}
}
