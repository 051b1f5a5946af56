package espresso

import (
	"espresso/internal/pgc"
	"espresso/internal/pindex"
	"espresso/internal/pshard"
)

// ShardedPMapOptions configures OpenSharded. Zero values select the
// pshard defaults (4 shards, 16 MB per shard, one recovery worker per
// shard).
type ShardedPMapOptions struct {
	// Shards is the shard count for a newly created set; reopening reads
	// the count from the persisted manifest and ignores this.
	Shards int
	// RecoveryWorkers bounds how many shards load and recover
	// concurrently during OpenSharded (default: one per shard).
	RecoveryWorkers int
	// ShardDataSize is each shard's data-heap size at creation.
	ShardDataSize int
	// Index sizes each shard's hash index (per shard, not per set).
	Index PMapOptions
	// Telemetry gives every shard its own observability registry plus a
	// set-level one; ShardedPMap.Metrics aggregates them with spans
	// re-tagged by shard. Independent of Options.Telemetry on the
	// runtime — a sharded set is its own safepoint/telemetry domain.
	Telemetry bool
	// Degraded opens the set fence-and-serve instead of fail-fast: a
	// shard whose image cannot be loaded or recovered is quarantined
	// (operations routed to it fail with ErrShardQuarantined; Get and
	// Delete read as absent) while healthy shards serve, salvage
	// recovery amputates — never fabricates — damaged state, and a
	// background loop retries the shard with capped exponential backoff.
	// See docs/robustness.md.
	Degraded bool
}

// ErrShardQuarantined matches (errors.Is) every operation error caused
// by routing to a quarantined shard of a degraded set.
var ErrShardQuarantined = pshard.ErrShardQuarantined

// ShardedPMap is a range-partitioned persistent map over N independent
// persistent heaps (internal/pshard): keys route by hash range to a
// shard that owns its own device, region-top table, index, GC phase
// word, and safepoint domain — no lock or fence is shared between
// shards. Collections run one shard at a time (staggered pauses), and
// reopening recovers all shards in parallel, so restart time tracks the
// slowest shard rather than the sum.
//
// All methods are safe for concurrent use; like PMap, each call borrows
// a per-goroutine operation context from a bounded pool (maxIdleCtxs)
// and is durable-linearizable. Operations must not nest (see PMap's
// type doc).
type ShardedPMap struct {
	set  *pshard.Set
	pool ctxPool[pshard.Ctx, *pshard.Ctx]
}

// OpenSharded opens (or creates) the sharded persistent map registered
// under base with the runtime's heap store (HeapDir when set, memory
// otherwise). Creation persists a manifest before any shard exists;
// reopening fans per-shard recovery out in parallel goroutines with
// errors joined. See docs/sharding.md for the manifest format and crash
// rules.
//
// The set's heaps are independent of the runtime's LoadHeap world: they
// appear in the same name store (as "<base>-manifest" and "<base>-sN")
// but are not loaded into the runtime's address map, and their
// collections never pause runtime mutators.
func (rt *Runtime) OpenSharded(base string, opts ShardedPMapOptions) (*ShardedPMap, error) {
	mgr := rt.Runtime.NameManager()
	set, err := pshard.OpenSet(pshard.DirStore{Mgr: mgr}, base, pshard.Options{
		Shards:          opts.Shards,
		RecoveryWorkers: opts.RecoveryWorkers,
		ShardDataSize:   opts.ShardDataSize,
		Index: pindex.Options{
			InitialBuckets: opts.Index.InitialBuckets,
			MaxLoadFactor:  opts.Index.MaxLoadFactor,
			MaxBuckets:     opts.Index.MaxBuckets,
		},
		Mode:      mgr.Mode(),
		Telemetry: opts.Telemetry,
		Degraded:  opts.Degraded,
	})
	if err != nil {
		return nil, err
	}
	m := &ShardedPMap{set: set}
	m.pool.newCtx = set.NewCtx
	m.pool.registerGauges(set.Telemetry(), "shardedpmap."+base+".ctx")
	return m, nil
}

// Metrics aggregates the set-level registry with every shard's —
// counters and histograms summed, shard-local spans re-tagged with
// their shard index so the merged timeline shows which shard paused.
// Empty unless ShardedPMapOptions.Telemetry was set.
func (m *ShardedPMap) Metrics() MetricsSnapshot { return m.set.Metrics() }

// ShardMetrics folds one shard's registry only.
func (m *ShardedPMap) ShardMetrics(i int) MetricsSnapshot { return m.set.ShardMetrics(i) }

// Set exposes the underlying shard set (per-shard stats, explicit Ctx
// management, tooling).
func (m *ShardedPMap) Set() *pshard.Set { return m.set }

// Put durably maps key → val on the key's owning shard.
func (m *ShardedPMap) Put(key, val int64) error {
	c := m.pool.borrow()
	defer m.pool.put(c)
	return c.Put(key, val)
}

// Get looks key up; the answer is durable before it is returned. On a
// degraded set a quarantined shard reads as absent — use Lookup when
// "not present" and "shard unavailable" must stay distinguishable.
func (m *ShardedPMap) Get(key int64) (int64, bool) {
	c := m.pool.borrow()
	defer m.pool.put(c)
	return c.Get(key)
}

// Lookup is Get with degraded-mode quarantines made visible: the error
// matches ErrShardQuarantined when key's owning shard is fenced off.
func (m *ShardedPMap) Lookup(key int64) (int64, bool, error) {
	c := m.pool.borrow()
	defer m.pool.put(c)
	return c.Lookup(key)
}

// Delete durably removes key, reporting whether it was present. On a
// degraded set a quarantined shard reports false — use Remove when the
// cases must stay distinguishable.
func (m *ShardedPMap) Delete(key int64) bool {
	c := m.pool.borrow()
	defer m.pool.put(c)
	return c.Delete(key)
}

// Remove is Delete with degraded-mode quarantines made visible: the
// error matches ErrShardQuarantined when key's owning shard is fenced
// off.
func (m *ShardedPMap) Remove(key int64) (bool, error) {
	c := m.pool.borrow()
	defer m.pool.put(c)
	return c.Remove(key)
}

// Scan walks every entry of every shard until fn returns false (weakly
// consistent per shard; shards visited in hash-range order). It pins one
// shard at a time, and fn must not call other map operations.
func (m *ShardedPMap) Scan(fn func(key, val int64) bool) {
	c := m.pool.borrow()
	defer m.pool.put(c)
	c.Scan(fn)
}

// Len sums the shard entry counts (exact when quiescent).
func (m *ShardedPMap) Len() int { return m.set.Len() }

// NumShards reports the shard count.
func (m *ShardedPMap) NumShards() int { return m.set.NumShards() }

// ShardOf reports which shard owns key (diagnostics, placement checks).
func (m *ShardedPMap) ShardOf(key int64) int { return m.set.ShardOf(key) }

// GCShard collects one shard: only operations routed to it pause.
func (m *ShardedPMap) GCShard(i int) (GCResult, error) { return m.set.GCShard(i) }

// GC collects every shard one at a time — the sharded deployment's
// staggered-pause full collection.
func (m *ShardedPMap) GC() ([]pgc.Result, error) { return m.set.GCAll() }

// Sync persists the manifest and every shard image to the heap store's
// backing tier (a no-op for memory-only runtimes).
func (m *ShardedPMap) Sync() error { return m.set.Sync() }

// Quarantined lists the currently fenced-off shards (always empty
// unless the set was opened Degraded).
func (m *ShardedPMap) Quarantined() []int { return m.set.Quarantined() }

// RetryQuarantined synchronously attempts to reopen every quarantined
// shard now, ignoring backoff timers, and returns the shards that came
// back healthy.
func (m *ShardedPMap) RetryQuarantined() []int { return m.set.RetryQuarantined() }

// Close stops the set's background quarantine-retry loop, if any.
// Idempotent; the map's data stays durable and reopenable.
func (m *ShardedPMap) Close() { m.set.Close() }
