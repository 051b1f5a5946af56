package pshard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pgc"
	"espresso/internal/pheap"
	"espresso/internal/pindex"
	"espresso/internal/safepoint"
	"espresso/internal/telemetry"
	"espresso/internal/telemetry/blackbox"
)

// IndexRootName is the per-shard pindex root name. Every shard carries
// the same root; the shard's heap device is what distinguishes them.
const IndexRootName = "pshard-kv"

// BoxKlassName is the per-shard boxed-value class (one long field) the
// Long-value API stores under the index.
const BoxKlassName = "pshard/Box"

// shardAddressWindow spaces shard heap address hints so any subset of a
// set's shards can be mapped into one address space (tooling, future
// cross-shard debugging) without a rebase.
const shardAddressWindow = layout.Ref(1) << 36

// Options sizes a shard set. Zero values select defaults. Shards and
// ShardDataSize matter only when the set is created; reopening reads
// them from the manifest.
type Options struct {
	// Shards is the shard count for a newly created set (default 4,
	// max MaxShards).
	Shards int
	// RecoveryWorkers bounds the recovery fan-out: how many shards
	// load/recover concurrently during OpenSet (default: one worker per
	// shard). The recovered images are byte-identical for every value —
	// shards never share a device.
	RecoveryWorkers int
	// ShardDataSize is each shard's data-heap size for a newly created
	// set (default 16 MB).
	ShardDataSize int
	// Index sizes each shard's pindex (per shard, not per set: a 4-shard
	// set with InitialBuckets 1024 has 4096 buckets in total).
	Index pindex.Options
	// Mode configures every device the set creates.
	Mode nvm.Mode
	// Telemetry attaches a telemetry registry to each shard's heap (plus
	// one set-level registry for whole-set events), making counters,
	// phase spans, and device attribution observable per shard and — via
	// Set.Metrics — aggregated. Off by default: the disabled state is a
	// nil registry, which costs instrumented paths nothing.
	Telemetry bool
	// FlightRecorder enables the per-shard NVM flight recorder: each
	// shard's heap journals its publication points (open, recovery, GC)
	// into the ring its image always carries, for heaptool's postmortem to
	// decode. Off by default; the disabled state is a nil recorder, which
	// appends nothing.
	FlightRecorder bool
	// Degraded switches OpenSet from fail-fast to fence-and-serve: a
	// shard whose image cannot be loaded or recovered is quarantined
	// instead of failing the whole open. Healthy shards serve
	// immediately, operations routed to a quarantined shard return
	// ErrShardQuarantined, and a background loop retries the shard with
	// capped exponential backoff until it reopens. Degraded recovery
	// runs in salvage mode (pheap.LoadSalvage, pindex salvage walks):
	// corrupt regions and unverifiable index entries are amputated and
	// reported — lost, never fabricated. The manifest itself stays
	// load-bearing in every mode: a set whose manifest is unreadable or
	// corrupt cannot route and fails OpenSet outright.
	Degraded bool
	// RetryBase and RetryCap bound the quarantine retry backoff: the
	// k-th consecutive failure schedules the next attempt after
	// min(RetryBase<<(k-1), RetryCap). Defaults 10ms and 1s.
	RetryBase time.Duration
	RetryCap  time.Duration
	// DisableRetryLoop suppresses the background reopen goroutine;
	// deterministic tests drive recovery with RetryQuarantined instead.
	DisableRetryLoop bool
}

func (o *Options) fillDefaults() error {
	if o.Shards == 0 {
		o.Shards = 4
	}
	if o.Shards < 1 || o.Shards > MaxShards {
		return fmt.Errorf("pshard: shard count %d outside [1, %d]", o.Shards, MaxShards)
	}
	if o.ShardDataSize == 0 {
		o.ShardDataSize = 16 << 20
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 10 * time.Millisecond
	}
	if o.RetryCap <= 0 {
		o.RetryCap = time.Second
	}
	return nil
}

// Shard is one independent persistent heap plus its index. Nothing in a
// Shard is shared with its siblings: the device, the klass registry, the
// region-top table, the redo log, the collector state, and the safepoint
// domain below are all per-shard.
type Shard struct {
	// world is the shard's safepoint: every Ctx operation on this shard
	// runs pinned on the ctx's own slot of it, and the shard's collector
	// pauses stop it. Because each shard has its own, a collection of
	// shard 3 never blocks — or shares so much as a cache line with —
	// an operation on shard 5.
	world safepoint.Point

	heap *pheap.Heap
	ix   *pindex.Index
	boxK *klass.Klass
	rec  RecoveryStats
}

// Heap exposes the shard's persistent heap (tooling, experiments).
func (sh *Shard) Heap() *pheap.Heap { return sh.heap }

// Telemetry exposes the shard's registry (nil when the set was opened
// without Options.Telemetry).
func (sh *Shard) Telemetry() *telemetry.Registry { return sh.heap.Telemetry() }

// Index exposes the shard's persistent index.
func (sh *Shard) Index() *pindex.Index { return sh.ix }

// Recovery reports what this shard's open-time recovery did.
func (sh *Shard) Recovery() RecoveryStats { return sh.rec }

// Set is an opened sharded map: the router plus its shards. Methods on
// Set are safe for concurrent use; per-goroutine mutations go through
// Ctx handles (NewCtx).
type Set struct {
	base    string
	store   Store
	opts    Options
	mani    *Manifest
	maniDev *nvm.Device
	// shards holds one atomically swappable slot per shard. A nil slot is
	// a quarantined shard (degraded mode only); a successful reopen
	// publishes the rebuilt Shard with a single pointer store, so readers
	// never observe a half-attached shard.
	shards []atomic.Pointer[Shard]
	// quar tracks per-shard quarantine state (cause, attempts, backoff).
	quar []quarShard
	// tel is the set-level registry (whole-set spans like shard.open and
	// the facade's ctx-pool gauges); each shard's heap carries its own.
	// Nil when Options.Telemetry is off.
	tel *telemetry.Registry

	retryStop chan struct{}
	retryKick chan struct{}
	retryDone chan struct{}
	closeOnce sync.Once
}

// shard returns shard i's current instance, or nil while quarantined.
func (s *Set) shard(i int) *Shard { return s.shards[i].Load() }

// Telemetry exposes the set-level registry (nil when telemetry is off).
func (s *Set) Telemetry() *telemetry.Registry { return s.tel }

// OpenSet opens (or creates) the sharded set registered under base in
// store.
//
// Creation follows the manifest-first crash rule: the manifest device is
// fully written, flushed, and fenced before any shard heap is
// registered.
//
// Reopening re-derives the shard list from the manifest and fans
// recovery out: per-shard heap loads, interrupted-collection recovery
// (pgc.RecoverIfNeeded), and index recovery (pindex.Open) run in up to
// RecoveryWorkers parallel goroutines, with per-shard errors joined — so
// restart time scales with the slowest shard, not the sum. A shard image
// missing from the store (a crash before set creation finished) is
// recreated empty. A second OpenSet after a crash *during* recovery is
// safe: every per-shard repair is idempotent, and the manifest's only
// mutation is the single-word generation bump at the end.
func OpenSet(store Store, base string, opts Options) (*Set, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	s := &Set{base: base, store: store, opts: opts}
	if opts.Telemetry {
		s.tel = telemetry.New()
	}
	if opts.Degraded {
		// The kick channel exists before any shard work so quarantines
		// during the open fan-out are not lost; the loop itself starts
		// only once the set is routable.
		s.retryKick = make(chan struct{}, 1)
	}
	openStart := time.Now()
	var err error
	if store.Exists(ManifestName(base)) {
		err = s.reopen()
	} else {
		err = s.create()
	}
	if err != nil {
		return s, err
	}
	// The whole open — all shards loaded, recovered, and attached,
	// joined across the recovery fan-out.
	s.tel.RecordSpan(telemetry.SpanShardOpen, -1, -1, openStart, time.Since(openStart))
	if opts.Degraded && !opts.DisableRetryLoop {
		s.retryStop = make(chan struct{})
		s.retryDone = make(chan struct{})
		go s.retryLoop()
	}
	return s, nil
}

// create builds a fresh set: manifest first (the crash rule), then the
// shard heaps — creation also fans out, shards being independent.
func (s *Set) create() error {
	mani := &Manifest{
		Shards:        s.opts.Shards,
		ShardDataSize: s.opts.ShardDataSize,
		Bounds:        EqualBounds(s.opts.Shards),
	}
	dev := nvm.New(nvm.Config{Size: ManifestDeviceSize, Mode: s.opts.Mode})
	if err := WriteManifest(dev, mani); err != nil {
		return err
	}
	if err := s.store.Register(ManifestName(s.base), dev); err != nil {
		return err
	}
	s.mani, s.maniDev = mani, dev
	s.shards = make([]atomic.Pointer[Shard], mani.Shards)
	s.quar = make([]quarShard, mani.Shards)
	if err := fanOut(mani.Shards, s.opts.RecoveryWorkers, s.createShard); err != nil {
		return err
	}
	bumpGeneration(s.maniDev, s.mani.Generation+1)
	s.mani.Generation++
	return nil
}

// createShard makes shard i from nothing and registers its device.
func (s *Set) createShard(i int) error {
	name := ShardHeapName(s.base, i)
	h, err := pheap.Create(klass.NewRegistry(), pheap.Config{
		Name:        name,
		AddressHint: layout.DefaultPJHBase + layout.Ref(i)*shardAddressWindow,
		DataSize:    s.mani.ShardDataSize,
		Mode:        s.opts.Mode,
	})
	if err != nil {
		return fmt.Errorf("pshard: creating shard %d: %w", i, err)
	}
	if s.opts.Telemetry {
		h.SetTelemetry(telemetry.New())
	}
	if s.opts.FlightRecorder {
		if _, err := h.EnableFlightRecorder(); err != nil {
			return fmt.Errorf("pshard: shard %d flight recorder: %w", i, err)
		}
	}
	if err := s.store.Register(name, h.Device()); err != nil {
		return err
	}
	sh, err := attachShard(h, s.opts.Index)
	if err != nil {
		return fmt.Errorf("pshard: shard %d: %w", i, err)
	}
	sh.rec.Created = true
	h.FlightRecorder().Append(blackbox.EvShardOpen, uint64(i), 0, 0)
	s.shards[i].Store(sh)
	return nil
}

// reopen recovers an existing set from its manifest.
func (s *Set) reopen() error {
	dev, err := s.store.Open(ManifestName(s.base))
	if err != nil {
		return err
	}
	mani, err := ReadManifest(dev)
	if err != nil {
		return err
	}
	s.mani, s.maniDev = mani, dev
	s.shards = make([]atomic.Pointer[Shard], mani.Shards)
	s.quar = make([]quarShard, mani.Shards)
	if err := fanOut(mani.Shards, s.opts.RecoveryWorkers, s.openShard); err != nil {
		return err
	}
	bumpGeneration(s.maniDev, s.mani.Generation+1)
	s.mani.Generation++
	return nil
}

// openShard is the reopen fan-out body: recoverShard, with failures
// converted into quarantines when the set opened degraded.
func (s *Set) openShard(i int) error {
	err := protect(s.recoverShard, i)
	if err != nil && s.opts.Degraded {
		s.quarantine(i, err)
		return nil
	}
	return err
}

// recoverShard loads and repairs shard i, or recreates it if its image
// never made it into the store (the partially-created-set tolerance).
func (s *Set) recoverShard(i int) error {
	name := ShardHeapName(s.base, i)
	if !s.store.Exists(name) {
		return s.createShard(i)
	}
	dev, err := s.store.Open(name)
	if err != nil {
		return err
	}
	t0 := time.Now()
	s0 := dev.Stats()
	var h *pheap.Heap
	var salv *pheap.SalvageReport
	if s.opts.Degraded {
		h, salv, err = pheap.LoadSalvage(dev, klass.NewRegistry())
	} else {
		h, err = pheap.Load(dev, klass.NewRegistry())
	}
	if err != nil {
		return fmt.Errorf("pshard: loading shard %d: %w", i, err)
	}
	h.SetName(name)
	// The registry attaches before recovery so the pgc and pindex
	// recovery spans (and their device attribution) land in this shard's
	// telemetry, not nowhere. Same for the flight recorder: recovery
	// events are the journal's reason to exist.
	if s.opts.Telemetry {
		h.SetTelemetry(telemetry.New())
	}
	if s.opts.FlightRecorder {
		if _, err := h.EnableFlightRecorder(); err != nil {
			return fmt.Errorf("pshard: shard %d flight recorder: %w", i, err)
		}
	}
	_, gcRecovered, err := pgc.RecoverIfNeeded(h)
	if err != nil {
		return fmt.Errorf("pshard: recovering shard %d: %w", i, err)
	}
	iopts := s.opts.Index
	iopts.Salvage = s.opts.Degraded
	sh, err := attachShard(h, iopts)
	if err != nil {
		return fmt.Errorf("pshard: shard %d: %w", i, err)
	}
	sh.rec = RecoveryStats{
		GCRecovered: gcRecovered,
		WallNS:      time.Since(t0).Nanoseconds(),
		Dev:         dev.Stats().Sub(s0),
		Index:       sh.ix.LastRecovery(),
		Salvage:     salv,
	}
	recovered := uint64(0)
	if gcRecovered {
		recovered = 1
	}
	h.FlightRecorder().Append(blackbox.EvShardOpen,
		uint64(i), recovered, uint64(sh.rec.Index.Entries))
	if (salv != nil && salv.Dirty()) || sh.rec.Index.Salvaged() {
		// The shard came back through amputation, not clean replay;
		// journal what it cost so a post-mortem sees the data loss.
		lost := 0
		if salv != nil {
			lost = len(salv.RegionsLost)
		}
		h.FlightRecorder().Append(blackbox.EvShardSalvaged,
			uint64(i), uint64(lost), uint64(sh.rec.Index.LostValues))
		h.Telemetry().Shared().AtomicAdd(telemetry.CtrSalvageRegionsLost, uint64(lost))
	}
	h.Telemetry().RecordSpan(telemetry.SpanShardRecover, i, -1, t0, time.Since(t0))
	s.shards[i].Store(sh)
	return nil
}

// attachShard opens the shard's index (running its recovery pass) and
// resolves the boxed-value class. The index is opened with NoPin: Ctx
// operations pin through the shard's own safepoint, at whole-operation
// granularity, so a value box allocated just before a Put can never be
// moved out from under it by the shard's collector.
func attachShard(h *pheap.Heap, iopts pindex.Options) (*Shard, error) {
	ix, err := pindex.Open(h, pindex.NoPin{}, IndexRootName, iopts)
	if err != nil {
		return nil, err
	}
	boxK, err := h.Registry().Define(klass.MustInstance(BoxKlassName, nil,
		klass.Field{Name: "v", Type: layout.FTLong}))
	if err != nil {
		return nil, err
	}
	return &Shard{heap: h, ix: ix, boxK: boxK}, nil
}

// Base reports the set's store base name.
func (s *Set) Base() string { return s.base }

// NumShards reports the shard count.
func (s *Set) NumShards() int { return len(s.shards) }

// Shard exposes shard i. Nil while shard i is quarantined (degraded
// sets only; a fail-fast open never returns with a nil shard).
func (s *Set) Shard(i int) *Shard { return s.shard(i) }

// Manifest returns a copy of the decoded manifest.
func (s *Set) Manifest() Manifest {
	m := *s.mani
	m.Bounds = append([]uint64(nil), s.mani.Bounds...)
	return m
}

// ShardOf routes a key to its owning shard.
func (s *Set) ShardOf(key int64) int { return s.mani.ShardOf(key) }

// Len sums the shard entry counts (exact when quiescent). Quarantined
// shards contribute nothing — their entries are unreachable until the
// shard reopens.
func (s *Set) Len() int {
	n := 0
	for i := range s.shards {
		if sh := s.shard(i); sh != nil {
			n += sh.ix.Len()
		}
	}
	return n
}

// ShardMetrics snapshots shard i's telemetry registry. The snapshot is
// empty (all maps present, no data) when telemetry is off or the shard
// is quarantined.
func (s *Set) ShardMetrics(i int) telemetry.Snapshot {
	sh := s.shard(i)
	if sh == nil {
		return (*telemetry.Registry)(nil).Snapshot()
	}
	return sh.Telemetry().Snapshot()
}

// Metrics folds the set-level registry and every shard's registry into
// one aggregated snapshot: counters, gauges, and histogram buckets sum;
// spans concatenate in start order. Spans a shard's collectors recorded
// without a shard tag are stamped with their shard index here, so the
// merged timeline still says which shard paused.
func (s *Set) Metrics() telemetry.Snapshot {
	agg := s.tel.Snapshot()
	for i := range s.shards {
		sh := s.shard(i)
		if sh == nil {
			continue
		}
		snap := sh.Telemetry().Snapshot()
		for j := range snap.Spans {
			if snap.Spans[j].Shard < 0 {
				snap.Spans[j].Shard = i
			}
		}
		agg.Add(snap)
	}
	return agg
}

// GCShard runs a crash-consistent collection of one shard. Only that
// shard's operations pause — its world is stopped for the compaction,
// while every other shard keeps serving. Collecting shards one at a time
// is how a sharded deployment staggers its pauses.
func (s *Set) GCShard(i int) (pgc.Result, error) {
	sh := s.shard(i)
	if sh == nil {
		return pgc.Result{}, &QuarantinedError{Shard: i, Cause: s.QuarantineCause(i)}
	}
	sh.world.Stop()
	defer sh.world.Start()
	// Journaled before the cycle so a crash mid-collection still shows
	// which shard was collecting; the append's flush precedes the
	// collection's first fence.
	sh.heap.FlightRecorder().Append(blackbox.EvShardGC, uint64(i), 0, 0)
	return pgc.Collect(sh.heap, pgc.NoRoots{})
}

// GCAll collects every shard, one at a time (staggered pauses: at any
// moment at most one shard is stopped). Quarantined shards are skipped
// — their zero-value Result slot records that nothing ran.
func (s *Set) GCAll() ([]pgc.Result, error) {
	res := make([]pgc.Result, len(s.shards))
	for i := range s.shards {
		if s.shard(i) == nil {
			continue
		}
		r, err := s.GCShard(i)
		if err != nil {
			return res, fmt.Errorf("pshard: collecting shard %d: %w", i, err)
		}
		res[i] = r
	}
	return res, nil
}

// Sync persists the manifest and every shard image to the store's
// backing tier (meaningful for DirStore).
func (s *Set) Sync() error {
	if err := s.store.Sync(ManifestName(s.base)); err != nil {
		return err
	}
	for i := range s.shards {
		name := ShardHeapName(s.base, i)
		if s.shard(i) == nil && !s.store.Exists(name) {
			continue // quarantined before its image ever registered
		}
		if err := s.store.Sync(name); err != nil {
			return err
		}
	}
	return nil
}
