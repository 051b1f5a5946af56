// Package telemetry is the runtime-wide observability layer: lock-free
// per-mutator counter cells, fixed-bucket latency histograms, a bounded
// GC/recovery span recorder, and snapshot/export surfaces (Prometheus
// text, JSON, an opt-in HTTP listener).
//
// The design constraint comes from the durable-set literature (Zuriel et
// al.): instrumentation on a lock-free persistent operation must itself
// be fence-free and allocation-free, or it invalidates what it measures.
// So the hot-path primitive here is the Cell — a cache-line-padded block
// of counters owned by exactly one mutator, registered with the Registry
// the same way a mutator's allocator registers with its heap.
// The owner bumps counters with a load and a plain store (asym.Store64:
// one writer per word needs neither a locked add nor sync/atomic's Store,
// which is an XCHG on amd64) and a snapshot folds every registered cell
// with atomic loads. A snapshot taken after the owner synchronised with
// the reader (a Release, a WaitGroup, a stop) is exact; one taken while
// the owner runs reads recent counts. Each word has
// exactly one writer, on a line no other thread writes, so the line never
// leaves the owner's cache and a second mutator on a second core costs
// the first nothing. Nothing on the mutator fast path takes a lock, issues a
// device fence, allocates, or touches a cache line another thread
// writes.
//
// Everything else — histograms, spans, gauges, the shared cell for
// pathways without an owner — is cold-path machinery and uses ordinary
// atomics or a mutex.
//
// All methods are nil-receiver-safe: a disabled runtime passes nil
// registries and nil cells around and every record call degenerates to
// one predictable branch.
package telemetry

import (
	"sync/atomic"

	"espresso/internal/asym"
	"espresso/internal/nvm"
)

// Counter identifies one counter slot in a Cell. The catalog is fixed at
// compile time so cells are flat arrays, not maps.
type Counter int

// Operation-mix counters.
const (
	// Allocation path (subsystem alloc).
	CtrAllocObjects        Counter = iota // objects allocated (PLAB + hole + humongous)
	CtrAllocBytes                         // bytes allocated
	CtrPLABRefills                        // regions fetched from the dispenser
	CtrPLABRetires                        // PLABs sealed because the next object overflowed them
	CtrHoleAllocs                         // allocations served from recycled holes
	CtrHumongous                          // humongous (multi-region) allocations
	CtrHeadersDeferred                    // bump allocations that returned with their header unflushed
	CtrHeadersFlushCovered                // deferred headers a covering flush made durable at no line of their own

	// Reference-store barrier (subsystem refstore).
	CtrRefStores      // reference stores into persistent objects
	CtrSafepointWaits // collector pauses begun (safepoint write-lock acquisitions)

	// Index operation mix (subsystem index).
	CtrIndexGets        // Get operations
	CtrIndexPuts        // Put operations
	CtrIndexDeletes     // Delete operations
	CtrIndexScans       // Scan operations
	CtrIndexHelpFlushes // dirty links persisted on behalf of other threads
	CtrIndexGrows       // bucket-table doublings
	CtrIndexHintHits    // Gets and Puts that reached their node through the volatile hint table
	CtrIndexHintMisses  // Gets and Puts that walked the bucket chain instead

	// GC event counters (subsystem gc).
	CtrGCCycles     // persistent collections completed
	CtrGCRecoveries // crash recoveries replayed

	// Robustness counters (degraded-mode sharding and salvage recovery).
	CtrShardQuarantined   // shards fenced off by a degraded-mode open or retry
	CtrSalvageRegionsLost // heap regions quarantined by salvage recovery

	ctrDevBase // start of the per-subsystem device counters
)

// The per-subsystem device counters follow the operation counters:
// four (reads, writes, flushed lines, fences) for each nvm.Subsystem.
const devMetrics = 4

// NumCounters is the total counter-slot count of a Cell.
const NumCounters = int(ctrDevBase) + devMetrics*int(nvm.NumSubsystems)

// DevCounter returns the counter slot for one device metric of one
// subsystem. metric: 0 reads, 1 writes, 2 flushed lines, 3 fences.
func DevCounter(sub nvm.Subsystem, metric int) Counter {
	return ctrDevBase + Counter(devMetrics*int(sub)+metric)
}

// opNames indexes the operation-mix counter names; device counters are
// named dev.<subsystem>.<metric>.
var opNames = [...]string{
	"alloc.objects", "alloc.bytes", "alloc.plab_refills", "alloc.plab_retires",
	"alloc.hole_allocs", "alloc.humongous", "alloc.headers_deferred", "alloc.headers_flush_covered",
	"refstore.stores", "safepoint.pauses",
	"index.gets", "index.puts", "index.deletes", "index.scans",
	"index.help_flushes", "index.grows", "index.hint_hits", "index.hint_misses",
	"gc.cycles", "gc.recoveries",
	"shard.quarantined", "salvage.regions_lost",
}

var devMetricNames = [devMetrics]string{"reads", "writes", "flushed_lines", "fences"}

// Name returns the stable dotted metric name of a counter.
func (c Counter) Name() string {
	if int(c) < len(opNames) {
		return opNames[c]
	}
	d := int(c - ctrDevBase)
	return "dev." + nvm.Subsystem(d/devMetrics).String() + "." + devMetricNames[d%devMetrics]
}

// Cell is one owner's counter block. Exactly one goroutine — the owner —
// may call the plain (non-Atomic) mutators; any goroutine may read via a
// Registry snapshot. The leading and trailing pads keep the counter
// words off any line shared with neighboring allocations, so the owner's
// stores never contend with another thread's traffic.
type Cell struct {
	_ [8]uint64 // cache-line pad
	v [NumCounters]atomic.Uint64
	_ [8]uint64 // cache-line pad
}

// Inc bumps ctr by one. Owner-only: the load+store pair is not an
// atomic read-modify-write, so racing owners would lose updates — the
// single writer is what keeps the line in the owner's cache. Concurrent
// snapshot reads are safe.
func (c *Cell) Inc(ctr Counter) {
	if c == nil {
		return
	}
	w := &c.v[ctr]
	asym.Store64(w, w.Load()+1)
}

// Add bumps ctr by n. Owner-only, like Inc.
func (c *Cell) Add(ctr Counter, n uint64) {
	if c == nil || n == 0 {
		return
	}
	w := &c.v[ctr]
	asym.Store64(w, w.Load()+n)
}

// Dev attributes device traffic to sub. Owner-only, like Inc.
func (c *Cell) Dev(sub nvm.Subsystem, reads, writes, lines, fences uint64) {
	if c == nil {
		return
	}
	base := DevCounter(sub, 0)
	c.Add(base, reads)
	c.Add(base+1, writes)
	c.Add(base+2, lines)
	c.Add(base+3, fences)
}

// AtomicInc bumps ctr with an atomic add — the variant for *shared*
// cells (the Registry's fallback cell for pathways without a per-mutator
// owner, and cold-path publication counters). Never use it on a hot
// mutator path: the RMW is a locked instruction and the shared cell is a
// shared cache line.
func (c *Cell) AtomicInc(ctr Counter) {
	if c == nil {
		return
	}
	c.v[ctr].Add(1)
}

// AtomicAdd bumps ctr by n atomically; see AtomicInc.
func (c *Cell) AtomicAdd(ctr Counter, n uint64) {
	if c == nil || n == 0 {
		return
	}
	c.v[ctr].Add(n)
}

// AtomicDev attributes device traffic to sub with atomic adds; the
// shared-cell / cold-path variant of Dev.
func (c *Cell) AtomicDev(sub nvm.Subsystem, reads, writes, lines, fences uint64) {
	if c == nil {
		return
	}
	base := DevCounter(sub, 0)
	c.AtomicAdd(base, reads)
	c.AtomicAdd(base+1, writes)
	c.AtomicAdd(base+2, lines)
	c.AtomicAdd(base+3, fences)
}

// AtomicDevStats is AtomicDev taking an nvm.Stats delta — the fold entry
// point for exclusive measured windows (GC phases, redo commits,
// recovery replays).
func (c *Cell) AtomicDevStats(sub nvm.Subsystem, s nvm.Stats) {
	c.AtomicDev(sub, s.Reads, s.Writes, s.FlushedLines, s.Fences)
}

// load reads one counter with an atomic load (snapshot path).
func (c *Cell) load(ctr Counter) uint64 { return c.v[ctr].Load() }
