// Package pindex implements a durable, lock-free, resizable persistent
// hash map over PJH — the concurrent crash-consistent index a server
// built on the persistent heap needs, combining the split-ordered hash
// map of Shalev & Shavit with the link-and-persist publication protocol
// of Zuriel et al.'s durable lock-free sets.
//
// # Structure
//
// All entries live in one persistent linked list sorted by split-order
// key (the bit-reversed hash); the bucket table holds shortcuts —
// sentinel nodes spliced into the list — so a lookup walks only its own
// bucket's segment. Doubling the bucket table never rehashes a node:
// new buckets lazily splice their sentinel between existing nodes, which
// is what makes the map resizable without locks.
//
// # Durability protocol (link-and-persist)
//
// Every mutation publishes with a single CAS on a reference slot. The
// slot's low tag bits (free under the heap's 16-byte object alignment)
// carry the link state:
//
//	bit 0 (deleted): Harris mark — the node owning this slot is
//	  logically deleted; set by the same CAS that commits the delete.
//	bit 1 (dirty):   the slot's current value has not been flushed yet.
//	bit 2 (lazy):    layout.RefLazy — a physical unlink installed this
//	  value and nobody flushed it; the collector will.
//
// A publication — a delete mark, an insert link, a value, a table — CASes
// the new value in with the dirty bit set; the publishing thread then
// flushes the slot's cache line, clears the bit with a second CAS, and
// fences before returning. Any thread that *observes* a dirty slot
// helps: it flushes the line and clears the bit before acting on the
// value. Because no operation returns — and no reader acts on a link —
// before that link is persisted, the map is durable-linearizable with
// zero fences on the read path in steady state and one flush+fence per
// update, instead of a fence per store.
//
// A physical unlink (Delete's own after a walk, and the one find does
// when it meets a marked node) is not a publication: it only tidies the
// list. It CASes the successor in with the lazy bit and flushes nothing.
// That is safe under Px86 because an unlink only ever skips nodes whose
// delete marks it read clean, i.e. durable: whatever value of the slot
// persisted — the skipped node, or an earlier lazy value that skipped
// less — leads to the new successor through nodes recovery prunes, so
// the reloaded list holds the same keys either way. Readers strip the
// bit and never help it. The skipped nodes stay in the heap until a
// collection frees them, and a collection first persists every lazy slot
// it traced (GC integration, below). A publication that replaces a lazy
// value (an insert in front of the successor, a delete mark on the
// slot's owner) installs its value without the bit and persists it, link
// included.
//
// Node bodies (sort key, key, value, initial next) persist inside their
// allocation: insert builds the node through pheap's AllocInit, which
// runs the initializing stores on the still-unacknowledged object and
// flushes header and body together, fenced, before it returns — so there
// is no separate node flush, and a persisted link can never target a
// half-written node. PutNew extends that to the value: for a fresh key
// the value object and the node are one allocation run (AllocRun: one
// flush, one fence for both), for an existing key the value object goes
// in alone; either way it is whole in the image before the CAS that
// makes a durable word name it. Crash recovery (Open's pass, recover.go)
// finds every durably linked node intact, prunes nodes whose delete mark
// persisted (with a lazy link, like any unlink), clears leftover dirty
// bits in memory, and discards half-linked nodes implicitly — an
// unpersisted link simply is not in the reloaded image, and the orphan
// node body is unreachable garbage for the next collection.
//
// # GC integration
//
// The index header is a named heap root, so the collector traces the
// whole structure; the marker and the compactor understand the tag bits
// (layout.RefTagMask) and preserve them across moves. The marker notes
// every slot it reads with the lazy bit, and the collector, on one
// goroutine, clears the bit in each and persists them all — one batch
// flush in ascending device order, one fence — before it persists the
// mark bitmap and stamps the heap mid-collection, so before anything
// moves or is freed. A collection therefore never frees a node the
// persisted list still passes through, and a crash inside it finds the
// links already durable. Links are installed by CAS and never hold
// volatile references, so they owe pheap's reference-store barrier
// nothing. Each operation runs as one safepoint interval through the
// Pinner, so a collection never runs inside an operation and compaction
// never moves a node out from under its local references.
//
// # Volatile shortcut
//
// The list is the only durable search structure, and with the bucket
// table capped a lookup in a large map walks a chain of device loads. On
// top of it the Index keeps a volatile hint table in DRAM (hint.go),
// following the split Zuriel et al. use for their fastest durable set:
// search structure volatile, members durable. Nothing about it is
// persisted, flushed or recovered.
//
// Layout. The table is sets of 8 slots, each set one 64-byte cache line.
// A slot names a data node: the key's hash>>32 (the tag) above the
// node's heap offset>>4, so a slot of another key is told apart by the
// tag in DRAM, before any device load. A key's set is its tag's low
// bits, i.e. hash bits 32 and up: pshard routes by the hash's top bits
// and the bucket index takes its low ones, so neither the shard a key
// lives in nor its chain narrows the sets it can use. A slot is filled
// with the one already holding the key's tag (its older node, or another
// key with the same tag, which loses its hint), else an empty one, else
// the recording ctx's next victim in turn.
//
// Sizing and growth. The table has the smallest power of two ≥ 2·Len
// slots (at least 64): 8 bytes of DRAM per slot, at most 32 per entry.
// At that load an 8-way set overflows for under 1 % of the keys that
// fall into it; at one slot per entry it would for 14 %. The first
// operation to record a hint makes the table, empty, inside its pin, as
// it does after a collection or rebase moved the layout epoch. When Len
// outgrows it, the operation that notices re-files it after dropping its
// pin: one sequential pass copies each old set's entries into the sets
// that extend its index by the tag's next bits (each new set takes
// entries of one old set only, so nothing is dropped), and one CAS
// publishes the copy. The pass reads no device word, so it needs no pin;
// the copy carries the old table's epoch and reads as empty if a
// collection moved it meanwhile. Hints the old table takes during the
// copy are lost, which costs only a later walk.
//
// Protocol. Get, Put and Delete probe the table first, inside their pin.
// A slot whose tag matches is checked against the node itself: its key
// must be the key, and its next word — read through loadClean, so helped
// durable first — must carry no delete mark. That read is the
// linearization point, the same one the chain walk ends on: an unmarked
// data node is the one live resident for its key. From there the
// operation continues exactly as after find: Get reads the value clean;
// Put publishes the value, then re-checks the mark and falls back to the
// walk if a delete won; Delete publishes the mark on the node with the
// next word it read as the CAS expectation, falling back to the walk if
// that CAS loses, and clears the slot. A hinted Delete does not unlink:
// it does not know the node's predecessor, so the node stays linked,
// marked, until the next find that crosses it unlinks it (lazily, as any
// unlink) and the collection after that frees it, as happens also to a
// walked Delete whose own unlink CAS loses. Every other outcome of a
// probe — no table, no slot with the tag, another key behind it, a mark
// (the slot is cleared) — is a miss: the operation walks the chain
// unchanged, and Get and Put then record the node they ended on. Scan,
// grow and recovery neither read nor write the table.
//
// Why acting on a hinted node is durable-linearizable:
//
//   - A hint is recorded only for a node whose inbound link is known
//     durable: find returned it (every link find crosses was read clean,
//     or lazy over durably marked nodes) or insert's publish of it
//     returned. From then on the node stays durably reachable until its
//     own delete mark persists. Every CAS on the path to it either
//     splices a new node in front (the new node's next, pointing onward,
//     is persisted before the CAS, and the old link stays in the image
//     until the new one is flushed) or lazily unlinks a marked neighbour
//     (the persisted link still leads to the neighbour, whose durable
//     next leads on here, and recovery prunes it); the only CAS that
//     disconnects the node itself is its own unlink, which find and
//     Delete issue only after reading its mark clean, i.e. durable. So
//     "key matches, mark clear" read from the node implies what the walk
//     would have established: the node is in the durable list, as
//     recovery will rebuild it.
//   - A hinted Delete's mark CAS expects the clean, unmarked word the
//     probe read, so it succeeds only if the node was still the live
//     resident at that instant; the delete linearizes at the CAS and is
//     durable at the flush inside publish, before Delete returns, exactly
//     as after a walk. Leaving the node linked changes no key the image
//     holds: a linked node whose mark persisted is pruned by recovery, and
//     a collection persists the lazy unlink that finally skips it before
//     it frees the node.
//   - Within one layout epoch an offset can never name reused memory.
//     Nodes are freed only by a collection and moved only by a collection
//     or a rebase, both of which bump pheap.LayoutEpoch before the world
//     restarts; the table is tagged with the epoch it was filled under
//     and a table of another epoch reads as empty (the same rule the
//     cached header ref follows). A pin holds the epoch still, so a probe
//     that saw the current epoch dereferences only nodes of this epoch —
//     live, or unlinked and still carrying their mark. A re-filed copy
//     keeps its source's epoch, so it never vouches for a later one.
//   - A crash forgets the table. Open starts without one, and since no
//     decision was ever taken on a hint alone, nothing the image holds
//     depends on what the table said.
package pindex

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
	"espresso/internal/safepoint"
	"espresso/internal/telemetry"
)

// Link-state tag bits, stored in the low bits of reference slots (see
// layout.RefTagMask; bit 3 stays free).
const (
	tagDel   = 1                      // Harris deletion mark: the owning node is logically deleted
	tagDirty = 2                      // link-and-persist mark: slot value not yet known durable
	tagLazy  = uint64(layout.RefLazy) // unlink left unflushed: the collector persists it
)

// Klass names of the index's persistent objects.
const (
	NodeKlassName   = "pindex/Node"
	HeaderKlassName = "pindex/Index"
)

// Options sizes an index. Zero values select defaults.
type Options struct {
	// InitialBuckets is the starting bucket count (power of two,
	// default 8).
	InitialBuckets int
	// MaxLoadFactor is the entries-per-bucket threshold past which the
	// bucket table doubles (default 4).
	MaxLoadFactor float64
	// MaxBuckets caps the table (power of two, default 1<<16). The cap
	// bounds the longest safepoint interval a table doubling can pin
	// (the copy of the new table must complete inside one pin); larger
	// key populations should shard across indexes — internal/pshard
	// routes one pindex per independent heap by hash range — rather
	// than raise it far.
	MaxBuckets int
	// Salvage switches Open's recovery pass from detect-and-fail to
	// detect-and-amputate: a walk that hits corruption (an out-of-heap
	// link, a link or value into a heap region quarantined by
	// pheap.LoadSalvage, a split-order violation, a media error)
	// truncates the list at the last good node and resets bucket
	// shortcuts that no longer lead into the surviving chain. Entries
	// are lost, never fabricated: nothing the walk cannot positively
	// verify stays reachable.
	Salvage bool
}

func (o *Options) fillDefaults() error {
	if o.InitialBuckets == 0 {
		o.InitialBuckets = 8
	}
	if o.MaxLoadFactor == 0 {
		o.MaxLoadFactor = 4
	}
	if o.MaxBuckets == 0 {
		o.MaxBuckets = 1 << 16
	}
	if o.InitialBuckets&(o.InitialBuckets-1) != 0 || o.MaxBuckets&(o.MaxBuckets-1) != 0 {
		return fmt.Errorf("pindex: bucket counts must be powers of two (got %d, max %d)",
			o.InitialBuckets, o.MaxBuckets)
	}
	if o.MaxBuckets < o.InitialBuckets {
		o.MaxBuckets = o.InitialBuckets
	}
	return nil
}

// Pinner makes each index operation a safepoint interval: Pin is held
// for the operation's duration, so a collector's pause (which
// moves objects and patches only the slots it can see, never Go locals)
// waits for the operation to finish. core.Runtime's SafepointPinner
// adapts the runtime's safepoint lock; callers whose heap never collects
// concurrently with index traffic pass NoPin. The index's Pinner is the
// default for its contexts; one created with NewCtxPinned pins through
// a Pinner of its own instead (PMap gives each pooled ctx a private slot
// of the runtime's safepoint). Unpin takes back the Token its Pin
// returned. Operations must not nest
// on one goroutine (e.g. calling Get from inside a Scan callback): the
// second Pin can deadlock behind a collector pause waiting on the
// first.
type Pinner interface {
	Pin() safepoint.Token
	Unpin(safepoint.Token)
}

// NoPin is the Pinner for single-collector-free use (tests, tools, and
// workloads that stop index traffic around collections themselves).
type NoPin struct{}

// Pin is a no-op.
func (NoPin) Pin() safepoint.Token { return 0 }

// Unpin is a no-op.
func (NoPin) Unpin(safepoint.Token) {}

// Index is one opened persistent hash map. The persistent state lives
// entirely in the heap (reachable from the named root); the Index value
// holds only volatile bookkeeping and is safe for concurrent use —
// operations go through per-goroutine Ctx handles.
type Index struct {
	h    *pheap.Heap
	pin  Pinner
	name string
	opts Options

	size    atomic.Int64 // approximate entry count (exact when quiescent)
	growing atomic.Bool  // single-flight resize
	rec     RecoverStats // what Open's recovery pass repaired

	// root caches the header ref together with the heap layout epoch it
	// was fetched under, so the per-operation root re-fetch is one atomic
	// load instead of a locked name-table probe. Compaction and rebase
	// bump the epoch, which invalidates the pair.
	root atomic.Pointer[rootCache]

	// hints is the volatile shortcut over the durable list (hint.go):
	// key → data node, epoch-tagged like root, never persisted; refiling
	// makes its growth single-flight.
	hints    atomic.Pointer[hintTable]
	refiling atomic.Bool

	nodeK, hdrK, arrK *klass.Klass
	nodeSize          int
	fSort, fKey       int // immutable node fields
	fVal, fNext       int // CAS-published node fields
	fBuckets          int // header field
}

// CtxStats counts the work one Ctx performed on its own paths (the
// allocator's counters are separate; see Ctx.AllocStats). The kv scaling
// experiment uses FlushedLines for per-mutator critical paths.
type CtxStats struct {
	Puts, Gets, Deletes int
	FlushedLines        int // cache lines this ctx flushed
	Fences              int // fences this ctx issued
	HelpFlushes         int // dirty links persisted on behalf of other threads
	Retries             int // CAS publications that lost a race
	HintHits            int // Gets, Puts and Deletes that reached their node through the hint table
	HintMisses          int // Gets, Puts and Deletes that walked the bucket chain
}

// Ctx is a per-goroutine operation context around one pheap.Allocator,
// mirroring core.Mutator: its PLAB holds the node bodies, and every
// device access of an operation —
// traversal loads, CAS publications, flushes, node initialisation — goes
// through its own view of the device (pheap.Access), so contexts on
// different cores share no counter line. Not safe for concurrent use;
// give each goroutine its own and Release it when done.
type Ctx struct {
	ix *Index
	// pin makes each of this ctx's operations a safepoint interval: the
	// index's Pinner, or the owner's private one (NewCtxPinned).
	pin   Pinner
	alloc *pheap.Allocator
	stats CtxStats
	// cell is the allocator's telemetry counter cell (nil when the heap
	// has no registry), shared across this ctx's paths like core.Mutator
	// shares its allocator's cell. Owner-only ops — the ctx is
	// single-goroutine by contract.
	cell *telemetry.Cell
	// refile asks exit to grow the hint table once the pin is dropped;
	// victim picks the slot a hint takes in a full set, in turn.
	refile bool
	victim uint32
}

// Open attaches to (or creates) the persistent index registered under
// name on h. Attaching runs the recovery pass — pruning committed
// deletes, clearing leftover dirty marks, and recounting entries — so
// an image that crashed mid-operation is consistent before the first
// lookup. The heap must not be mid-collection (run pgc recovery first;
// core.LoadHeap does).
func Open(h *pheap.Heap, pin Pinner, name string, opts Options) (*Index, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	if pin == nil {
		pin = NoPin{}
	}
	if h.GCActive() {
		return nil, fmt.Errorf("pindex: heap is mid-collection; recover it first")
	}
	ix := &Index{h: h, pin: pin, name: name, opts: opts}
	if err := ix.resolveKlasses(); err != nil {
		return nil, err
	}
	defer pin.Unpin(pin.Pin())
	if _, ok := h.GetRoot(name); ok {
		st, err := recoverLocked(h, name, ix)
		if err != nil {
			return nil, err
		}
		ix.size.Store(int64(st.Entries))
		ix.rec = st
		return ix, nil
	}
	if err := ix.create(); err != nil {
		return nil, err
	}
	return ix, nil
}

// LastRecovery reports what the recovery pass Open ran repaired (the
// zero value for a freshly created index). pshard aggregates these
// per-shard during its parallel recovery fan-out.
func (ix *Index) LastRecovery() RecoverStats { return ix.rec }

func (ix *Index) resolveKlasses() error {
	reg := ix.h.Registry()
	var err error
	if ix.nodeK, err = reg.Define(klass.MustInstance(NodeKlassName, nil,
		klass.Field{Name: "sort", Type: layout.FTLong},
		klass.Field{Name: "key", Type: layout.FTLong},
		klass.Field{Name: "value", Type: layout.FTRef},
		klass.Field{Name: "next", Type: layout.FTRef, RefKlass: NodeKlassName},
	)); err != nil {
		return err
	}
	if ix.hdrK, err = reg.Define(klass.MustInstance(HeaderKlassName, nil,
		klass.Field{Name: "buckets", Type: layout.FTRef},
	)); err != nil {
		return err
	}
	ix.arrK = reg.ObjArray(NodeKlassName)
	ix.nodeSize = ix.nodeK.SizeOf(0)
	ix.fSort, ix.fKey, ix.fVal, ix.fNext =
		layout.FieldOff(0), layout.FieldOff(1), layout.FieldOff(2), layout.FieldOff(3)
	ix.fBuckets = layout.FieldOff(0)
	return nil
}

// create builds the empty structure: bucket-0 sentinel, bucket table,
// header — each fully persisted before the next references it — and
// commits the whole thing by registering the named root (the name-table
// entry is the atomic publication point; a crash before it leaves only
// unreachable garbage, and the next Open re-creates from scratch).
func (ix *Index) create() error {
	h := ix.h
	sent, err := h.Alloc(ix.nodeK, 0)
	if err != nil {
		return fmt.Errorf("pindex: creating %q: %w", ix.name, err)
	}
	// Bucket 0's sentinel has split-order key 0: the list head.
	h.FlushRange(sent, 0, ix.nodeSize)
	arr, err := h.Alloc(ix.arrK, ix.opts.InitialBuckets)
	if err != nil {
		return fmt.Errorf("pindex: creating %q: %w", ix.name, err)
	}
	h.SetWord(arr, layout.ElemOff(layout.FTRef, 0), uint64(sent))
	h.FlushRange(arr, 0, ix.arrK.SizeOf(ix.opts.InitialBuckets))
	hdr, err := h.Alloc(ix.hdrK, 0)
	if err != nil {
		return fmt.Errorf("pindex: creating %q: %w", ix.name, err)
	}
	h.SetWord(hdr, ix.fBuckets, uint64(arr))
	h.FlushRange(hdr, 0, ix.hdrK.SizeOf(0))
	if err := h.SetRoot(ix.name, hdr); err != nil {
		return fmt.Errorf("pindex: creating %q: %w", ix.name, err)
	}
	return nil
}

// Heap reports the persistent heap the index lives in.
func (ix *Index) Heap() *pheap.Heap { return ix.h }

// Name reports the index's root name.
func (ix *Index) Name() string { return ix.name }

// Len reports the entry count. It is maintained with volatile atomics
// (exact when no operation is in flight; recounted by recovery).
func (ix *Index) Len() int { return int(ix.size.Load()) }

// NewCtx attaches a per-goroutine operation context that pins through
// the index's Pinner.
func (ix *Index) NewCtx() *Ctx { return ix.NewCtxPinned(ix.pin) }

// NewCtxPinned attaches a per-goroutine operation context whose
// operations (grow and Release included) pin through pin instead of the
// index's Pinner — a pin the owner shares with nobody, such as its own
// safepoint.Slot of the domain the index's Pinner belongs to.
func (ix *Index) NewCtxPinned(pin Pinner) *Ctx {
	alloc := ix.h.NewAllocator()
	return &Ctx{ix: ix, pin: pin, alloc: alloc, cell: alloc.TelemetryCell()}
}

// Release retires the ctx: PLAB headroom returns to the dispenser and
// pending barrier records are handed to the heap's ownerless context.
func (c *Ctx) Release() {
	defer c.pin.Unpin(c.pin.Pin())
	c.alloc.Release()
	c.cell = nil // released with the allocator; counts folded into the registry
}

// Stats snapshots the ctx's own-path counters. The lines and fences are
// read off the ctx's view of the device (own), not tallied.
func (c *Ctx) Stats() CtxStats {
	s, o := c.stats, c.own()
	s.FlushedLines, s.Fences = int(o.FlushedLines), int(o.Fences)
	return s
}

// AllocStats snapshots the ctx's allocator counters.
func (c *Ctx) AllocStats() pheap.AllocatorStats { return c.alloc.Stats() }

// Allocator exposes the ctx's PLAB allocator so callers can allocate
// value objects on the same mutator-local path the index's nodes use.
func (c *Ctx) Allocator() *pheap.Allocator { return c.alloc }

// --- hashing and split ordering ---

// mixHash is the shared persisted-layout hash finalizer.
func mixHash(k int64) uint64 { return layout.MixHash64(k) }

// dataSort is a data node's split-order key: the bit-reversed hash with
// the top bit forced on, so every data key has bit 0 set — strictly
// greater than its bucket's sentinel, strictly less than the next.
func dataSort(hash uint64) uint64 { return bits.Reverse64(hash | 1<<63) }

// sentSort is bucket b's sentinel split-order key (bit 0 always clear).
func sentSort(b uint64) uint64 { return bits.Reverse64(b) }

// parentBucket is the bucket whose segment bucket b splits off: b with
// its highest set bit cleared.
func parentBucket(b uint64) uint64 {
	return b &^ (1 << (63 - uint(bits.LeadingZeros64(b))))
}

// soLess orders (sort, key) pairs — the list's total order.
func soLess(aSort, aKey, bSort, bKey uint64) bool {
	return aSort < bSort || (aSort == bSort && aKey < bKey)
}

// --- device accounting ---

// own is what the ctx's view of the device has counted so far, less what
// its allocator charged to the alloc subsystem: the traffic of the index's
// own paths (plus whatever the caller issued through Allocator() outside
// any allocation — pshard's box reads).
func (c *Ctx) own() nvm.Ops {
	v, a := c.alloc.Ops(), c.alloc.Stats()
	return nvm.Ops{
		Reads:        v.Reads - uint64(a.Reads),
		Writes:       v.Writes - uint64(a.Writes),
		FlushedLines: v.FlushedLines - uint64(a.FlushedLines),
		Fences:       v.Fences - uint64(a.Fences),
	}
}

// enter begins an operation: its safepoint interval (t is the pin's
// Token) and, when a telemetry cell is attached, the reading of own that
// exit charges the operation against. Every operation opens with
// defer c.exit(c.enter()).
func (c *Ctx) enter() (before nvm.Ops, t safepoint.Token) {
	t = c.pin.Pin()
	if c.cell != nil {
		before = c.own()
	}
	return before, t
}

// exit closes the operation. What own has moved by since enter is the
// operation's index traffic — every traversal load, hint probe, CAS
// attempt, publication and help flush, whichever path issued it — and
// goes to dev.index.* in the telemetry cell. Derived from what the device
// saw, not tallied per site, so it cannot drift from what the paths issue,
// and the lookup loop carries no accounting at all: a ctx without
// telemetry pays three tests per operation. A hint table the operation
// found outgrown is re-filed after the pin is dropped.
func (c *Ctx) exit(before nvm.Ops, t safepoint.Token) {
	if c.cell != nil {
		d := c.own().Sub(before)
		c.cell.Dev(nvm.SubIndex, d.Reads, d.Writes, d.FlushedLines, d.Fences)
	}
	c.pin.Unpin(t)
	if c.refile {
		c.refileHints()
	}
}

// loadClean returns the slot's current value with the dirty bit clear,
// helping persist it first if some in-flight publication left it dirty —
// the reader half of link-and-persist: no caller ever acts on a link
// that is not durable. A lazy bit is returned as read (it is part of the
// word a CAS must expect) and never helped: the value it tags reaches,
// after recovery's prune, what the persisted one does.
func (c *Ctx) loadClean(obj layout.Ref, boff int) uint64 {
	for {
		w := c.alloc.GetWordAtomic(obj, boff)
		if w&tagDirty == 0 {
			return w
		}
		c.alloc.FlushRange(obj, boff, 8)
		c.alloc.CasWord(obj, boff, w, w&^tagDirty)
		c.stats.HelpFlushes++
		c.cell.Inc(telemetry.CtrIndexHelpFlushes)
	}
}

// publish installs val into the slot with one CAS (dirty bit set),
// persists the link, and clears the dirty bit. False means the CAS lost a race and
// nothing happened. val may carry the deleted tag (a logical-delete
// publication); expect must be a clean word previously returned by
// loadClean or find.
func (c *Ctx) publish(obj layout.Ref, boff int, expect, val uint64) bool {
	if !c.alloc.CasWord(obj, boff, expect, val|tagDirty) {
		c.stats.Retries++
		return false
	}
	c.alloc.FlushRange(obj, boff, 8)              // the link-and-persist flush
	c.alloc.CasWord(obj, boff, val|tagDirty, val) // best effort: a helper may already have
	return true
}

// unlink swings pred's next from predW (the clean word find read) past
// deleted nodes to succ, tagged lazy and unflushed (package doc: a
// physical unlink is not a publication). The caller read the delete
// mark of every node it skips clean, i.e. durable. False means the CAS
// lost a race and nothing happened.
func (c *Ctx) unlink(pred layout.Ref, predW, succ uint64) bool {
	if !c.alloc.CasWord(pred, c.ix.fNext, predW, succ|tagLazy) {
		c.stats.Retries++
		return false
	}
	return true
}

// --- traversal ---

// find locates the insertion point for (sort, key) in the segment
// starting at the sentinel head: pred is the last node strictly before
// it, predW pred's clean next word (the CAS expectation), curr the first
// node at or after it (NullRef at segment end), found whether curr
// matches exactly. Logically deleted nodes encountered on the way are
// unlinked (their delete mark is durable by then — a loadClean preceded
// the unlink — so unlinking can never lose an uncommitted delete). Every
// node find steps to has its tag bits stripped; predW keeps them, lazy
// included, since it is what a CAS on pred must expect.
func (c *Ctx) find(head layout.Ref, sort, key uint64) (pred layout.Ref, predW uint64, curr layout.Ref, found bool) {
	a := c.alloc
restart:
	for {
		pred = head
		predW = c.loadClean(pred, c.ix.fNext)
		if predW&tagDel != 0 {
			// Sentinels are never deleted; a marked head means pred's next
			// carried a mark we must not CAS over. Unreachable by protocol,
			// but restarting is always safe.
			continue restart
		}
		curr = layout.UntagRef(layout.Ref(predW))
		for curr != layout.NullRef {
			cw := c.loadClean(curr, c.ix.fNext)
			succ := uint64(layout.UntagRef(layout.Ref(cw)))
			if cw&tagDel != 0 {
				// curr is committed-deleted: unlink it.
				if !c.unlink(pred, predW, succ) {
					continue restart
				}
				predW = c.loadClean(pred, c.ix.fNext)
				if predW&tagDel != 0 {
					continue restart
				}
				curr = layout.UntagRef(layout.Ref(predW))
				continue
			}
			// The list's total order is (sort, key); key only breaks a
			// split-order tie (two keys with one hash), so it is loaded
			// only then.
			if cs := a.GetWord(curr, c.ix.fSort); cs > sort {
				return pred, predW, curr, false
			} else if cs == sort {
				if ck := a.GetWord(curr, c.ix.fKey); ck >= key {
					return pred, predW, curr, ck == key
				}
			}
			pred, predW = curr, cw
			curr = layout.Ref(succ)
		}
		return pred, predW, layout.NullRef, false
	}
}

// insert splices a node with (sort, key, val) into the segment at head,
// returning the resident node and whether it already existed. The node
// is built inside its allocation (AllocInit: body persisted with the
// header, before the object is parseable), so a durable link always
// targets a durable node. With val null and a value klass vk given, the
// value object is built in the same run, just ahead of the node
// (AllocRun); value reports the node's value ref either way — val, or
// the object just built, which stays built if the key turns out to exist.
func (c *Ctx) insert(head layout.Ref, sort, key uint64, val layout.Ref, vk *klass.Klass, vinit func(layout.Ref)) (node, value layout.Ref, existed bool, err error) {
	a := c.alloc
	for {
		pred, predW, curr, found := c.find(head, sort, key)
		if found {
			return curr, val, true, nil
		}
		if node == layout.NullRef {
			initNode := func(v, n layout.Ref) {
				a.SetWord(n, c.ix.fSort, sort)
				a.SetWord(n, c.ix.fKey, key)
				a.SetWord(n, c.ix.fVal, uint64(v))
				a.SetWordAtomic(n, c.ix.fNext, uint64(curr))
			}
			if val == layout.NullRef && vk != nil {
				objs := [2]pheap.RunObj{{K: vk}, {K: c.ix.nodeK}}
				var refs [2]layout.Ref
				err = a.AllocRun(objs[:], refs[:], func(i int) {
					switch {
					case i == 1:
						initNode(refs[0], refs[1])
					case vinit != nil:
						vinit(refs[0])
					}
				})
				val, node = refs[0], refs[1]
			} else {
				node, err = a.AllocInit(c.ix.nodeK, 0, func(n layout.Ref) { initNode(val, n) })
			}
			if err != nil {
				return 0, val, false, fmt.Errorf("pindex: insert: %w", err)
			}
		} else {
			// Retrying with a different successor: repoint and re-persist
			// just the next word before republishing.
			a.SetWordAtomic(node, c.ix.fNext, uint64(curr))
			a.FlushRange(node, c.ix.fNext, 8)
		}
		if c.publish(pred, c.ix.fNext, predW, uint64(node)) {
			return node, val, false, nil
		}
	}
}

// --- bucket table ---

// rootCache pairs the header ref with the layout epoch it is valid for.
type rootCache struct {
	hdr   layout.Ref
	epoch uint64
}

// header resolves the index header inside the caller's pin. The cached
// (hdr, epoch) pair short-circuits the common case to one atomic load;
// only after a collection or rebase (epoch bump) does the locked
// name-table probe rerun — the root is the one slot the collector
// always patches, and the epoch cannot advance inside a safepoint
// interval, so a matching pair is always current. A missing root is a
// structural invariant violation (Open validated it), so it panics
// rather than masquerading as an empty map.
func (c *Ctx) header() layout.Ref {
	ix := c.ix
	epoch := ix.h.LayoutEpoch()
	if rc := ix.root.Load(); rc != nil && rc.epoch == epoch {
		return rc.hdr
	}
	hdr, ok := ix.h.GetRoot(ix.name)
	if !ok {
		panic(fmt.Sprintf("pindex: root %q lost", ix.name))
	}
	ix.root.Store(&rootCache{hdr: hdr, epoch: epoch})
	return hdr
}

// buckets returns the current bucket table and its size, helping persist
// a mid-flight table publication.
func (c *Ctx) buckets(hdr layout.Ref) (layout.Ref, int) {
	w := c.loadClean(hdr, c.ix.fBuckets)
	arr := layout.Ref(layout.UntagRef(layout.Ref(w)))
	return arr, c.alloc.ArrayLen(arr)
}

// bucketHead resolves bucket b's sentinel, lazily splicing it (and,
// recursively, its parents') into the list on first use. The bucket-slot
// store is idempotent — racing initializers insert the same sentinel
// (the list dedupes by split-order key) and store the same ref — so it
// needs no CAS protocol, and losing the store to a crash just means the
// next process re-resolves it.
func (c *Ctx) bucketHead(arr layout.Ref, b uint64) (layout.Ref, error) {
	a := c.alloc
	boff := layout.ElemOff(layout.FTRef, int(b))
	if w := a.GetWordAtomic(arr, boff); w != 0 {
		return layout.Ref(layout.UntagRef(layout.Ref(w))), nil
	}
	parent, err := c.bucketHead(arr, parentBucket(b))
	if err != nil {
		return 0, err
	}
	sent, _, _, err := c.insert(parent, sentSort(b), b, layout.NullRef, nil, nil)
	if err != nil {
		return 0, err
	}
	a.SetWordAtomic(arr, boff, uint64(sent))
	a.FlushRange(arr, boff, 8)
	return sent, nil
}

// bucketHeadRead resolves the deepest already-spliced ancestor sentinel
// of bucket b without allocating: a lookup or delete never needs to
// create a sentinel, because searching from an ancestor just scans a
// superset segment of the same sorted list. This keeps the read and
// delete paths free of allocation failure on an exhausted heap. Bucket
// 0's sentinel is persisted before the index root publishes, so the
// walk always terminates.
func (c *Ctx) bucketHeadRead(arr layout.Ref, b uint64) layout.Ref {
	a := c.alloc
	for {
		if w := a.GetWordAtomic(arr, layout.ElemOff(layout.FTRef, int(b))); w != 0 {
			return layout.Ref(layout.UntagRef(layout.Ref(w)))
		}
		if b == 0 {
			panic(fmt.Sprintf("pindex: %q head sentinel missing", c.ix.name))
		}
		b = parentBucket(b)
	}
}

// grow doubles the bucket table once the load factor is exceeded. It
// runs in its own safepoint interval — after the Put that tripped the
// threshold has returned its pin — so the pinned window is only the
// copy itself, and MaxBuckets bounds that window (the whole unpublished
// table must be built inside one pin: it is unreachable from any root,
// so a collection between chunks would reclaim it). The new table is
// fully persisted before one CAS on the header's buckets field
// publishes it; sentinels missing from the copied prefix (or lost to
// the copy race) re-resolve lazily. Single-flight: growers that lose
// the volatile flag skip — the next overloaded operation tries again.
// Growth is purely advisory (a denser table is slower, never wrong), so
// allocation failure is swallowed: the Put that triggered it has
// already committed and must not report an error for a mapping that is
// durably present.
func (c *Ctx) grow() {
	ix := c.ix
	a := c.alloc
	if !ix.growing.CompareAndSwap(false, true) {
		return
	}
	defer ix.growing.Store(false)
	defer c.exit(c.enter())
	hdr := c.header()
	w := c.loadClean(hdr, ix.fBuckets)
	arr := layout.Ref(layout.UntagRef(layout.Ref(w)))
	n := a.ArrayLen(arr)
	if float64(ix.size.Load()) <= ix.opts.MaxLoadFactor*float64(n) || 2*n > ix.opts.MaxBuckets {
		return
	}
	bigger, err := c.alloc.Alloc(ix.arrK, 2*n)
	if err != nil {
		return // out of space: stay at the current table size
	}
	for i := 0; i < n; i++ {
		boff := layout.ElemOff(layout.FTRef, i)
		a.SetWord(bigger, boff, a.GetWordAtomic(arr, boff))
	}
	a.FlushRange(bigger, 0, ix.arrK.SizeOf(2*n))
	if c.publish(hdr, ix.fBuckets, w, uint64(bigger)) {
		c.cell.Inc(telemetry.CtrIndexGrows)
	}
}

// --- operations ---

// Put inserts or updates key → val. val must be NullRef or reference an
// object inside this index's persistent heap: index slots never pass
// core's write barrier, so a volatile (DRAM) value would bypass the
// NVM→DRAM remembered set and dangle after the next volatile collection
// — it is rejected up front instead. On return the mapping is durable:
// a crash at any later point preserves it. An error (heap exhaustion,
// foreign value) means the mapping was not installed.
func (c *Ctx) Put(key int64, val layout.Ref) error {
	if val != layout.NullRef && !c.ix.h.Contains(val) {
		return fmt.Errorf("pindex: value %#x is not an object in this persistent heap", uint64(val))
	}
	return c.put(key, val, nil, nil)
}

// PutNew is Put for a value the operation builds itself: a fresh
// instance of k, on this ctx's PLAB, with init's stores (made through
// Allocator()) as its contents. Allocating inside the operation is what
// lets the value share the node's persist — for a key not yet present
// the two are one allocation run — and, for a key that exists, go in
// whole with one flush. The value object is complete and durable before
// any durable word names it; on error the mapping was not installed.
func (c *Ctx) PutNew(key int64, k *klass.Klass, init func(val layout.Ref)) error {
	return c.put(key, layout.NullRef, k, init)
}

func (c *Ctx) put(key int64, val layout.Ref, vk *klass.Klass, vinit func(layout.Ref)) error {
	overloaded, err := c.putPinned(key, val, vk, vinit)
	if overloaded {
		// Table doubling runs in its own safepoint interval so the Put's
		// pin — which a waiting collector pause must drain — stays short.
		c.grow()
	}
	return err
}

// putPinned maps key → val, or, with val null and a value klass vk, → a
// new vk instance that vinit fills (PutNew), built at most once however
// often the loop comes round.
func (c *Ctx) putPinned(key int64, val layout.Ref, vk *klass.Klass, vinit func(layout.Ref)) (overloaded bool, err error) {
	ix := c.ix
	defer c.exit(c.enter())
	c.stats.Puts++
	c.cell.Inc(telemetry.CtrIndexPuts)
	// A caller's value is about to be named by a durable slot: a header its
	// allocation deferred is settled first, charged to the allocation
	// (pheap's alloc.go).
	c.alloc.Settle(val)
	hash := mixHash(key)
	node, _ := c.probe(hash, uint64(key))
	for {
		if node == layout.NullRef {
			hdr := c.header()
			arr, n := c.buckets(hdr)
			head, err := c.bucketHead(arr, hash&uint64(n-1))
			if err != nil {
				return false, err
			}
			var existed bool
			if node, val, existed, err = c.insert(head, dataSort(hash), uint64(key), val, vk, vinit); err != nil {
				return false, err
			}
			c.hint(hash, node)
			if !existed {
				ix.size.Add(1)
				return float64(ix.size.Load()) > ix.opts.MaxLoadFactor*float64(n), nil
			}
		}
		if val == layout.NullRef && vk != nil {
			// Existing key: the value object goes in alone, whole in the
			// image before the slot below can name it.
			if val, err = c.alloc.AllocInit(vk, 0, vinit); err != nil {
				return false, fmt.Errorf("pindex: put: %w", err)
			}
		}
		// Publish the new value on the node's slot, then re-check the node
		// was not deleted underneath — if it was, the delete linearized
		// first and the put must re-insert (with the value already built).
		for {
			vw := c.loadClean(node, ix.fVal)
			if layout.UntagRef(layout.Ref(vw)) == val {
				break // already this value, and durable (loadClean persisted it)
			}
			if c.publish(node, ix.fVal, vw, uint64(val)) {
				break
			}
		}
		if c.loadClean(node, ix.fNext)&tagDel == 0 {
			return false, nil
		}
		node = layout.NullRef
	}
}

// Get looks key up. The answer is durable before it is returned: every
// link and value it depends on has been persisted (helping if needed).
// The read path never allocates (unspliced buckets are searched through
// their deepest spliced ancestor), so a miss always means the key is
// absent — never a masked failure.
func (c *Ctx) Get(key int64) (layout.Ref, bool) {
	ix := c.ix
	defer c.exit(c.enter())
	c.stats.Gets++
	c.cell.Inc(telemetry.CtrIndexGets)
	hash := mixHash(key)
	node, _ := c.probe(hash, uint64(key))
	if node == layout.NullRef {
		arr, n := c.buckets(c.header())
		head := c.bucketHeadRead(arr, hash&uint64(n-1))
		var found bool
		if _, _, node, found = c.find(head, dataSort(hash), uint64(key)); !found {
			return 0, false
		}
		c.hint(hash, node)
	}
	vw := c.loadClean(node, ix.fVal)
	return layout.UntagRef(layout.Ref(vw)), true
}

// Delete removes key, reporting whether it was present. The delete is
// committed — durable — by the flush of the logical delete mark, its one
// line and one fence; the physical unlink is lazy (unflushed, persisted
// by the next collection) and best-effort, finished by later traversals
// or by recovery if it loses its CAS. A key the hint table serves is
// marked on its hinted node and not unlinked here at all: the next find
// that crosses the node does it. Like Get, the path never allocates and
// so cannot fail.
func (c *Ctx) Delete(key int64) bool {
	ix := c.ix
	defer c.exit(c.enter())
	c.stats.Deletes++
	c.cell.Inc(telemetry.CtrIndexDeletes)
	hash := mixHash(key)
	if node, cw := c.probe(hash, uint64(key)); node != layout.NullRef {
		// The probe read cw clean and unmarked: the same point find's
		// return establishes, so the mark is published exactly as below.
		if c.publish(node, ix.fNext, cw, cw&^tagLazy|tagDel) {
			ix.size.Add(-1)
			c.unhint(hash, node)
			return true
		}
		// Interference on the node: walk to it (or past it) instead.
	}
	sort := dataSort(hash)
	for {
		arr, n := c.buckets(c.header())
		head := c.bucketHeadRead(arr, hash&uint64(n-1))
		pred, predW, curr, found := c.find(head, sort, uint64(key))
		if !found {
			return false
		}
		cw := c.loadClean(curr, ix.fNext)
		if cw&tagDel != 0 {
			return false // concurrently deleted: linearize after it
		}
		// Logical delete: one CAS sets the mark; its flush inside publish
		// is the durable commit point. It persists the link too, so a
		// lazy bit the word carried goes.
		if !c.publish(curr, ix.fNext, cw, cw&^tagLazy|tagDel) {
			continue // interference on curr: re-find
		}
		ix.size.Add(-1)
		// Best-effort physical unlink (find/recovery mop up failures).
		c.unlink(pred, predW, uint64(layout.UntagRef(layout.Ref(cw))))
		return true
	}
}

// Scan walks every entry in split-order, calling fn(key, value) until it
// returns false. The walk is one safepoint interval (it pins the world;
// prefer short scans while a concurrent collection runs) and observes a
// consistent durable-helped view of each link it crosses, though
// concurrent mutations before or behind the cursor may or may not be
// seen — the usual weakly consistent lock-free iteration.
func (c *Ctx) Scan(fn func(key int64, val layout.Ref) bool) {
	ix := c.ix
	defer c.exit(c.enter())
	c.cell.Inc(telemetry.CtrIndexScans)
	a := c.alloc
	arr, _ := c.buckets(c.header())
	node := c.bucketHeadRead(arr, 0)
	for node != layout.NullRef {
		w := c.loadClean(node, ix.fNext)
		isData := a.GetWord(node, ix.fSort)&1 == 1
		if isData && w&tagDel == 0 {
			vw := c.loadClean(node, ix.fVal)
			if !fn(int64(a.GetWord(node, ix.fKey)), layout.UntagRef(layout.Ref(vw))) {
				return
			}
		}
		node = layout.Ref(layout.UntagRef(layout.Ref(w)))
	}
}
