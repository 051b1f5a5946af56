// Package pheap implements PJH, the Persistent Java Heap of the paper's
// §3–§4: an NVM-resident space holding Java objects, laid out as
//
//	metadata area | name table | string arena | redo log |
//	mark bitmap | region bitmap | region-top table | Klass segment |
//	data heap (+ scratch region)
//
// All components live on one nvm.Device so the whole heap is a single
// reloadable image. The metadata area stores the address hint, heap size,
// global GC timestamp, and GC-active flag (paper Figure 8); the
// region-top table holds one persisted allocation-top word per data
// region (one cache line each) — the PLAB allocator's replacement for the
// paper's single persisted top, and, unlike the paper's (§4.1 persists
// the top with every allocation), a lower bound only: an allocation
// persists at most the object (a plain one not even its header until it
// is flushed or named), and Load finds what lies above a
// persisted top by parsing forward while headers carry the image's
// allocation epoch (alloc.go has the protocol); the name table maps string constants to
// Klass entries and root entries; the Klass segment stores place-holder
// Klass records that are re-initialized in place on load so class
// pointers inside objects stay valid; the data heap is carved into
// regions for the crash-consistent compacting collector in package pgc.
package pheap

import (
	"fmt"
	"sync"
	"sync/atomic"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/telemetry"
	"espresso/internal/telemetry/blackbox"
)

const (
	heapMagic = 0x4553_5052_4845_4150 // "ESPRHEAP"
	// heapVersion is the one format this package reads and writes:
	// per-region top table, GC-phase word, flight-recorder ring, and
	// checksums over the critical metadata (a checksum word beside each
	// region-top value, a committed-batch checksum in the redo area's
	// trailing word, a GC-phase checksum, a global-timestamp checksum).
	// Load, LoadSalvage, Scrub and BlackboxRegion reject every other
	// version, which is what lets the version word go without a checksum
	// of its own: a single flipped bit of it lands on a rejected value
	// (docs/robustness.md).
	//
	// Version 6 is version 5 with the region tops demoted to lower bounds
	// (so code that trusts them — every version 5 reader — must refuse the
	// image) and the timestamp checksum in the slot version 5 kept zero.
	heapVersion = 6
)

// The reserved phase word (mGCPhase) and its checksum (mGCPhaseSum).
// Images written before the concurrent collector was removed used the
// word to announce an in-flight concurrent mark (1); every image now
// holds it idle (0) under a valid checksum, Create writes exactly that,
// and Load refuses anything else as corruption (LoadSalvage resets it,
// Scrub reports it). Keeping the words reserved keeps every image
// byte-identical at format 6.
const gcPhaseIdle uint64 = 0

// Metadata field offsets (device-relative). The whole block fits in four
// cache lines at the start of the device. mGlobalTSSum checksums
// mGlobalTS from the same cache line (the slot held the global allocation
// top before the per-region top table, and zero through version 5).
const (
	mMagic         = 0
	mVersion       = 8
	mAddressHint   = 16
	mDeviceSize    = 24
	mGlobalTSSum   = 32
	mGlobalTS      = 40
	mGCActive      = 48
	mNameTabOff    = 56
	mNameTabCap    = 64
	mArenaOff      = 72
	mArenaSize     = 80
	mArenaUsed     = 88
	mRedoOff       = 96
	mRedoSize      = 104
	mMarkBmpOff    = 112
	mMarkBmpSize   = 120
	mRegionBmpOff  = 128
	mRegionBmpSize = 136
	mKsegOff       = 144
	mKsegSize      = 152
	mKsegUsed      = 160
	mDataOff       = 168
	mDataSize      = 176
	mScratchOff    = 184
	mRegionTopOff  = 192
	mRegionTopSize = 200
	mGCPhase       = 208
	mBlackboxOff   = 216
	mBlackboxSize  = 224
	mGCPhaseSum    = 232 // checksum over mGCPhase, same cache line as it
	metadataBytes  = 240
)

// Config sizes a new heap. Zero values select defaults.
type Config struct {
	// Name identifies the heap to the external name manager.
	Name string
	// AddressHint is the virtual base address the heap wants to occupy
	// (paper: "the starting virtual address of the whole heap for future
	// heap reloading"). Defaults to layout.DefaultPJHBase.
	AddressHint layout.Ref
	// DataSize is the requested data-heap capacity in bytes; it is rounded
	// up to whole regions and one extra scratch region is added for the
	// compactor. Default 16 MB.
	DataSize int
	// KsegSize caps the Klass segment. Default 1 MB.
	KsegSize int
	// NameTabCap is the name table capacity in entries. Default 4096.
	NameTabCap int
	// ArenaSize caps the name-string arena. Default 256 KB.
	ArenaSize int
	// BlackboxSize sizes the flight-recorder event ring (header + 64-byte
	// records). Default 64 KB (1023 records). The ring is always carved
	// and formatted — recording is enabled separately — so a heap image
	// can be post-mortemed regardless of how the writing process was
	// configured.
	BlackboxSize int
	// Mode configures the backing nvm.Device.
	Mode nvm.Mode
}

func (c *Config) fillDefaults() {
	if c.AddressHint == 0 {
		c.AddressHint = layout.DefaultPJHBase
	}
	if c.DataSize == 0 {
		c.DataSize = 16 << 20
	}
	if c.KsegSize == 0 {
		c.KsegSize = 1 << 20
	}
	if c.NameTabCap == 0 {
		c.NameTabCap = 4096
	}
	if c.ArenaSize == 0 {
		c.ArenaSize = 256 << 10
	}
	if c.BlackboxSize == 0 {
		c.BlackboxSize = 64 << 10
	}
}

// Geometry is the resolved component layout of a heap image.
type Geometry struct {
	NameTabOff, NameTabCap      int
	ArenaOff, ArenaSize         int
	RedoOff, RedoSize           int
	MarkBmpOff, MarkBmpSize     int
	RegionBmpOff, RegionBmpSize int
	RegionTopOff, RegionTopSize int
	KsegOff, KsegSize           int
	BlackboxOff, BlackboxSize   int // flight-recorder ring
	DataOff, DataSize           int // includes the scratch region
	ScratchOff                  int
}

// Regions reports the number of data regions, including the scratch
// region.
func (g Geometry) Regions() int { return g.DataSize / layout.RegionSize }

// DataRegions reports the number of allocatable data regions (excluding
// the compactor's scratch region).
func (g Geometry) DataRegions() int { return (g.ScratchOff - g.DataOff) / layout.RegionSize }

// layOut places every component from the sizes alone, in image order —
// each area starts where the previous one ends, the data heap at the next
// region boundary, the scratch region last — and returns the image's total
// size. Create lays a new image out with it; readGeometry lays a stored
// one out again and rejects any stored offset that disagrees.
func (g *Geometry) layOut() (total int) {
	off := align(metadataBytes, 64)
	for _, area := range []struct {
		off  *int
		size int
	}{
		{&g.NameTabOff, g.NameTabCap * nameEntryBytes},
		{&g.ArenaOff, g.ArenaSize},
		{&g.RedoOff, g.RedoSize},
		{&g.MarkBmpOff, g.MarkBmpSize},
		{&g.RegionBmpOff, g.RegionBmpSize},
		{&g.RegionTopOff, g.RegionTopSize},
		{&g.KsegOff, g.KsegSize},
		{&g.BlackboxOff, g.BlackboxSize},
	} {
		*area.off = off
		off += area.size
	}
	g.DataOff = align(off, layout.RegionSize)
	g.ScratchOff = g.DataOff + g.DataSize - layout.RegionSize
	return g.DataOff + g.DataSize
}

// Heap is a loaded PJH instance. Allocation is safe for concurrent use:
// the shared Alloc entry point serializes on the heap's default
// allocator, and NewAllocator hands out per-mutator PLAB contexts that
// bump-allocate lock-free. GC and load/recovery assume the world is
// stopped, as in the JVM.
type Heap struct {
	// Access is the heap's own, ownerless object access (object.go): the
	// accessors it promotes count in the device's shared counters.
	Access

	dev  *nvm.Device
	reg  *klass.Registry
	name string
	base layout.Ref
	geo  Geometry

	// mu serializes heap metadata: the region dispenser, hole list, klass
	// segment appends, name-table updates and misses, and arena. The object
	// fast paths (PLAB bumps, field access) and a name-table lookup that
	// hits the slot index never take it.
	mu        sync.Mutex
	gcActive  atomic.Bool
	globalTS  atomic.Uint64
	ksegUsed  int
	arenaUsed int

	// The sink core installs to receive the reference-store barrier's
	// remembered-set deltas (barrier.go). The buffers themselves live in
	// the allocators.
	remsetSink atomic.Pointer[RemsetSink]

	// markBmpHi is the byte length of the mark bitmap's last persisted
	// used prefix (see PersistMarkBitmapUsed). Volatile: a fresh process
	// starts conservative.
	markBmpHi int

	// layoutEpoch counts the events that can move objects — collection
	// finishes and rebases. Callers holding the safepoint read lock can
	// validate cached object references with one atomic load instead of
	// a locked name-table probe: the epoch cannot change inside their
	// pinned interval.
	layoutEpoch atomic.Uint64

	// collecting guards against overlapping collections of one heap: a
	// second collector starting mid-cycle would clear the bitmap the
	// first is writing and move objects out from under its snapshot.
	// core serializes its GC entry points; this is the in-process
	// defense for direct pgc callers.
	collecting atomic.Bool
	// collectorScratch is what a collector keeps from one cycle to the
	// next (pgc's move list); only the holder of the collecting slot
	// touches it.
	collectorScratch any

	// slots is the name table's volatile slot index (nametable.go):
	// copy-on-write under mu, read without it. Nil until the first lookup
	// finds a name.
	slots atomic.Pointer[map[nameKey]int]

	// kseg is the klass segment's address maps (kseg.go): copy-on-write
	// under mu, or before the heap is published; read without a lock by
	// every KlassOf.
	kseg atomic.Pointer[klassMaps]

	// regions is each region's volatile top and deferred header, one
	// padded line per region (alloc.go): two PLABs are often adjacent
	// regions, and their owners store both words on every bump
	// allocation. Volatile, like every word of it: a reload settles
	// nothing, it parses.
	regions []regionLine

	// Region dispenser state (guarded by mu): regions below frontier have
	// been handed out at some point; freeRegions lists regions below the
	// frontier with bump headroom left (fully free, or partially filled
	// ones returned by Release / left behind by the collector).
	frontier    int
	freeRegions []int

	// Hole recycling: the collector reports the filler-covered gaps below
	// the region tops that it left behind; allocators refill them before
	// claiming new regions. The list is volatile — after a reload it
	// starts empty and is repopulated by the next collection. holeCount
	// lets the allocation fast path skip the lock when no holes exist.
	freeHoles []Hole
	holeCount atomic.Int64

	// Filler klass records, resolved once so gap plugging is lock-free.
	fillerK, fillerArrK       *klass.Klass
	fillerAddr, fillerArrAddr layout.Ref

	// Registered allocators (guarded by mu): every mutator context there
	// is. PrepareForCollection retires their PLABs wholesale at the GC
	// safepoint, and collectors drain their barrier buffers through the
	// list. ownerless is the first entry, created with the heap (see
	// Ownerless); allocMu serializes Heap.Alloc on its PLAB.
	allocators []*Allocator
	ownerless  *Allocator
	allocMu    sync.Mutex

	// tel is the observability domain this heap reports into (nil =
	// telemetry disabled; every record call no-ops). Installed by the
	// embedding runtime before mutators run; allocators created earlier
	// (the default allocator) simply carry nil cells.
	tel *telemetry.Registry

	// fr is the NVM flight recorder (nil = disabled; Append on nil
	// no-ops, so emission sites never branch). Installed once by
	// EnableFlightRecorder before mutators run.
	fr *blackbox.Recorder

	// recovered is what Load's forward parse found, per half-open region
	// (RecoveredRegions).
	recovered []RecoveredRegion

	// quarantined marks data regions amputated by LoadSalvage (nil on a
	// strict or clean load). Quarantined regions were zeroed and their
	// top lines reset, so the heap itself needs no further guard; the
	// slice exists for the index layer's never-fabricate walk and for
	// reporting.
	quarantined []bool
}

func align(n, a int) int { return (n + a - 1) &^ (a - 1) }

// Create formats a fresh heap on a new device.
func Create(reg *klass.Registry, cfg Config) (*Heap, error) {
	cfg.fillDefaults()
	dataSize := align(cfg.DataSize, layout.RegionSize) + layout.RegionSize // + scratch
	regions := dataSize / layout.RegionSize

	geo := Geometry{
		NameTabCap: cfg.NameTabCap,
		ArenaSize:  align(cfg.ArenaSize, 64),
		// The GC finish batch carries every root entry plus one top word per
		// region; size the log for both.
		RedoSize:      align(16+(cfg.NameTabCap+regions+8)*16+64, 64),
		MarkBmpSize:   align(dataSize/layout.WordSize/8, 64),
		RegionBmpSize: align((regions+7)/8, 64),
		RegionTopSize: regions * layout.RegionTopStride,
		KsegSize:      align(cfg.KsegSize, 64),
		BlackboxSize:  align(cfg.BlackboxSize, 64),
		DataSize:      dataSize,
	}
	total := geo.layOut()

	dev := nvm.New(nvm.Config{Size: total, Mode: cfg.Mode})
	h := &Heap{
		dev: dev, reg: reg, name: cfg.Name, base: cfg.AddressHint, geo: geo,
		regions: make([]regionLine, regions),
	}
	h.kseg.Store(&klassMaps{})
	h.Access = Access{heap: h, view: dev.Unowned()}

	dev.WriteU64(mMagic, heapMagic)
	dev.WriteU64(mVersion, heapVersion)
	dev.WriteU64(mAddressHint, uint64(cfg.AddressHint))
	dev.WriteU64(mDeviceSize, uint64(total))
	dev.WriteU64(mGlobalTSSum, globalTSSum(1))
	dev.WriteU64(mGlobalTS, 1)
	dev.WriteU64(mGCActive, 0)
	dev.WriteU64(mNameTabOff, uint64(geo.NameTabOff))
	dev.WriteU64(mNameTabCap, uint64(geo.NameTabCap))
	dev.WriteU64(mArenaOff, uint64(geo.ArenaOff))
	dev.WriteU64(mArenaSize, uint64(geo.ArenaSize))
	dev.WriteU64(mArenaUsed, 0)
	dev.WriteU64(mRedoOff, uint64(geo.RedoOff))
	dev.WriteU64(mRedoSize, uint64(geo.RedoSize))
	dev.WriteU64(mMarkBmpOff, uint64(geo.MarkBmpOff))
	dev.WriteU64(mMarkBmpSize, uint64(geo.MarkBmpSize))
	dev.WriteU64(mRegionBmpOff, uint64(geo.RegionBmpOff))
	dev.WriteU64(mRegionBmpSize, uint64(geo.RegionBmpSize))
	dev.WriteU64(mKsegOff, uint64(geo.KsegOff))
	dev.WriteU64(mKsegSize, uint64(geo.KsegSize))
	dev.WriteU64(mKsegUsed, 0)
	dev.WriteU64(mDataOff, uint64(geo.DataOff))
	dev.WriteU64(mDataSize, uint64(dataSize))
	dev.WriteU64(mScratchOff, uint64(geo.ScratchOff))
	dev.WriteU64(mRegionTopOff, uint64(geo.RegionTopOff))
	dev.WriteU64(mRegionTopSize, uint64(geo.RegionTopSize))
	dev.WriteU64(mGCPhase, gcPhaseIdle)
	dev.WriteU64(mBlackboxOff, uint64(geo.BlackboxOff))
	dev.WriteU64(mBlackboxSize, uint64(geo.BlackboxSize))
	dev.WriteU64(mGCPhaseSum, gcPhaseSum(gcPhaseIdle))
	// The region-top table needs no stamping: all-zero lines are the
	// valid untouched-region state (see regionTopLineValid).
	dev.Flush(0, metadataBytes)
	dev.Fence()
	// Ring header after the metadata that points at it (manifest-first).
	if err := blackbox.Format(dev, geo.BlackboxOff, geo.BlackboxSize); err != nil {
		return nil, err
	}
	h.globalTS.Store(1)

	// Every heap carries the filler classes so allocation gaps parse.
	if _, err := h.EnsureKlass(reg.Filler()); err != nil {
		return nil, err
	}
	if _, err := h.EnsureKlass(reg.FillerArray()); err != nil {
		return nil, err
	}
	h.resolveFillers()
	h.ownerless = h.register(&Allocator{Access: h.Access})
	return h, nil
}

// Load opens an existing heap image. If the image was mid-GC when it was
// last persisted, the heap reports GCActive()==true and the caller must
// run pgc recovery before using it (core.LoadHeap does). On a clean
// image, half-open PLAB regions — per-region tops inside their region —
// are parsed forward from the persisted top while headers validate
// (recoverFrontier), then plugged with fillers and sealed, so the
// reloaded data heap parses region by region and holds every object a
// durable word names (alloc.go: a plain allocation's header is durable
// once it is flushed, named, or followed by its allocator's next
// allocation).
//
// Load is strict: any metadata checksum failure is an error. LoadSalvage
// (salvage.go) opens such images by quarantining what cannot be
// repaired.
func Load(dev *nvm.Device, reg *klass.Registry) (*Heap, error) {
	return load(dev, reg, nil)
}

// load is the shared open path. salv == nil selects strict mode;
// otherwise corruption is repaired or quarantined into the report where
// the salvage rules allow.
func load(dev *nvm.Device, reg *klass.Registry, salv *SalvageReport) (*Heap, error) {
	// Unreadable-image checks first: these reject images we cannot even
	// interpret, and apply identically in both modes.
	geo, err := readGeometry(dev)
	if err != nil {
		return nil, err
	}
	// The words no checksum covers, checked against the rest of the image
	// (selfcheck.go). Nothing they can get wrong is repairable, so both
	// modes refuse, before anything is written.
	if findings := selfCheck(dev, geo); len(findings) > 0 {
		return nil, fmt.Errorf("pheap: corrupt metadata: %s", findings[0])
	}
	if p := dev.ReadU64(mGCPhase); p != gcPhaseIdle || dev.ReadU64(mGCPhaseSum) != gcPhaseSum(p) {
		if salv == nil {
			return nil, fmt.Errorf("pheap: corrupt GC-phase word %d", p)
		}
		// Resetting to idle is always sound: a valid 1 is an older
		// process's interrupted concurrent mark, which moved nothing,
		// and an interrupted compaction re-announces itself through the
		// gcActive flag regardless of the phase word.
		dev.WriteU64(mGCPhase, gcPhaseIdle)
		dev.WriteU64(mGCPhaseSum, gcPhaseSum(gcPhaseIdle))
		dev.Flush(mGCPhase, 8) // the sum shares the phase word's line
		dev.Fence()
		salv.GCPhaseRepaired = true
	}
	h := &Heap{
		dev: dev, reg: reg,
		base:      layout.Ref(dev.ReadU64(mAddressHint)),
		geo:       geo,
		ksegUsed:  int(dev.ReadU64(mKsegUsed)),
		arenaUsed: int(dev.ReadU64(mArenaUsed)),
		regions:   make([]regionLine, geo.Regions()),
	}
	h.Access = Access{heap: h, view: dev.Unowned()}
	h.globalTS.Store(dev.ReadU64(mGlobalTS))
	h.gcActive.Store(dev.ReadU64(mGCActive) != 0)
	// An earlier process may have persisted mark bits anywhere in the
	// bitmap area; the first persist of this process must cover it all.
	h.markBmpHi = geo.MarkBmpSize
	// Class re-initialization in place: cost ∝ number of Klasses, not
	// objects — the property behind Figure 18's flat UG line.
	if err := h.reinitKlasses(); err != nil {
		return nil, err
	}
	h.resolveFillers()
	// Redo-log state validation: a committed batch must carry its
	// checksum, and the state word must decode. Strict mode errors;
	// salvage discards an unusable batch (see redoValidate for why that
	// is sound in every reachable state).
	if err := h.redoValidate(salv); err != nil {
		return nil, err
	}
	// A committed-but-unapplied GC finish means the collection logically
	// completed; reapplying the redo log is idempotent.
	if h.RedoPending() {
		h.RedoApply()
		h.gcActive.Store(dev.ReadU64(mGCActive) != 0)
		h.globalTS.Store(dev.ReadU64(mGlobalTS)) // the batch ends the cycle on a new epoch
	}
	// Region-top checksums, after redo processing so a batch that
	// republished tops has already repaired the lines it covers.
	if err := h.verifyRegionTops(salv); err != nil {
		return nil, err
	}
	// Region recovery: rebuild the volatile mirrors and the dispenser.
	// Mid-collection images keep their raw tops — they were made exact
	// before the cycle was stamped, the compactor reads the timestamp the
	// parse would, and pgc.RecoverIfNeeded rewrites them wholesale — while clean
	// images get half-open PLABs recovered and sealed.
	h.rebuildRegionState(!h.gcActive.Load())
	h.ownerless = h.register(&Allocator{Access: h.Access})
	return h, nil
}

// checkHeader rejects what is not a heap image in the current format.
func checkHeader(dev *nvm.Device) error {
	if dev.Size() < metadataBytes {
		return fmt.Errorf("pheap: image too small")
	}
	if dev.ReadU64(mMagic) != heapMagic {
		return fmt.Errorf("pheap: bad heap magic")
	}
	if v := dev.ReadU64(mVersion); v != heapVersion {
		return fmt.Errorf("pheap: unsupported heap version %d (want %d)", v, heapVersion)
	}
	return nil
}

// readGeometry is the shared front door of Load, LoadSalvage and Scrub:
// it rejects what is not a heap image of this device's size in the
// current format (the "unreadable" class) and decodes the component
// layout.
func readGeometry(dev *nvm.Device) (Geometry, error) {
	if err := checkHeader(dev); err != nil {
		return Geometry{}, err
	}
	if sz := dev.ReadU64(mDeviceSize); int(sz) != dev.Size() {
		return Geometry{}, fmt.Errorf("pheap: image size %d does not match metadata %d", dev.Size(), sz)
	}
	word := func(off int) int { return int(dev.ReadU64(off)) }
	geo := Geometry{
		NameTabOff: word(mNameTabOff), NameTabCap: word(mNameTabCap),
		ArenaOff: word(mArenaOff), ArenaSize: word(mArenaSize),
		RedoOff: word(mRedoOff), RedoSize: word(mRedoSize),
		MarkBmpOff: word(mMarkBmpOff), MarkBmpSize: word(mMarkBmpSize),
		RegionBmpOff: word(mRegionBmpOff), RegionBmpSize: word(mRegionBmpSize),
		RegionTopOff: word(mRegionTopOff), RegionTopSize: word(mRegionTopSize),
		KsegOff: word(mKsegOff), KsegSize: word(mKsegSize),
		BlackboxOff: word(mBlackboxOff), BlackboxSize: word(mBlackboxSize),
		DataOff: word(mDataOff), DataSize: word(mDataSize),
		ScratchOff: word(mScratchOff),
	}
	return geo, geo.sanity(dev.Size())
}

// sanity rejects geometry words that are not the layout Create gives an
// image of this size — the line between "an image we can validate" and
// "not an image": checksum validation itself walks these areas. None of
// the words carries a checksum and none needs one: the offsets are a
// function of the sizes (layOut), so every size is first bounded by the
// device, then the layout is computed again from the sizes and must
// reproduce each stored offset and end exactly at the device's end. A
// rotted offset disagrees with its recomputed value; a rotted size moves
// every offset after it.
func (g Geometry) sanity(size int) error {
	if uint64(g.NameTabCap) > uint64(size)/nameEntryBytes {
		return fmt.Errorf("pheap: unreadable image: name table of %d entries on a device of %d bytes", g.NameTabCap, size)
	}
	for _, n := range []int{g.ArenaSize, g.RedoSize, g.MarkBmpSize, g.RegionBmpSize,
		g.RegionTopSize, g.KsegSize, g.BlackboxSize, g.DataSize} {
		if n < 0 || n > size {
			return fmt.Errorf("pheap: unreadable image: component of %d bytes on a device of %d", n, size)
		}
	}
	want := g
	total := want.layOut()
	for _, at := range []struct {
		name         string
		stored, want int
	}{
		{"name table", g.NameTabOff, want.NameTabOff},
		{"arena", g.ArenaOff, want.ArenaOff},
		{"redo log", g.RedoOff, want.RedoOff},
		{"mark bitmap", g.MarkBmpOff, want.MarkBmpOff},
		{"region bitmap", g.RegionBmpOff, want.RegionBmpOff},
		{"region-top table", g.RegionTopOff, want.RegionTopOff},
		{"klass segment", g.KsegOff, want.KsegOff},
		{"blackbox ring", g.BlackboxOff, want.BlackboxOff},
		{"data heap", g.DataOff, want.DataOff},
		{"scratch region", g.ScratchOff, want.ScratchOff},
		{"end of image", size, total},
	} {
		if at.stored != at.want {
			return fmt.Errorf("pheap: unreadable image: %s at %d, the component sizes put it at %d", at.name, at.stored, at.want)
		}
	}
	if g.DataSize%layout.RegionSize != 0 || g.DataSize < 2*layout.RegionSize || g.RegionTopSize < g.Regions()*layout.RegionTopStride {
		return fmt.Errorf("pheap: unreadable image: inconsistent region geometry")
	}
	if g.RedoSize < 24 {
		return fmt.Errorf("pheap: unreadable image: redo area too small")
	}
	return nil
}

// resolveFillers caches the filler klass records so gap plugging never
// needs the metadata lock. Create ensures both records exist, so every
// image carries them.
func (h *Heap) resolveFillers() {
	h.fillerK = h.reg.Filler()
	h.fillerArrK = h.reg.FillerArray()
	h.fillerAddr, _ = h.KlassAddr(h.fillerK)
	h.fillerArrAddr, _ = h.KlassAddr(h.fillerArrK)
}

// Device exposes the backing device (benchmarks read its stats; the GC
// flushes through it).
func (h *Heap) Device() *nvm.Device { return h.dev }

// SetTelemetry installs the heap's telemetry registry. Call before
// mutators attach allocators; a nil registry (the default) disables
// recording. The ownerless allocator has no cell of its own — its
// allocation traffic stays unattributed, which is the honest reading of
// facade-routed allocations, and its reference stores count in the
// registry's shared cell.
func (h *Heap) SetTelemetry(r *telemetry.Registry) {
	h.tel = r
	h.fr.SetTelemetry(r)
}

// Telemetry returns the heap's registry (nil when disabled). All registry
// and cell methods are nil-receiver-safe, so callers thread the result
// without branching.
func (h *Heap) Telemetry() *telemetry.Registry { return h.tel }

// EnableFlightRecorder attaches the heap's NVM event journal for
// appending. Call before mutators run (and before GC recovery, so
// recovery steps are journaled). Idempotent.
func (h *Heap) EnableFlightRecorder() (*blackbox.Recorder, error) {
	if h.fr != nil {
		return h.fr, nil
	}
	r, err := blackbox.Attach(h.dev, h.geo.BlackboxOff, h.geo.BlackboxSize)
	if err != nil {
		return nil, fmt.Errorf("pheap: flight recorder: %w", err)
	}
	r.SetTelemetry(h.tel)
	h.fr = r
	return r, nil
}

// FlightRecorder returns the heap's recorder (nil when disabled). All
// recorder methods are nil-receiver-safe, so callers append without
// branching.
func (h *Heap) FlightRecorder() *blackbox.Recorder { return h.fr }

// BlackboxRegion locates the flight-recorder ring on a raw heap image
// without loading (or mutating) the heap — Load would apply redo
// batches and plug regions, both wrong for a crashed image being
// post-mortemed. Only the magic, version, and ring coordinates are read.
func BlackboxRegion(dev *nvm.Device) (off, size int, err error) {
	if err := checkHeader(dev); err != nil {
		return 0, 0, err
	}
	return int(dev.ReadU64(mBlackboxOff)), int(dev.ReadU64(mBlackboxSize)), nil
}

// Registry returns the klass registry this heap resolves against.
func (h *Heap) Registry() *klass.Registry { return h.reg }

// Name reports the heap's name-manager identity.
func (h *Heap) Name() string { return h.name }

// SetName sets the heap's name (used by the name manager on load).
func (h *Heap) SetName(n string) { h.name = n }

// Base reports the heap's virtual base address (the address hint).
func (h *Heap) Base() layout.Ref { return h.base }

// Limit reports one past the heap's highest virtual address.
func (h *Heap) Limit() layout.Ref { return h.base + layout.Ref(h.dev.Size()) }

// Geo returns the component geometry.
func (h *Heap) Geo() Geometry { return h.geo }

// Contains reports whether ref points into this heap's data area.
func (h *Heap) Contains(ref layout.Ref) bool {
	return ref >= h.base+layout.Ref(h.geo.DataOff) && ref < h.base+layout.Ref(h.geo.DataOff+h.geo.DataSize)
}

// ContainsImage reports whether ref points anywhere inside the heap image
// (including metadata and the Klass segment).
func (h *Heap) ContainsImage(ref layout.Ref) bool {
	return ref >= h.base && ref < h.Limit()
}

// OffOf converts a virtual address into a device offset.
func (h *Heap) OffOf(ref layout.Ref) int { return int(ref - h.base) }

// AddrOf converts a device offset into a virtual address.
func (h *Heap) AddrOf(off int) layout.Ref { return h.base + layout.Ref(off) }

// RegionTopMetaOff is the device offset of region r's persisted top word,
// for redo-log entries and crash tests.
func (h *Heap) RegionTopMetaOff(r int) int {
	return h.geo.RegionTopOff + r*layout.RegionTopStride
}

// RegionTop reports region r's current top: the volatile frontier heap
// walks, the marker's snapshot and the space accounting read (see alloc.go
// for the encoding). The persisted table entry may lie below it.
func (h *Heap) RegionTop(r int) int { return int(h.regions[r].top.Load()) }

// writeRegionTop stores region r's top word and its line checksum, writes
// the line back and moves the mirror — without a fence: the caller orders
// the line with whatever it publishes next. Value and checksum share the
// 64-byte table line, so detection costs one extra store and no flush.
func (x Access) writeRegionTop(r, top int) {
	off := x.heap.RegionTopMetaOff(r)
	x.view.WriteU64(off, uint64(top))
	x.view.WriteU64(off+8, regionTopSum(r, uint64(top)))
	x.view.Flush(off, 16)
	x.heap.regions[r].top.Store(int64(top))
}

// persistRegionTop moves region r's persisted top and its mirror, fenced.
// The caller must already have persisted every object below the new top.
func (x Access) persistRegionTop(r, top int) {
	x.writeRegionTop(r, top)
	x.view.Fence()
}

// Top reports one past the highest allocated byte across all regions —
// the successor of the paper's single top pointer, derived from the
// region-top table. Gaps below it (retired PLAB tails, fillers) count as
// used.
func (h *Heap) Top() int {
	top := h.geo.DataOff
	for r := 0; r < h.geo.DataRegions(); r++ {
		if t := int(h.regions[r].top.Load()); t > regionTopHumongousCont && t > top {
			top = t
		}
	}
	return top
}

// UsedBytes reports data-heap bytes at or below the allocation frontier
// (fillers and retired tails included).
func (h *Heap) UsedBytes() int { return h.Top() - h.geo.DataOff }

// FormatVersion reports the persisted heap format version (diagnostics;
// only the current version loads).
func (h *Heap) FormatVersion() uint64 { return h.dev.ReadU64(mVersion) }

// GlobalTS reports the persisted global GC timestamp.
func (h *Heap) GlobalTS() uint64 { return h.globalTS.Load() }

// GCActive reports whether the image is marked as mid-collection.
func (h *Heap) GCActive() bool { return h.gcActive.Load() }

func (h *Heap) persistU64(off int, v uint64) {
	h.dev.WriteU64(off, v)
	h.dev.Flush(off, 8)
	h.dev.Fence()
}

// SetGCState persists the global timestamp, its checksum and the
// GC-active flag, in that store order (timestamp first) so a partial
// persist can only yield {new TS, inactive} — a harmless no-op — never
// {old TS, active}, which would let stale timestamps masquerade as
// processed objects. The three words share a cache line: one flush.
func (h *Heap) SetGCState(ts uint64, active bool) {
	for _, e := range h.GCStateEntries(ts, active) {
		h.dev.WriteU64(e.Off, e.Val)
	}
	h.dev.Flush(mGlobalTSSum, mGCActive+8-mGlobalTSSum)
	h.dev.Fence()
	h.globalTS.Store(ts)
	h.gcActive.Store(active)
}

// GCStateEntries is SetGCState as redo-log entries, for the batch the
// collector's finish commits: the cycle ends and the allocation epoch
// moves in the same atomic step.
func (h *Heap) GCStateEntries(ts uint64, active bool) []RedoEntry {
	var a uint64
	if active {
		a = 1
	}
	return []RedoEntry{{Off: mGlobalTS, Val: ts}, {Off: mGlobalTSSum, Val: globalTSSum(ts)}, {Off: mGCActive, Val: a}}
}

// GlobalTSMetaOff exposes the metadata offset of the global timestamp for
// fault-injection tests (its checksum is the word before it).
func (h *Heap) GlobalTSMetaOff() int { return mGlobalTS }

// GCActiveMetaOff exposes the metadata offset of the gcActive flag for
// redo-log entries.
func (h *Heap) GCActiveMetaOff() int { return mGCActive }

// TryBeginCollection claims the heap's single-collector slot, reporting
// false if another collection (or recovery) is already running in this
// process. Pair with EndCollection.
func (h *Heap) TryBeginCollection() bool { return h.collecting.CompareAndSwap(false, true) }

// EndCollection releases the single-collector slot.
func (h *Heap) EndCollection() { h.collecting.Store(false) }

// CollectorScratch is the slot a collector keeps its buffers in between
// cycles of this heap, nil before the first. The caller holds the
// single-collector slot (TryBeginCollection).
func (h *Heap) CollectorScratch() *any { return &h.collectorScratch }

// SnapshotRegionTops copies the current region-top table mirrors — the
// boundary below which the marker finds objects. Entries keep the
// table's raw encoding (0 untouched, 1 humongous interior, otherwise a
// parse limit); IsRealTop distinguishes them. Callers take the snapshot
// with the world stopped.
func (h *Heap) SnapshotRegionTops() []int {
	tops := make([]int, len(h.regions))
	for i := range tops {
		tops[i] = int(h.regions[i].top.Load())
	}
	return tops
}

// IsRealTop reports whether a region-top table value is a parse limit
// (as opposed to the untouched or humongous-interior sentinels).
func IsRealTop(top int) bool { return top > regionTopHumongousCont }

// PrepareForCollection is the mutator-state side of the GC safepoint:
// every attached PLAB's deferred header is settled and its region top
// persisted — the bump path moves only the mirror, and from the moment a
// cycle is stamped the table is what recovery's summary reads, with no
// forward parse to fall back on (the compactor owns the timestamp
// mid-cycle) — then every registered
// allocator's PLAB and recycled hole is dropped, the dispenser forgets its
// free list (the collector is about to rearrange the heap and republish
// region tops through the redo log), and every pending remembered-set
// delta is published through the heap's sink, so the collector that is
// about to run (either flavor; both call this first) observes a complete
// NVM→DRAM remembered set. The world must be stopped, as for the
// collection itself.
func (h *Heap) PrepareForCollection() {
	h.PublishRemsetDeltas()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.persistOpenTops()
	for _, a := range h.allocators {
		a.dropBuffersForGC()
	}
	h.freeRegions = nil
	h.freeHoles = nil
	h.holeCount.Store(0)
}

// PersistTops makes the persisted region-top table exact: the deferred
// header of every attached PLAB is settled and its top written back,
// after which a reload parses nothing forward. It is the heap's part of
// an orderly shutdown (core.Runtime.Close); the allocators stay attached
// and usable. No mutator may be allocating.
func (h *Heap) PersistTops() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.persistOpenTops()
}

// persistOpenTops writes back the top of every PLAB whose owner has bumped
// past the persisted word: one line each, one fence for all. The deferred
// headers of those PLABs are settled first, under a fence of their own, so
// no top is persisted above a header that is not durable. Caller holds
// h.mu with the allocators quiescent.
func (h *Heap) persistOpenTops() {
	var seen []coveredHeader
	for _, a := range h.allocators {
		if a.region >= 0 {
			if w := h.regions[a.region].deferred.Load(); w != 0 {
				off, n := headerSpan(w)
				h.dev.Flush(off, n)
				seen = append(seen, coveredHeader{a.region, w})
			}
		}
	}
	if len(seen) > 0 {
		h.dev.Fence()
		for _, c := range seen {
			h.clearCovered(c)
		}
	}
	stale := false
	for _, a := range h.allocators {
		if a.region >= 0 && a.cur != a.durableTop {
			h.writeRegionTop(a.region, a.cur)
			a.durableTop = a.cur
			stale = true
		}
	}
	if stale {
		h.dev.Fence()
	}
}

// RefreshAfterRedo re-reads the volatile mirrors of redo-applied fields
// and rebuilds the region dispenser from the republished top table. The
// GC's finish step calls it after applying the metadata redo batch.
func (h *Heap) RefreshAfterRedo() {
	h.gcActive.Store(h.dev.ReadU64(mGCActive) != 0)
	h.globalTS.Store(h.dev.ReadU64(mGlobalTS))
	h.rebuildRegionState(false)
	h.layoutEpoch.Add(1)
}

// LayoutEpoch reports the heap's move-event counter: it advances
// whenever a collection finishes or the heap rebases — the only times
// an object's address can change. A reference cached together with the
// epoch is still valid while the epoch matches and the caller is inside
// a safepoint interval.
func (h *Heap) LayoutEpoch() uint64 { return h.layoutEpoch.Load() }

// BumpLayoutEpoch invalidates cached references (Rebase calls it).
func (h *Heap) BumpLayoutEpoch() { h.layoutEpoch.Add(1) }

// rebuildRegionState re-derives the volatile region mirrors and the
// dispenser's free list from the persisted region-top table. With plug
// set (load of a clean image), half-open PLAB regions — top inside the
// region — are recovered and sealed: the frontier is found by parsing
// forward from the persisted top (recoverFrontier), the tail behind it is
// plugged with a persisted filler and the top advanced to the region end,
// so a region recovered from a crash parses completely, holds every
// object a durable word names, and carries no dangling bump state. A
// region that was opened and holds nothing stays as it is.
func (h *Heap) rebuildRegionState(plug bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	dataRegions := h.geo.DataRegions()
	h.freeRegions = h.freeRegions[:0]
	h.frontier = 0
	h.recovered = nil
	for r := 0; r < h.geo.Regions(); r++ {
		start := h.geo.DataOff + r*layout.RegionSize
		end := start + layout.RegionSize
		t := int(h.dev.ReadU64(h.RegionTopMetaOff(r)))
		if plug && r < dataRegions && t >= start && t < end {
			at := h.recoverFrontier(t, end)
			h.recovered = append(h.recovered, RecoveredRegion{Region: r, Top: t, Frontier: at})
			if at > start {
				h.fillGapRaw(at, end-at)
				h.persistRegionTop(r, end)
				t = end
			}
		}
		h.regions[r].top.Store(int64(t))
		if r < dataRegions && t != 0 {
			h.frontier = r + 1
		}
	}
	for r := 0; r < h.frontier; r++ {
		start := h.geo.DataOff + r*layout.RegionSize
		t := int(h.regions[r].top.Load())
		// Dispensable: fully free regions and partial regions with bump
		// headroom. Sentinel (humongous interior) and overlong tops
		// (humongous heads) are excluded.
		if t == 0 || (t > regionTopHumongousCont && t < start+layout.RegionSize) {
			h.freeRegions = append(h.freeRegions, r)
		}
	}
}

// RecoveredRegion is what Load found in one half-open region: the
// persisted top it started from and the frontier the forward parse
// reached (Frontier - Top bytes validated above the top).
type RecoveredRegion struct{ Region, Top, Frontier int }

// RecoveredRegions lists the half-open regions this Load recovered, in
// region order (nil after a collection has rebuilt the region state).
func (h *Heap) RecoveredRegions() []RecoveredRegion { return h.recovered }

// recoverFrontier parses [top, end) of a half-open region forward and
// returns where the run of this epoch's allocations stops: a header
// validates when its mark-word timestamp is the image's allocation epoch,
// its klass word addresses a record of the Klass segment, and its size
// fits the region. Every object a durable word names lies in that run —
// its header, and every header before it in its PLAB, was durable before
// the word was (alloc.go) — and nothing older can pass for part of it: the
// epoch is never a collection's stamp (pgc's finish publishes the next
// one), and a region is only dispensed again after a collection. What may
// be accepted beyond the last named object is a torn one (header line in,
// a later line out): no durable word names it, and the next collection
// takes it. Cost: up to three reads per object found.
func (h *Heap) recoverFrontier(top, end int) int {
	epoch := h.globalTS.Load()
	off := top
	for off+layout.HeaderBytes <= end {
		if layout.MarkTimestamp(h.dev.ReadU64(off+layout.MarkWordOff)) != epoch {
			break
		}
		k, ok := h.KlassByAddr(layout.Ref(h.dev.ReadU64(off + layout.KlassWordOff)))
		if !ok {
			break
		}
		n := 0
		if k.IsArray() {
			if off+layout.ArrayHdrBytes > end {
				break
			}
			// Bounded before it is multiplied: a length that cannot fit
			// must not wrap into a size that does.
			if n = int(h.dev.ReadU64(off + layout.ArrayLenOff)); n < 0 || n > end-off {
				break
			}
		}
		size := k.SizeOf(n)
		if size < layout.MinObjectBytes || size > end-off {
			break
		}
		off += size
	}
	return off
}

// Hole is a filler-covered gap below a region's top, reusable by the
// allocator. A hole never crosses a region boundary.
type Hole struct{ Lo, Hi int }

// SetFreeHoles installs the collector's list of reusable gaps (ascending,
// each fully covered by fillers, none crossing a region boundary). The
// list is volatile bookkeeping: losing it costs reuse until the next GC,
// never correctness.
func (h *Heap) SetFreeHoles(holes []Hole) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.freeHoles = append([]Hole(nil), holes...)
	h.holeCount.Store(int64(len(h.freeHoles)))
}

// ResetFreeHoles drops the recycling state; the collector calls it before
// it starts rearranging the heap.
func (h *Heap) ResetFreeHoles() { h.SetFreeHoles(nil) }

// FreeBytes estimates the allocatable capacity: untouched frontier
// regions, headroom in dispensable regions, and recycled holes. Space
// inside currently attached PLABs counts as allocated.
func (h *Heap) FreeBytes() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	free := (h.geo.DataRegions() - h.frontier) * layout.RegionSize
	for _, r := range h.freeRegions {
		start := h.geo.DataOff + r*layout.RegionSize
		t := int(h.regions[r].top.Load())
		if t <= regionTopHumongousCont {
			t = start
		}
		free += start + layout.RegionSize - t
	}
	for _, hole := range h.freeHoles {
		free += hole.Hi - hole.Lo
	}
	return free
}
