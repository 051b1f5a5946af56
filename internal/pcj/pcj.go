package pcj

import (
	"encoding/binary"
	"fmt"
	"sync"

	"espresso/internal/bench"
	"espresso/internal/nvm"
)

// Object layout (data offsets within an allocation):
//
//	+0  refcount u64
//	+8  refMask  u64 (bit i set → field i holds an object reference)
//	+16 fieldCount u64
//	+24 typeNameLen u64
//	+32 typeName bytes, 8-aligned   ← the "type information memorization"
//	+.. fieldCount × u64 field slots
//
// PCJ objects carry their full type descriptor because they live outside
// any JVM heap: there is no Klass pointer to share, so every allocation
// writes (and flushes) its own metadata — the dominant cost in the
// paper's Figure 6.
const (
	oRefcount = 0
	oRefMask  = 8
	oFieldCnt = 16
	oTypeLen  = 24
	oTypeName = 32
)

// Obj is a handle to a native PCJ object (its data offset). The zero Obj
// is null.
type Obj int

// Heap is an off-heap PCJ world on its own NVM device, with an NVML-style
// transaction lock and log and a persistent object directory for the
// reference-counting collector.
type Heap struct {
	mu    sync.Mutex
	dev   *nvm.Device
	alloc *allocator

	// NVML-ish undo log: fixed region carved out of the device.
	logOff, logCap int

	// Object directory: open-addressing table of object offsets,
	// updated (and flushed) on every create and free.
	dirOff, dirCap int

	prof *bench.Breakdown

	// scratch is txAddRange's reusable log-assembly buffer (guarded by
	// mu, like the log itself).
	scratch []byte

	liveObjects int
}

// Config sizes a PCJ heap.
type Config struct {
	Size int
	Mode nvm.Mode
}

// New creates a PCJ heap.
func New(cfg Config) *Heap {
	if cfg.Size == 0 {
		cfg.Size = 64 << 20
	}
	dev := nvm.New(nvm.Config{Size: cfg.Size, Mode: cfg.Mode})
	h := &Heap{dev: dev}
	h.alloc = newAllocator(dev)
	var err error
	h.logCap = 1024
	logBytes := 16 + h.logCap*16
	h.logOff, err = h.alloc.alloc(logBytes)
	if err != nil {
		panic(err)
	}
	h.dirCap = 1 << 16
	h.dirOff, err = h.alloc.alloc(h.dirCap * 8)
	if err != nil {
		panic(err)
	}
	dev.Zero(h.logOff, logBytes)
	dev.Zero(h.dirOff, h.dirCap*8)
	dev.FlushAll()
	return h
}

// Device exposes the backing device for stats.
func (h *Heap) Device() *nvm.Device { return h.dev }

// SetProfile installs a phase breakdown recorder (Figure 6). Pass nil to
// stop profiling.
func (h *Heap) SetProfile(b *bench.Breakdown) { h.prof = b }

// LiveObjects reports the number of allocated, unfreed objects.
func (h *Heap) LiveObjects() int { return h.liveObjects }

// FreeBytes reports the allocator's free space.
func (h *Heap) FreeBytes() int { return h.alloc.freeBytes() }

// phase times a breakdown phase, charging both wall time and the modelled
// NVM cost of the lines the phase flushed (the paper measures on real
// NVDIMMs, where the flush traffic *is* the cost; our wall clock alone
// would mostly measure instrumentation), so device cost, not Go timer
// overhead, determines the Figure 6 split.
func (h *Heap) phase(name string) func() {
	if h.prof == nil {
		return func() {}
	}
	before := h.dev.Stats()
	stop := h.prof.Phase(name)
	return func() {
		stop()
		h.prof.Add(name, h.dev.Stats().Sub(before).ModeledFlushTime())
	}
}

// --- NVML-style transactions ---
//
// Every public operation runs under the global lock with an undo log:
// begin persists the log state, each store logs the old word first, and
// commit flushes the data then retires the log. This is the
// "synchronization primitives and logging" cost of §2.2.

func (h *Heap) txBegin() {
	h.dev.WriteU64(h.logOff+8, 0) // count
	h.dev.WriteU64(h.logOff, 1)   // active
	h.dev.Flush(h.logOff, 16)
	h.dev.Fence()
}

func (h *Heap) txWrite(off int, v uint64) {
	count := int(h.dev.ReadU64(h.logOff + 8))
	if count < h.logCap {
		e := h.logOff + 16 + count*16
		h.dev.WriteU64(e, uint64(off))
		h.dev.WriteU64(e+8, h.dev.ReadU64(off))
		h.dev.Flush(e, 16)
		h.dev.WriteU64(h.logOff+8, uint64(count+1))
		h.dev.Flush(h.logOff+8, 8)
		h.dev.Fence()
	}
	h.dev.WriteU64(off, v)
	h.dev.Flush(off, 8)
}

// txAddRange logs a before-image of [off, off+n), the snapshot
// libpmemobj takes before a transactional store to the range. The old
// words are fetched with one bulk read and the log entries appended with
// one bulk write; the flush traffic (the real NVM cost) is unchanged.
func (h *Heap) txAddRange(off, n int) {
	count := int(h.dev.ReadU64(h.logOff + 8))
	words := (n + 7) / 8
	if words > h.logCap-count {
		words = h.logCap - count
	}
	if words > 0 {
		if cap(h.scratch) < words*24 {
			h.scratch = make([]byte, words*24)
		}
		old := h.scratch[:words*8]
		ent := h.scratch[words*8 : words*8+words*16]
		h.dev.ReadBytes(off, old)
		for w := 0; w < words; w++ {
			binary.LittleEndian.PutUint64(ent[w*16:], uint64(off+w*8))
			copy(ent[w*16+8:w*16+16], old[w*8:])
		}
		h.dev.WriteBytes(h.logOff+16+count*16, ent)
		count += words
	}
	h.dev.Flush(h.logOff+16, count*16)
	h.dev.WriteU64(h.logOff+8, uint64(count))
	h.dev.Flush(h.logOff+8, 8)
	h.dev.Fence()
}

func (h *Heap) txCommit() {
	h.dev.Fence()
	h.dev.WriteU64(h.logOff, 0)
	h.dev.Flush(h.logOff, 8)
	h.dev.Fence()
}

// --- Object plumbing ---

func (h *Heap) typeNamePad(name string) int { return align8(len(name)) }

func (h *Heap) fieldOff(o Obj, i int) int {
	tl := int(h.dev.ReadU64(int(o) + oTypeLen))
	return int(o) + oTypeName + align8(tl) + i*8
}

// create allocates and initializes a PCJ object, charging each phase of
// Figure 6 as it happens.
func (h *Heap) create(typeName string, refMask uint64, fields []uint64) (Obj, error) {
	stopTx := h.phase("Transaction")
	h.txBegin()
	stopTx()

	stopAlloc := h.phase("Allocation")
	size := oTypeName + h.typeNamePad(typeName) + len(fields)*8
	off, err := h.alloc.alloc(size)
	stopAlloc()
	if err != nil {
		h.txCommit()
		return 0, err
	}

	// Metadata: memorize the type descriptor in the object itself. NVML
	// logs object initialization like any other store, so every header
	// word goes through the undo log — this, plus the per-object type
	// name, is what makes metadata the dominant cost of a PCJ create
	// (paper §2.2: 36.8%, "most of which is caused by type information
	// memorization"; a JVM heap does one pointer store instead).
	stopMeta := h.phase("Metadata")
	h.txWrite(off+oRefMask, refMask)
	h.txWrite(off+oFieldCnt, uint64(len(fields)))
	h.txWrite(off+oTypeLen, uint64(len(typeName)))
	h.dev.WriteBytes(off+oTypeName, []byte(typeName))
	h.dev.Flush(off+oTypeName, h.typeNamePad(typeName))
	h.dev.Fence()
	stopMeta()

	// GC: initialize the reference count and register the object in the
	// persistent directory.
	stopGC := h.phase("GC")
	h.txWrite(off+oRefcount, 1)
	h.dirInsert(off)
	h.liveObjects++
	stopGC()

	// Data: the payload the caller actually wanted stored.
	stopData := h.phase("Data")
	fieldBase := off + oTypeName + h.typeNamePad(typeName)
	for i, v := range fields {
		h.txWrite(fieldBase+i*8, v)
		if isRefField(refMask, i) && v != 0 {
			h.incRef(Obj(v))
		}
	}
	stopData()

	stopTx2 := h.phase("Transaction")
	h.txCommit()
	stopTx2()
	return Obj(off), nil
}

// TypeNameOf reads an object's memorized type descriptor.
func (h *Heap) TypeNameOf(o Obj) string {
	n := int(h.dev.ReadU64(int(o) + oTypeLen))
	return string(h.dev.View(int(o)+oTypeName, n))
}

func (h *Heap) dirSlot(off int) int {
	x := uint64(off)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x % uint64(h.dirCap))
}

func (h *Heap) dirInsert(off int) {
	s := h.dirSlot(off)
	for i := 0; i < h.dirCap; i++ {
		p := h.dirOff + ((s+i)%h.dirCap)*8
		v := h.dev.ReadU64(p)
		if v == 0 || v == ^uint64(0) {
			h.txWrite(p, uint64(off))
			return
		}
	}
	panic("pcj: object directory full")
}

func (h *Heap) dirRemove(off int) {
	s := h.dirSlot(off)
	for i := 0; i < h.dirCap; i++ {
		p := h.dirOff + ((s+i)%h.dirCap)*8
		v := h.dev.ReadU64(p)
		if v == 0 {
			return
		}
		if v == uint64(off) {
			h.txWrite(p, ^uint64(0)) // tombstone
			return
		}
	}
}

// --- Reference counting ---

func (h *Heap) incRef(o Obj) {
	if o == 0 {
		return
	}
	h.txWrite(int(o)+oRefcount, h.dev.ReadU64(int(o)+oRefcount)+1)
}

func (h *Heap) decRef(o Obj) {
	if o == 0 {
		return
	}
	rc := h.dev.ReadU64(int(o) + oRefcount)
	if rc == 0 {
		return // already dead (defensive)
	}
	rc--
	h.txWrite(int(o)+oRefcount, rc)
	if rc == 0 {
		h.freeObject(o)
	}
}

func (h *Heap) freeObject(o Obj) {
	mask := h.dev.ReadU64(int(o) + oRefMask)
	n := int(h.dev.ReadU64(int(o) + oFieldCnt))
	for i := 0; i < n; i++ {
		if isRefField(mask, i) {
			child := Obj(h.dev.ReadU64(h.fieldOff(o, i)))
			h.decRef(child)
		}
	}
	h.dirRemove(int(o))
	h.alloc.free(int(o))
	h.liveObjects--
}

// Release drops the caller's reference to o (handles are counted like any
// other reference; dropping the last one frees the object).
func (h *Heap) Release(o Obj) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.txBegin()
	h.decRef(o)
	h.txCommit()
}

// refMaskAll marks every field after field 0 as a reference (the array
// layout, whose element count exceeds the 64 bits of an explicit mask).
const refMaskAll = ^uint64(0)

func isRefField(mask uint64, i int) bool {
	if mask == refMaskAll {
		return i >= 1
	}
	return i < 64 && mask&(1<<uint(i)) != 0
}

// checkType performs the per-access metadata validation PCJ does on every
// operation: locate the object's type descriptor and walk its name (the
// library dispatches through ObjectType metadata since there is no JVM
// klass word to trust). This is part of the "non-trivial management
// overhead" of §2.2 — a JVM heap does none of it on a field access.
func (h *Heap) checkType(o Obj) {
	n := int(h.dev.ReadU64(int(o) + oTypeLen))
	// One bulk read of the descriptor instead of a per-byte device loop;
	// the modelled validation work (the name walk) is unchanged.
	var nameBuf [64]byte
	b := nameBuf[:]
	if n > len(b) {
		b = make([]byte, n)
	}
	h.dev.ReadBytes(int(o)+oTypeName, b[:n])
	var hash uint64 = 14695981039346656037
	for i := 0; i < n; i++ {
		hash ^= uint64(b[i])
		hash *= 1099511628211
	}
	_ = hash
}

// objectBytes is the object's full extent (header + type name + fields).
func (h *Heap) objectBytes(o Obj) int {
	tl := int(h.dev.ReadU64(int(o) + oTypeLen))
	n := int(h.dev.ReadU64(int(o) + oFieldCnt))
	return oTypeName + align8(tl) + n*8
}

// getField reads field i; setField stores it transactionally with
// refcount maintenance when the field is a reference.
func (h *Heap) getField(o Obj, i int) uint64 {
	h.checkType(o)
	return h.dev.ReadU64(h.fieldOff(o, i))
}

func (h *Heap) setField(o Obj, i int, v uint64) {
	stopTx := h.phase("Transaction")
	h.txBegin()
	h.checkType(o)
	// NVML transactions snapshot whole ranges (TX_ADD on the object), not
	// individual words: log and flush the object's full extent.
	h.txAddRange(int(o), h.objectBytes(o))
	stopTx()
	mask := h.dev.ReadU64(int(o) + oRefMask)
	if isRefField(mask, i) {
		stopGC := h.phase("GC")
		old := Obj(h.getField(o, i))
		if Obj(v) != old {
			h.incRef(Obj(v))
			h.decRef(old)
		}
		stopGC()
	}
	stopData := h.phase("Data")
	h.txWrite(h.fieldOff(o, i), v)
	stopData()
	stopTx2 := h.phase("Transaction")
	h.txCommit()
	stopTx2()
}

// --- Public persistent types (PersistentObject subclasses) ---

// NewLong allocates a PersistentLong.
func (h *Heap) NewLong(v int64) (Obj, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.create("lib.util.persistent.PersistentLong", 0, []uint64{uint64(v)})
}

// LongValue reads a PersistentLong.
func (h *Heap) LongValue(o Obj) int64 { return int64(h.getField(o, 0)) }

// SetLongValue updates a PersistentLong.
func (h *Heap) SetLongValue(o Obj, v int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.setField(o, 0, uint64(v))
}

// NewInteger allocates a PersistentInteger.
func (h *Heap) NewInteger(v int32) (Obj, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.create("lib.util.persistent.PersistentInteger", 0, []uint64{uint64(uint32(v))})
}

// IntValue reads a PersistentInteger.
func (h *Heap) IntValue(o Obj) int32 { return int32(uint32(h.getField(o, 0))) }

// NewString allocates a PersistentString. The bytes are stored in a
// second native allocation referenced by the header object.
func (h *Heap) NewString(s string) (Obj, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.txBegin()
	stopAlloc := h.phase("Allocation")
	raw, err := h.alloc.alloc(8 + len(s))
	stopAlloc()
	if err != nil {
		h.txCommit()
		return 0, err
	}
	h.dev.WriteU64(raw, uint64(len(s)))
	h.dev.WriteBytes(raw+8, []byte(s))
	h.dev.Flush(raw, 8+len(s))
	h.txCommit()
	return h.create("lib.util.persistent.PersistentString", 0, []uint64{uint64(raw)})
}

// StringValue reads a PersistentString.
func (h *Heap) StringValue(o Obj) string {
	raw := int(h.getField(o, 0))
	n := int(h.dev.ReadU64(raw))
	return string(h.dev.View(raw+8, n))
}

// NewTuple allocates an N-ary PersistentTuple of object references.
func (h *Heap) NewTuple(elems ...Obj) (Obj, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fields := make([]uint64, len(elems))
	var mask uint64
	for i, e := range elems {
		fields[i] = uint64(e)
		mask |= 1 << uint(i)
	}
	return h.create(fmt.Sprintf("lib.util.persistent.PersistentTuple%d", len(elems)), mask, fields)
}

// TupleGet reads tuple slot i.
func (h *Heap) TupleGet(o Obj, i int) Obj { return Obj(h.getField(o, i)) }

// TupleSet writes tuple slot i.
func (h *Heap) TupleSet(o Obj, i int, v Obj) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.setField(o, i, uint64(v))
}

// NewArray allocates a generic PersistentArray of n reference slots.
// Slot 0 holds the length; elements follow.
func (h *Heap) NewArray(n int) (Obj, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fields := make([]uint64, n+1)
	fields[0] = uint64(n)
	return h.create("lib.util.persistent.PersistentArray", refMaskAll, fields)
}

// ArrayLen reads an array's length.
func (h *Heap) ArrayLen(o Obj) int { return int(h.getField(o, 0)) }

// ArrayGet reads element i.
func (h *Heap) ArrayGet(o Obj, i int) Obj { return Obj(h.getField(o, i+1)) }

// ArraySet writes element i.
func (h *Heap) ArraySet(o Obj, i int, v Obj) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.setField(o, i+1, uint64(v))
}

// --- PersistentArrayList ---
//
// Layout: field 0 = size, field 1 = backing PersistentArray.

// NewList allocates a PersistentArrayList.
func (h *Heap) NewList() (Obj, error) {
	arr, err := h.NewArray(8)
	if err != nil {
		return 0, err
	}
	h.mu.Lock()
	list, err := h.create("lib.util.persistent.PersistentArrayList", 1<<1, []uint64{0, uint64(arr)})
	h.mu.Unlock()
	if err != nil {
		return 0, err
	}
	h.Release(arr) // the list owns the backing array now
	return list, nil
}

// ListLen reads the element count.
func (h *Heap) ListLen(o Obj) int { return int(h.getField(o, 0)) }

// ListAdd appends v.
func (h *Heap) ListAdd(o Obj, v Obj) error {
	size := h.ListLen(o)
	arr := Obj(h.getField(o, 1))
	if size == h.ArrayLen(arr) {
		bigger, err := h.NewArray(size * 2)
		if err != nil {
			return err
		}
		for i := 0; i < size; i++ {
			h.ArraySet(bigger, i, h.ArrayGet(arr, i))
		}
		h.mu.Lock()
		h.setField(o, 1, uint64(bigger))
		h.mu.Unlock()
		h.Release(bigger) // the list now owns it
		arr = bigger
	}
	h.ArraySet(arr, size, v)
	h.mu.Lock()
	h.setField(o, 0, uint64(size+1))
	h.mu.Unlock()
	return nil
}

// ListGet reads element i.
func (h *Heap) ListGet(o Obj, i int) Obj {
	arr := Obj(h.getField(o, 1))
	return h.ArrayGet(arr, i)
}

// ListSet overwrites element i.
func (h *Heap) ListSet(o Obj, i int, v Obj) {
	arr := Obj(h.getField(o, 1))
	h.ArraySet(arr, i, v)
}

// --- PersistentHashMap (int64 keys → Obj values) ---
//
// Header: field 0 = size, field 1 = bucket PersistentArray. Entries are
// 4-field objects: key (raw), value (ref), next (ref), hash (raw).

const mapBuckets = 64

// NewMap allocates a PersistentHashMap.
func (h *Heap) NewMap() (Obj, error) {
	arr, err := h.NewArray(mapBuckets)
	if err != nil {
		return 0, err
	}
	h.mu.Lock()
	m, err := h.create("lib.util.persistent.PersistentHashMap", 1<<1, []uint64{0, uint64(arr)})
	h.mu.Unlock()
	if err != nil {
		return 0, err
	}
	h.Release(arr) // the map owns the bucket array now
	return m, nil
}

func pcjMix(k int64) uint64 {
	x := uint64(k)
	x ^= x >> 31
	x *= 0x7fb5d329728ea185
	x ^= x >> 27
	return x
}

// MapPut inserts or updates key → value.
func (h *Heap) MapPut(m Obj, key int64, value Obj) error {
	arr := Obj(h.getField(m, 1))
	slot := int(pcjMix(key) % mapBuckets)
	head := h.ArrayGet(arr, slot)
	for e := head; e != 0; e = Obj(h.getField(e, 2)) {
		if int64(h.getField(e, 0)) == key {
			h.mu.Lock()
			h.setField(e, 1, uint64(value))
			h.mu.Unlock()
			return nil
		}
	}
	h.mu.Lock()
	entry, err := h.create("lib.util.persistent.PersistentHashMap$Entry",
		(1<<1)|(1<<2), []uint64{uint64(key), uint64(value), uint64(head), pcjMix(key)})
	h.mu.Unlock()
	if err != nil {
		return err
	}
	h.ArraySet(arr, slot, entry)
	h.Release(entry) // the bucket chain owns it now
	h.mu.Lock()
	h.setField(m, 0, h.getField(m, 0)+1)
	h.mu.Unlock()
	return nil
}

// MapGet looks up a key.
func (h *Heap) MapGet(m Obj, key int64) (Obj, bool) {
	arr := Obj(h.getField(m, 1))
	slot := int(pcjMix(key) % mapBuckets)
	for e := h.ArrayGet(arr, slot); e != 0; e = Obj(h.getField(e, 2)) {
		if int64(h.getField(e, 0)) == key {
			return Obj(h.getField(e, 1)), true
		}
	}
	return 0, false
}

// MapLen reads the entry count.
func (h *Heap) MapLen(m Obj) int { return int(h.getField(m, 0)) }
