// Package ptx provides undo-log ACID transactions over persistent-heap
// objects — the "simple undo log" the paper adds to its PJH collections
// for a fair comparison with PCJ's always-transactional operations (§6.2),
// and the building block PJO's providers can use for their own protocols.
//
// The log lives in the heap itself (a persistent long array reachable from
// a reserved root), so an interrupted transaction is rolled back by
// recovery on the next load:
//
//	log layout: [0]=committedFlag (0 active, 1 idle), [1]=entryCount,
//	            then entryCount × (slotAddress, oldValue)
//
// Write protocol per mutated word: append (addr, old) to the log, flush
// the entry, fence, bump and flush the count, then perform the store.
// Commit flushes the mutated words, fences, and resets the count.
//
// Primitive stores (WriteWord) write heap words directly; reference
// stores go through WriteRefWord, which is pheap's reference-store
// barrier on the heap's ownerless context (pheap.Heap.Ownerless): the
// pre-write record and card mark while a concurrent mark runs, a single
// atomic machine store, and — when the heap is attached to a runtime
// (pheap.RemsetSink) — a remembered-set delta. So ptx transactions, and
// the legacy pcollections built on them, stay correct while
// pgc.CollectConcurrent marks, and the runtime's NVM→DRAM remembered set
// sees their edges: the ownerless context is drained at every GC
// safepoint like any other, so a collection mid-transaction sees every
// edge already on the device, and Commit, the transaction's durable
// publication point, publishes whatever the safepoints have not already
// taken. Abort sends every reference slot it restores through the same
// barrier — the value being rolled back over is one the marker could
// otherwise lose, and the restoring store's delta corrects the forward
// one — and publishes too; publication re-derives membership from the
// restored slot values, so the shared set leaves Abort exactly as it was
// before the transaction.
package ptx

import (
	"fmt"
	"sync"

	"espresso/internal/layout"
	"espresso/internal/pheap"
)

// LogRootName is the reserved root under which each heap's transaction
// log array is registered.
const LogRootName = "espresso/ptx-log"

// DefaultLogEntries bounds the number of word-writes per transaction.
const DefaultLogEntries = 4096

// Manager owns the transaction log of one heap. Transactions are globally
// serialized (PCJ behaves the same way: one fat lock).
type Manager struct {
	mu  sync.Mutex
	h   *pheap.Heap
	log layout.Ref // persistent long array
	cap int
}

// NewManager creates (or re-attaches to) the heap's transaction log and
// rolls back any transaction that was active when the heap last persisted.
func NewManager(h *pheap.Heap) (*Manager, error) {
	m := &Manager{h: h, cap: DefaultLogEntries}
	if ref, ok := h.GetRoot(LogRootName); ok {
		m.log = ref
		if err := m.recover(); err != nil {
			return nil, err
		}
		return m, nil
	}
	arr, err := h.Alloc(h.Registry().PrimArray(layout.FTLong), 2+2*m.cap)
	if err != nil {
		return nil, fmt.Errorf("ptx: allocating log: %w", err)
	}
	m.log = arr
	m.logStore(0, 1) // idle
	m.logStore(1, 0)
	h.FlushRange(arr, 0, 2*layout.WordSize+layout.ArrayHdrBytes)
	if err := h.SetRoot(LogRootName, arr); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *Manager) logStore(i int, v uint64) {
	m.h.SetWord(m.log, layout.ElemOff(layout.FTLong, i), v)
}

func (m *Manager) logLoad(i int) uint64 {
	return m.h.GetWord(m.log, layout.ElemOff(layout.FTLong, i))
}

func (m *Manager) flushLogWords(i, n int) {
	m.h.FlushRange(m.log, layout.ElemOff(layout.FTLong, i), n*layout.WordSize)
}

// recover rolls back a transaction that did not commit before the crash.
func (m *Manager) recover() error {
	if m.logLoad(0) == 1 {
		return nil // idle: nothing to do
	}
	count := int(m.logLoad(1))
	for i := count - 1; i >= 0; i-- {
		addr := layout.Ref(m.logLoad(2 + 2*i))
		old := m.logLoad(2 + 2*i + 1)
		off := m.h.OffOf(addr)
		m.h.Device().WriteU64(off, old)
		m.h.Device().Flush(off, 8)
	}
	m.h.Device().Fence()
	m.logStore(1, 0)
	m.logStore(0, 1)
	m.flushLogWords(0, 2)
	return nil
}

// Tx is one open transaction.
type Tx struct {
	m       *Manager
	touched []layout.Ref // slot addresses to flush on commit
	isRef   []bool       // parallel to the log: entry restores a reference slot
	objs    []layout.Ref // parallel: owning object (the barrier's card target)
	closed  bool
}

// Begin opens a transaction, taking the global lock.
func (m *Manager) Begin() *Tx {
	m.mu.Lock()
	m.logStore(1, 0)
	m.logStore(0, 0) // active
	m.flushLogWords(0, 2)
	return &Tx{m: m}
}

// WriteWord performs a logged store of the 8-byte slot at byte offset
// boff of the persistent object at obj. For reference slots use
// WriteRefWord, which adds the concurrent collector's write barrier.
func (tx *Tx) WriteWord(obj layout.Ref, boff int, val uint64) error {
	return tx.write(obj, boff, val, false)
}

// WriteRefWord is WriteWord for reference slots: the store goes through
// the reference-store barrier, so the concurrent marker never loses a
// snapshot-reachable object to a transactional overwrite and never reads
// a torn slot, and the remembered set learns of a volatile val.
func (tx *Tx) WriteRefWord(obj layout.Ref, boff int, val layout.Ref) error {
	return tx.write(obj, boff, uint64(val), true)
}

func (tx *Tx) write(obj layout.Ref, boff int, val uint64, isRef bool) error {
	m := tx.m
	count := int(m.logLoad(1))
	if count >= m.cap {
		return fmt.Errorf("ptx: transaction log full (%d entries)", m.cap)
	}
	slot := obj + layout.Ref(boff)
	old := m.h.GetWord(obj, boff)
	m.logStore(2+2*count, uint64(slot))
	m.logStore(2+2*count+1, old)
	m.logStore(1, uint64(count+1))
	// The count word and the entry often share a cache line; one flush
	// covering both halves the log's persist cost (the kind of Java-side
	// transaction-library optimization §2.2 anticipates). Ordering within
	// a line is preserved by the line-granular persistence model.
	m.flushLogWordSpan(1, 2+2*count+1)
	if isRef {
		// The barrier's pre-write half runs over the value just logged.
		m.h.Ownerless().StoreRefOver(obj, boff, old, layout.Ref(val), m.h.RefIsVolatile(layout.Ref(val)))
	} else {
		m.h.SetWord(obj, boff, val)
	}
	tx.touched = append(tx.touched, slot)
	tx.isRef = append(tx.isRef, isRef)
	tx.objs = append(tx.objs, obj)
	return nil
}

// flushLogWordSpan persists log words [lo, hi] with one flush call.
func (m *Manager) flushLogWordSpan(lo, hi int) {
	m.h.FlushRange(m.log, layout.ElemOff(layout.FTLong, lo), (hi-lo+1)*layout.WordSize)
}

// Commit flushes the transaction's stores, retires the log, and
// publishes the transaction's remembered-set deltas — the durable commit
// is the write-combining barrier's transaction-level publication point.
// (A GC safepoint mid-transaction may already have drained some; the
// re-derivation at publication makes the double coverage harmless.)
func (tx *Tx) Commit() {
	m := tx.m
	for _, slot := range tx.touched {
		off := m.h.OffOf(slot)
		m.h.Device().Flush(off, 8)
	}
	m.h.Device().Fence()
	m.logStore(1, 0)
	m.logStore(0, 1)
	m.flushLogWords(0, 2)
	m.h.Ownerless().PublishRemsetDeltas()
	tx.closed = true
	m.mu.Unlock()
}

// Abort rolls the transaction back. Restored reference slots go through
// the reference-store barrier like the forward stores did (see the
// package comment), the rest are plain stores.
func (tx *Tx) Abort() {
	m := tx.m
	count := int(m.logLoad(1))
	for i := count - 1; i >= 0; i-- {
		addr := layout.Ref(m.logLoad(2 + 2*i))
		old := m.logLoad(2 + 2*i + 1)
		off := m.h.OffOf(addr)
		if i < len(tx.isRef) && tx.isRef[i] {
			obj := tx.objs[i]
			m.h.Ownerless().StoreRef(obj, int(addr-obj), layout.Ref(old), m.h.RefIsVolatile(layout.Ref(old)))
		} else {
			m.h.Device().WriteU64(off, old)
		}
		m.h.Device().Flush(off, 8)
	}
	m.h.Device().Fence()
	m.logStore(1, 0)
	m.logStore(0, 1)
	m.flushLogWords(0, 2)
	m.h.Ownerless().PublishRemsetDeltas()
	tx.closed = true
	m.mu.Unlock()
}

// Run executes fn inside a transaction, committing on nil and aborting on
// error.
func (m *Manager) Run(fn func(tx *Tx) error) error {
	tx := m.Begin()
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	tx.Commit()
	return nil
}
