// Package ptx provides undo-log ACID transactions over persistent-heap
// objects — the "simple undo log" the paper adds to its PJH collections
// for a fair comparison with PCJ's always-transactional operations (§6.2).
//
// The protocol is internal/undolog's, the one H2 runs; ptx supplies the
// log and the way a before-image is put back. The log lives in the heap
// itself, a persistent long array reachable from a reserved root, so an
// interrupted transaction is rolled back by NewManager on the next load:
//
//	word 0      logMagic
//	word 7      seq; the padding words 1-6 and 8-14 give it a cache line of
//	            its own wherever a collection puts the array
//	then        padding to the next line, and the records
//
// Records name device offsets inside the heap's data area, so a rebased
// heap changes nothing, and the array's own device range is looked up
// again whenever the heap's layout epoch has moved. The write-ahead rule:
// a word's before-image is flushed and fenced before the first store into
// it, once per transaction (Declare batches whole ranges). A durable record
// names its object as surely as a reference slot does — recovery writes
// through it — so the object's header is settled before it is logged
// (Declare, and every write): a fresh object's allocation may have left it
// deferred (pheap's alloc.go), and Load would plug a filler where the
// rollback then stores. Begin is free
// because nothing marks a transaction open: the log is "the records that
// validate for seq+1", and an empty transaction costs the device nothing.
//
// Primitive stores (WriteWord) write heap words directly; reference stores
// (WriteRefWord) are pheap's reference-store barrier on the heap's
// ownerless context (pheap/barrier.go), so the remembered set sees every
// store of transactions and of the pcollections built on them the moment
// it lands. The restore hook keeps a live Abort inside that discipline:
// every reference slot the transaction stored goes back through the
// barrier, so a restored volatile value is remembered again. Every other
// word, and everything at recovery, goes back with a plain atomic store.
package ptx

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
	"espresso/internal/undolog"
)

const (
	// LogRootName is the reserved root of each heap's log array.
	LogRootName = "espresso/ptx-log"
	// DefaultLogEntries is how many separately logged words a transaction can hold.
	DefaultLogEntries = 4096

	logMagic = 0x5054_584c_4f47_0002 // "PTXLOG", format 2
	seqWord  = 7
	logWords = 16 + 3*DefaultLogEntries
)

var (
	// ErrTxDone is returned by writes to a committed or aborted Tx.
	ErrTxDone = errors.New("ptx: transaction already finished")
	// ErrLogFormat refuses anything under the log's root that is not a log
	// of this format, a log of an older one included.
	ErrLogFormat = errors.New("ptx: log root names no log of this format")
)

// Manager owns the transaction log of one heap. Transactions are globally
// serialized (PCJ behaves the same way: one fat lock).
type Manager struct {
	mu      sync.Mutex
	h       *pheap.Heap
	epoch   uint64       // h.LayoutEpoch() when undo was bound to the log array's device range
	undo    *undolog.Log // over that range
	pending []nvm.Range  // the open transaction's declared, not yet logged ranges
	refs    []refSlot    // and the reference slots it stored through the barrier
}

// refSlot is a reference slot's device offset and the object it lies in.
type refSlot struct {
	off int
	obj layout.Ref
}

func elemOff(i int) int { return layout.ElemOff(layout.FTLong, i) }

// NewManager creates (or re-attaches to) the heap's transaction log and
// rolls back any transaction that was active when the heap last persisted.
func NewManager(h *pheap.Heap) (*Manager, error) {
	m := &Manager{h: h}
	if ref, ok := h.GetRoot(LogRootName); ok {
		if h.GetWord(ref, elemOff(0)) != logMagic {
			return nil, ErrLogFormat
		}
		return m, m.recover()
	}
	arr, err := h.Alloc(h.Registry().PrimArray(layout.FTLong), logWords)
	if err != nil {
		return nil, fmt.Errorf("ptx: allocating log: %w", err)
	}
	h.SetWord(arr, elemOff(0), logMagic)
	h.SetWord(arr, elemOff(seqWord), 0)
	h.FlushRange(arr, elemOff(0), (seqWord+1)*layout.WordSize)
	if err := h.SetRoot(LogRootName, arr); err != nil {
		return nil, err
	}
	return m, m.recover()
}

// recover binds the undo log to the array's current device range, rolling
// back whatever transaction it holds.
func (m *Manager) recover() error {
	m.epoch = m.h.LayoutEpoch()
	ref, ok := m.h.GetRoot(LogRootName)
	if !ok {
		return fmt.Errorf("ptx: log root %q is gone", LogRootName)
	}
	body, geo := m.h.OffOf(ref)+elemOff(0), m.h.Geo()
	m.pending, m.refs = m.pending[:0], m.refs[:0]
	m.undo = undolog.Open(m.h.Device(), body+seqWord*layout.WordSize, body+logWords*layout.WordSize,
		geo.DataOff, geo.ScratchOff, m.restore)
	return nil
}

// restore puts a before-image back word by word (see the package comment).
func (m *Manager) restore(off, src, n int) {
	dev := m.h.Device()
	for end := off + n; off < end; off, src = off+layout.WordSize, src+layout.WordSize {
		old := dev.ReadU64(src)
		if i := slices.IndexFunc(m.refs, func(s refSlot) bool { return s.off == off }); i >= 0 {
			obj := m.refs[i].obj
			m.h.Ownerless().StoreRef(obj, off-m.h.OffOf(obj), layout.Ref(old), m.h.RefIsVolatile(layout.Ref(old)))
		} else {
			dev.WriteU64Atomic(off, old)
		}
	}
}

// Tx is one transaction. Its first Commit or Abort ends it; later ones are no-ops.
type Tx struct {
	m    *Manager
	done bool
}

// Begin opens a transaction, taking the global lock, at no device cost
// unless a collection or a rebase has moved the heap since the last one.
func (m *Manager) Begin() *Tx {
	m.mu.Lock()
	if m.h.LayoutEpoch() != m.epoch && m.recover() != nil {
		panic("ptx: the log's root was removed under its manager")
	}
	return &Tx{m: m}
}

// Declare announces stores into the n bytes (whole words) at byte offset
// boff of obj. The range is logged, with anything else declared since, in
// one batch ahead of the next store; stores into it then log nothing more.
func (tx *Tx) Declare(obj layout.Ref, boff, n int) error {
	if tx.done {
		return ErrTxDone
	}
	if boff%layout.WordSize != 0 || n%layout.WordSize != 0 || n < 0 {
		return fmt.Errorf("ptx: Declare(%#x, %d, %d): not whole words", uint64(obj), boff, n)
	}
	tx.m.h.Ownerless().Settle(obj)
	tx.m.pending = append(tx.m.pending, nvm.Range{Off: tx.m.h.OffOf(obj) + boff, N: n})
	return nil
}

// WriteWord performs a logged store of the 8-byte slot at byte offset boff
// of the persistent object at obj; reference slots take WriteRefWord.
func (tx *Tx) WriteWord(obj layout.Ref, boff int, val uint64) error {
	return tx.write(obj, boff, val, false)
}

// WriteRefWord is WriteWord for reference slots: the store goes through
// the reference-store barrier, so the remembered set learns of a volatile
// val.
func (tx *Tx) WriteRefWord(obj layout.Ref, boff int, val layout.Ref) error {
	return tx.write(obj, boff, uint64(val), true)
}

func (tx *Tx) write(obj layout.Ref, boff int, val uint64, isRef bool) error {
	if tx.done {
		return ErrTxDone
	}
	m := tx.m
	m.h.Ownerless().Settle(obj)
	word := nvm.Range{Off: m.h.OffOf(obj) + boff, N: layout.WordSize}
	m.pending = append(m.pending, word)
	err := m.undo.Record(m.pending...)
	m.pending = m.pending[:0]
	if err != nil {
		return fmt.Errorf("ptx: logging %#x+%d: %w", uint64(obj), boff, err)
	}
	if isRef {
		m.h.Ownerless().StoreRef(obj, boff, layout.Ref(val), m.h.RefIsVolatile(layout.Ref(val)))
		m.refs = append(m.refs, refSlot{word.Off, obj})
	} else {
		m.h.SetWord(obj, boff, val)
	}
	m.undo.Touched(word)
	return nil
}

// end finishes the transaction, once: the log commits or rolls back, and
// the manager's lock is released.
func (tx *Tx) end(commit bool) {
	if tx.done {
		return
	}
	tx.done = true
	m := tx.m
	if commit {
		m.undo.Commit()
	} else {
		m.undo.Rollback()
	}
	m.pending, m.refs = m.pending[:0], m.refs[:0]
	m.mu.Unlock()
}

// Commit makes the transaction durable: its dirty lines, fence, seq, fence.
func (tx *Tx) Commit() { tx.end(true) }

// Abort rolls the transaction back, reference slots through the barrier.
func (tx *Tx) Abort() { tx.end(false) }

// Run executes fn in a transaction: commit on nil, abort on error.
func (m *Manager) Run(fn func(tx *Tx) error) error {
	tx := m.Begin()
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	tx.Commit()
	return nil
}
