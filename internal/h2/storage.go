package h2

import (
	"encoding/binary"
	"fmt"
	"slices"

	"espresso/internal/nvm"
	"espresso/internal/undolog"
)

// Device layout:
//
//	[0, 4K)       store header: magic
//	[4K, 4K+U)    undo log: the seq word, then the open transaction's records
//	[4K+U, ...)   8 KB row pages
//
// A transaction's stores into the row pages go through the shared undo log
// (internal/undolog has the protocol), with two choices that are H2's own.
// An insert logs one thing, the page header: the new record and its slot lie
// past the header's slot count and free offset, so rolling the header back
// un-inserts them wherever their bytes got to. And an update that keeps a
// row's length goes in place, under the old bytes' before-image (update).
//
// One transaction needs no log at all: the one whose whole write set is a
// single store inside one aligned 8-byte word — a delete (the slot's u16
// length becomes 0), or a same-length update whose new bytes differ from
// the old inside one word (a reference row whose reference changed inside
// one word; a PJO update stores the row it has, which is no store). The
// hardware already makes that store atomic: an aligned word persists whole,
// so every image holds the transaction entirely or not at all, which is all
// the log would have bought. The store does not issue it when the operation
// is called, though — a store may leave the cache at any moment, and until
// Commit the transaction may still grow a second store or be rolled back.
// It is held in DRAM (hold); reads overlay it (readAt), so the transaction
// reads its own write; the transaction's next mutating operation first
// settles it down the logged path (settle: before-image, store, dirty
// line), after which the transaction is an ordinary logged one; Rollback
// drops it; and Commit with only a held store is that one store, one flush
// and one fence — no record, no seq. Nothing reaches the device before
// commit, so recovery has nothing to learn: an image with no valid record
// is a committed image, exactly as for logged transactions. (The premise is
// a store the hardware does not tear. The simulator's crash images are whole
// lines, so tearing below a word is outside what the sweeps can show — the
// caveat pheap's allocInHole states.)
const (
	storeMagic  = 0x4832_4442 // "H2DB"
	pageSize    = 8 << 10
	hdrBytes    = 4 << 10
	undoBytes   = 1 << 20
	undoSeqOff  = hdrBytes
	pagesOff    = hdrBytes + undoBytes
	slotDirSize = 4 // u16 offset + u16 length per slot
)

// Page header: u16 slotCount, u16 freeOff (start of free space).
const pageHdrBytes = 4

type store struct {
	dev       *nvm.Device
	pageCount int
	fillPage  int // page currently receiving inserts
	log       *undolog.Log
	// held is the open transaction's one store while it is held back (n != 0):
	// a natural u8/u16/u32/u64 store of b[:n] at off.
	held struct {
		off, n int
		b      [8]byte
	}
	// buf is the scratch row that row reads into.
	buf []byte
}

// rowID locates a record: page<<16 | slot.
type rowID uint64

func (r rowID) page() int { return int(r >> 16) }
func (r rowID) slot() int { return int(r & 0xffff) }

func makeRowID(page, slot int) rowID { return rowID(page)<<16 | rowID(slot) }

// newStore attaches to the device, formatting it if it is fresh and
// rolling back the transaction a crash interrupted, if any. It refuses,
// writing nothing, a device too small for one page and one whose word 0 is
// neither zero (fresh) nor the store's magic.
func newStore(dev *nvm.Device) (*store, error) {
	if dev.Size() < pagesOff+pageSize {
		return nil, fmt.Errorf("h2: device of %d bytes has no room for a page past the header and undo log", dev.Size())
	}
	switch w := dev.ReadU64(0); w {
	case 0:
		dev.WriteU64(0, storeMagic)
		dev.Persist(0, 8)
	case storeMagic:
	default:
		return nil, fmt.Errorf("h2: word 0 is %#x, not a database", w)
	}
	s := &store{dev: dev, pageCount: (dev.Size() - pagesOff) / pageSize}
	s.log = undolog.Open(dev, undoSeqOff, pagesOff, pagesOff, dev.Size(), dev.Move)
	return s, nil
}

func (s *store) pageOff(p int) int { return pagesOff + p*pageSize }

func (s *store) slotCount(p int) int {
	return int(s.dev.ReadU16(s.pageOff(p)))
}

func (s *store) freeOff(p int) int {
	off := int(s.dev.ReadU16(s.pageOff(p) + 2))
	if off == 0 {
		off = pageHdrBytes
	}
	return off
}

func (s *store) hdrRange(p int) nvm.Range { return nvm.Range{Off: s.pageOff(p), N: pageHdrBytes} }

func (s *store) slotRange(p, slot int) nvm.Range {
	return nvm.Range{Off: s.pageOff(p) + pageSize - (slot+1)*slotDirSize, N: slotDirSize}
}

// readAt fills dst with the bytes at off as the open transaction sees them:
// the device's, under the held store's.
func (s *store) readAt(off int, dst []byte) {
	s.dev.ReadBytes(off, dst)
	h := &s.held
	if lo, hi := max(off, h.off), min(off+len(dst), h.off+h.n); lo < hi {
		copy(dst[lo-off:hi-off], h.b[lo-h.off:])
	}
}

// row reads n bytes at off into the store's scratch buffer, which the next
// call reuses.
func (s *store) row(off, n int) []byte {
	s.buf = slices.Grow(s.buf[:0], n)[:n]
	s.readAt(off, s.buf)
	return s.buf
}

// hold takes the store of b at off as the open transaction's held store,
// if it may be one: the transaction has logged nothing — and so, every
// operation settling first, holds nothing — and b lies inside one aligned
// word. Bytes that no single instruction
// stores alone (three of them, or a u16 across a u32 boundary) become the
// containing word rewritten.
func (s *store) hold(off int, b []byte) bool {
	h, word := &s.held, off&^7
	if !s.log.Idle() || (off+len(b)-1)&^7 != word {
		return false
	}
	if n := len(b); n&(n-1) == 0 && off%n == 0 {
		h.off, h.n = off, n
		copy(h.b[:], b)
		return true
	}
	s.dev.ReadBytes(word, h.b[:])
	copy(h.b[off-word:], b)
	h.off, h.n = word, 8
	return true
}

// release stops holding the held store and issues it.
func (s *store) release() nvm.Range {
	h := &s.held
	r := nvm.Range{Off: h.off, N: h.n}
	s.dev.WriteBytes(r.Off, h.b[:r.N])
	h.n = 0
	return r
}

// settle turns a held store into the first logged store of the open
// transaction, ahead of the transaction's second operation.
func (s *store) settle() error {
	h := &s.held
	if h.n == 0 {
		return nil
	}
	if err := s.log.Record(nvm.Range{Off: h.off, N: h.n}); err != nil {
		return err
	}
	s.log.Touched(s.release())
	return nil
}

// commit makes the open transaction durable: a held store by itself, one
// line and one fence; anything else through the log.
func (s *store) commit() {
	if s.held.n == 0 {
		s.log.Commit()
		return
	}
	r := s.release()
	s.dev.Persist(r.Off, r.N)
}

// rollback undoes the open transaction, reporting whether it had done
// anything (the caller's indexes have then moved, and not moved back).
func (s *store) rollback() bool {
	if s.held.n != 0 {
		s.held.n = 0
		return true
	}
	return s.log.Rollback()
}

// slotEntry reads a slot directory entry (offset, length). Length 0 means
// the slot is dead.
func (s *store) slotEntry(p, slot int) (int, int) {
	var e [slotDirSize]byte
	s.readAt(s.slotRange(p, slot).Off, e[:])
	return int(binary.LittleEndian.Uint16(e[:])), int(binary.LittleEndian.Uint16(e[2:]))
}

func (s *store) setSlotEntry(p, slot, off, length int) {
	r := s.slotRange(p, slot)
	s.dev.WriteU16(r.Off, uint16(off))
	s.dev.WriteU16(r.Off+2, uint16(length))
	s.log.Touched(r)
}

// spot is where a page's next record goes.
type spot struct{ page, slot, off int }

// pick finds the page an n-byte record fits on.
func (s *store) pick(n int) (spot, error) {
	if n > pageSize-pageHdrBytes-slotDirSize {
		return spot{}, fmt.Errorf("h2: record of %d bytes exceeds page capacity", n)
	}
	for p := s.fillPage; p < s.pageCount; p++ {
		nslots, free := s.slotCount(p), s.freeOff(p)
		if free+n <= pageSize-(nslots+1)*slotDirSize {
			s.fillPage = p
			return spot{p, nslots, free}, nil
		}
		// Page full; move on (dead space is not reused).
	}
	return spot{}, fmt.Errorf("h2: out of database pages")
}

// place stores rec at sp and publishes it in the page header, whose
// before-image the caller has logged.
func (s *store) place(sp spot, rec []byte) rowID {
	base := s.pageOff(sp.page)
	s.dev.WriteBytes(base+sp.off, rec)
	s.log.Touched(nvm.Range{Off: base + sp.off, N: len(rec)})
	s.setSlotEntry(sp.page, sp.slot, sp.off, len(rec))
	s.dev.WriteU16(base, uint16(sp.slot+1))
	s.dev.WriteU16(base+2, uint16(sp.off+len(rec)))
	s.log.Touched(s.hdrRange(sp.page))
	return makeRowID(sp.page, sp.slot)
}

// insert stores a record, returning its rowID.
func (s *store) insert(rec []byte) (rowID, error) {
	if err := s.settle(); err != nil {
		return 0, err
	}
	sp, err := s.pick(len(rec))
	if err != nil {
		return 0, err
	}
	if err := s.log.Record(s.hdrRange(sp.page)); err != nil {
		return 0, err
	}
	return s.place(sp, rec), nil
}

// read fetches a record's bytes, into the scratch row.
func (s *store) read(id rowID) ([]byte, error) {
	p, slot := id.page(), id.slot()
	if p >= s.pageCount || slot >= s.slotCount(p) {
		return nil, fmt.Errorf("h2: dangling row id %#x", uint64(id))
	}
	off, length := s.slotEntry(p, slot)
	if length == 0 {
		return nil, fmt.Errorf("h2: deleted row id %#x", uint64(id))
	}
	return s.row(s.pageOff(p)+off, length), nil
}

// delete kills a record's slot: its length becomes 0.
func (s *store) delete(id rowID) error {
	if err := s.settle(); err != nil {
		return err
	}
	p, slot := id.page(), id.slot()
	r := s.slotRange(p, slot)
	if s.hold(r.Off+2, []byte{0, 0}) {
		return nil
	}
	if err := s.log.Record(r); err != nil {
		return err
	}
	off, _ := s.slotEntry(p, slot)
	s.setSlotEntry(p, slot, off, 0)
	return nil
}

// update replaces the record at id with rec and returns where it now
// lives: in place when the length is unchanged — every reference row, every
// fixed-width column — and otherwise in a fresh slot, the old one killed
// (one batch of two before-images: the old slot and the new page's header).
// In place, the same bytes again are no operation at all, bytes that differ
// inside one aligned word are a store to hold, and any others go in under
// the old row's before-image.
func (s *store) update(id rowID, rec []byte) (rowID, error) {
	if err := s.settle(); err != nil {
		return 0, err
	}
	p, slot := id.page(), id.slot()
	off, length := s.slotEntry(p, slot)
	if len(rec) == length {
		r := nvm.Range{Off: s.pageOff(p) + off, N: length}
		lo, hi := nvm.DiffSpan(s.row(r.Off, r.N), rec)
		if lo == hi || s.hold(r.Off+lo, rec[lo:hi]) {
			return id, nil
		}
		if err := s.log.Record(r); err != nil {
			return 0, err
		}
		s.dev.WriteBytes(r.Off, rec)
		s.log.Touched(r)
		return id, nil
	}
	sp, err := s.pick(len(rec))
	if err != nil {
		return 0, err
	}
	if err := s.log.Record(s.slotRange(p, slot), s.hdrRange(sp.page)); err != nil {
		return 0, err
	}
	s.setSlotEntry(p, slot, off, 0)
	return s.place(sp, rec), nil
}

// forEach visits every live record, each in the scratch row. It is the
// reopen path's one walk over the pages, so it is where a page header or
// slot entry that reaches outside its page is refused; the operations
// after it trust the pages.
func (s *store) forEach(fn func(id rowID, rec []byte) error) error {
	for p := 0; p < s.pageCount; p++ {
		n := s.slotCount(p)
		dirStart := pageSize - n*slotDirSize
		if dirStart < pageHdrBytes {
			return fmt.Errorf("h2: page %d claims %d slots", p, n)
		}
		for slot := 0; slot < n; slot++ {
			off, length := s.slotEntry(p, slot)
			if length == 0 {
				continue
			}
			if off < pageHdrBytes || off+length > dirStart {
				return fmt.Errorf("h2: page %d slot %d holds [%d,+%d), outside the page's records", p, slot, off, length)
			}
			if err := fn(makeRowID(p, slot), s.row(s.pageOff(p)+off, length)); err != nil {
				return err
			}
		}
	}
	return nil
}
