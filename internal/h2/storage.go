package h2

import (
	"encoding/binary"
	"fmt"
	"slices"

	"espresso/internal/nvm"
)

// Device layout:
//
//	[0, 4K)       store header: magic
//	[4K, 4K+U)    undo log: the seq word, then the open transaction's records
//	[4K+U, ...)   8 KB row pages
//
// Every store into a row page belongs to a transaction, and a transaction
// costs the device its distinct dirty lines, one log flush per batch of
// before-images, and one commit line:
//
//   - before a range of a page is first overwritten, its before-image is
//     appended to the undo log, flushed and fenced (undoLog.record) — the
//     write-ahead rule: a store may leave the cache at any moment, so the
//     bytes that undo it must already be durable;
//   - the stores themselves are not flushed one by one; the store notes
//     their lines, and commit writes each distinct line back once, fences,
//     and only then persists seq+1 — the commit point;
//   - open rolls back whatever the log holds for transaction seq+1.
//
// A record carries a tag over the transaction number, its place in the
// log, the range and the bytes, so recovery needs no count of records: it
// takes the records that validate, in order, and stops at the first that
// does not. A record cut short by the crash therefore reads as absent —
// and is safe to lose, because the store it covers is issued only after
// the record's fence. Records left by earlier transactions carry earlier
// numbers and never validate.
//
// An insert logs one thing, the page header: the new record and its slot
// lie past the header's slot count and free offset, so rolling the header
// back un-inserts them wherever their bytes got to.
const (
	storeMagic  = 0x4832_4442 // "H2DB"
	pageSize    = 8 << 10
	hdrBytes    = 4 << 10
	undoBytes   = 1 << 20
	pagesOff    = hdrBytes + undoBytes
	slotDirSize = 4 // u16 offset + u16 length per slot
)

// Page header: u16 slotCount, u16 freeOff (start of free space).
const pageHdrBytes = 4

type store struct {
	dev       *nvm.Device
	pageCount int
	fillPage  int // page currently receiving inserts
	log       undoLog
	// dirty holds the line ranges the open transaction has stored to and
	// not written back; commit flushes them. Reused across transactions.
	dirty []nvm.Range
}

// rowID locates a record: page<<16 | slot.
type rowID uint64

func (r rowID) page() int { return int(r >> 16) }
func (r rowID) slot() int { return int(r & 0xffff) }

func makeRowID(page, slot int) rowID { return rowID(page)<<16 | rowID(slot) }

// newStore attaches to the device, formatting it if it is fresh and
// rolling back the transaction a crash interrupted, if any.
func newStore(dev *nvm.Device) *store {
	s := &store{dev: dev, log: undoLog{dev: dev}}
	s.pageCount = (dev.Size() - pagesOff) / pageSize
	if dev.ReadU64(0) != storeMagic {
		dev.WriteU64(0, storeMagic)
		dev.Flush(0, 8)
		dev.Fence()
	}
	s.log.seq = dev.ReadU64(undoSeqOff)
	s.log.rollback()
	return s
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

// slotEntry reads a slot directory entry (offset, length). Length 0 means
// the slot is dead.
func (s *store) slotEntry(p, slot int) (int, int) {
	base := s.slotRange(p, slot).Off
	return int(s.dev.ReadU16(base)), int(s.dev.ReadU16(base + 2))
}

func (s *store) setSlotEntry(p, slot, off, length int) {
	r := s.slotRange(p, slot)
	s.dev.WriteU16(r.Off, uint16(off))
	s.dev.WriteU16(r.Off+2, uint16(length))
	s.touched(r)
}

// touched notes that the transaction stored into r, whose lines commit
// has to write back. A range overlapping or adjacent to a noted one grows
// it — a batch of inserts keeps extending the same two (records from the
// front of the page, slots from its back) — so the list stays a handful
// of entries and single-row transactions never allocate.
func (s *store) touched(r nvm.Range) {
	r = nvm.LineRange(r.Off, r.N)
	for i := len(s.dirty) - 1; i >= 0; i-- {
		d := &s.dirty[i]
		if r.Off <= d.Off+d.N && d.Off <= r.Off+r.N {
			lo, hi := min(d.Off, r.Off), max(d.Off+d.N, r.Off+r.N)
			d.Off, d.N = lo, hi-lo
			return
		}
	}
	s.dirty = append(s.dirty, r)
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
	s.touched(nvm.Range{Off: base + sp.off, N: len(rec)})
	s.setSlotEntry(sp.page, sp.slot, sp.off, len(rec))
	s.dev.WriteU16(base, uint16(sp.slot+1))
	s.dev.WriteU16(base+2, uint16(sp.off+len(rec)))
	s.touched(s.hdrRange(sp.page))
	return makeRowID(sp.page, sp.slot)
}

// insert stores a record, returning its rowID.
func (s *store) insert(rec []byte) (rowID, error) {
	sp, err := s.pick(len(rec))
	if err != nil {
		return 0, err
	}
	if err := s.log.record(s.hdrRange(sp.page)); err != nil {
		return 0, err
	}
	return s.place(sp, rec), nil
}

// read fetches a record's bytes.
func (s *store) read(id rowID) ([]byte, error) {
	p, slot := id.page(), id.slot()
	if p >= s.pageCount || slot >= s.slotCount(p) {
		return nil, fmt.Errorf("h2: dangling row id %#x", uint64(id))
	}
	off, length := s.slotEntry(p, slot)
	if length == 0 {
		return nil, fmt.Errorf("h2: deleted row id %#x", uint64(id))
	}
	out := make([]byte, length)
	s.dev.ReadBytes(s.pageOff(p)+off, out)
	return out, nil
}

// delete kills a record's slot.
func (s *store) delete(id rowID) error {
	p, slot := id.page(), id.slot()
	if err := s.log.record(s.slotRange(p, slot)); err != nil {
		return err
	}
	off, _ := s.slotEntry(p, slot)
	s.setSlotEntry(p, slot, off, 0)
	return nil
}

// update replaces the record at id with rec and returns where it now
// lives: in place, under the old bytes' before-image, when the length is
// unchanged — every reference row, every fixed-width column — and
// otherwise in a fresh slot, the old one killed (one batch of two
// before-images: the old slot and the new page's header).
func (s *store) update(id rowID, rec []byte) (rowID, error) {
	p, slot := id.page(), id.slot()
	off, length := s.slotEntry(p, slot)
	if len(rec) == length {
		r := nvm.Range{Off: s.pageOff(p) + off, N: length}
		if err := s.log.record(r); err != nil {
			return 0, err
		}
		s.dev.WriteBytes(r.Off, rec)
		s.touched(r)
		return id, nil
	}
	sp, err := s.pick(len(rec))
	if err != nil {
		return 0, err
	}
	if err := s.log.record(s.slotRange(p, slot), s.hdrRange(sp.page)); err != nil {
		return 0, err
	}
	s.setSlotEntry(p, slot, off, 0)
	return s.place(sp, rec), nil
}

// forEach visits every live record.
func (s *store) forEach(fn func(id rowID, rec []byte) error) error {
	for p := 0; p < s.pageCount; p++ {
		n := s.slotCount(p)
		for slot := 0; slot < n; slot++ {
			off, length := s.slotEntry(p, slot)
			if length == 0 {
				continue
			}
			rec := make([]byte, length)
			s.dev.ReadBytes(s.pageOff(p)+off, rec)
			if err := fn(makeRowID(p, slot), rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// commit makes the open transaction durable: every line it stored to is
// written back once, the fence orders them ahead of the seq word, and seq
// moving on retires the log. A transaction that logged nothing stored
// nothing and costs the device nothing.
func (s *store) commit() {
	if s.log.used == 0 {
		return
	}
	for _, r := range nvm.MergeRanges(s.dirty) {
		s.dev.Flush(r.Off, r.N)
	}
	s.dev.Fence()
	s.dirty = s.dirty[:0]
	s.log.finish()
}

// rollback undoes the open transaction, reporting whether there was
// anything to undo. What the transaction stored past the restored ranges
// (fresh records and slots) stays in the cache unflushed, unreachable.
func (s *store) rollback() bool {
	s.dirty = s.dirty[:0]
	return s.log.rollback()
}

// --- Undo log ---
//
// One word, seq, numbers the last finished transaction; the records of
// transaction seq+1 follow from undoDataOff, each
//
//	u32 deviceOff, u32 length, u64 tag, bytes (padded to a word)
//
// and nothing says how many there are (see the top of the file).

const (
	undoSeqOff  = hdrBytes
	undoDataOff = hdrBytes + nvm.LineSize // the seq word has its line to itself
	recHdrBytes = 16
)

type undoLog struct {
	dev  *nvm.Device
	seq  uint64 // the device's seq word
	used int    // bytes of records logged by the open transaction
	// logged lists the ranges those records cover: a range is logged the
	// first time the transaction touches it. buf stages one batch. Both are
	// reused across transactions.
	logged []nvm.Range
	buf    []byte
}

// undoTag is the seeded xor-multiply-shift mix pheap's metadata checksums
// use, over everything that makes a record this record.
func undoTag(seq uint64, at int, off, n uint32, image []byte) uint64 {
	mix := func(s, w uint64) uint64 {
		s ^= w
		s *= 0x9E3779B97F4A7C15
		return s ^ s>>29
	}
	s := mix(mix(mix(storeMagic, seq), uint64(at)), uint64(off)<<32|uint64(n))
	for ; len(image) >= 8; image = image[8:] {
		s = mix(s, binary.LittleEndian.Uint64(image))
	}
	return s
}

// padded rounds a before-image's length up to whole words.
func padded(n int) int { return (n + 7) &^ 7 }

// record makes the before-images of the given ranges durable — one flush
// and one fence for the batch — ahead of the caller's first store into
// any of them. A range the transaction has already logged is skipped: its
// first image is the one rollback wants.
func (u *undoLog) record(ranges ...nvm.Range) error {
	buf, base, first := u.buf[:0], undoDataOff+u.used, len(u.logged)
	for _, r := range ranges {
		if slices.ContainsFunc(u.logged, func(l nvm.Range) bool { return l.Off <= r.Off && r.Off+r.N <= l.Off+l.N }) {
			continue
		}
		at := len(buf)
		if base+at+recHdrBytes+padded(r.N) > pagesOff {
			u.logged = u.logged[:first]
			return fmt.Errorf("h2: transaction too large for undo log")
		}
		buf = append(buf, make([]byte, recHdrBytes+padded(r.N))...)
		rec := buf[at:]
		u.dev.ReadBytes(r.Off, rec[recHdrBytes:recHdrBytes+r.N])
		binary.LittleEndian.PutUint32(rec, uint32(r.Off))
		binary.LittleEndian.PutUint32(rec[4:], uint32(r.N))
		binary.LittleEndian.PutUint64(rec[8:], undoTag(u.seq+1, base+at, uint32(r.Off), uint32(r.N), rec[recHdrBytes:]))
		u.logged = append(u.logged, r)
	}
	u.buf = buf
	if len(buf) == 0 {
		return nil
	}
	u.dev.WriteBytes(base, buf)
	u.dev.Flush(base, len(buf))
	u.dev.Fence()
	u.used += len(buf)
	return nil
}

// finish retires the open transaction's records by moving seq past it.
func (u *undoLog) finish() {
	u.seq++
	u.dev.WriteU64(undoSeqOff, u.seq)
	u.dev.Flush(undoSeqOff, 8)
	u.dev.Fence()
	u.used = 0
	u.logged = u.logged[:0]
}

// rollback re-applies the before-images of transaction seq+1 in reverse
// order and retires them, reporting whether there were any. It reads the
// records back from the device, so it serves a live transaction and the
// one a crash left behind alike; run again after a crash part-way, it
// does the same work over.
func (u *undoLog) rollback() bool {
	var recs []int
	for at := undoDataOff; at+recHdrBytes <= pagesOff; {
		off, n := u.dev.ReadU32(at), u.dev.ReadU32(at+4)
		size := padded(int(n))
		if n == 0 || at+recHdrBytes+size > pagesOff || int(off) < pagesOff || int(off)+int(n) > u.dev.Size() {
			break
		}
		u.buf = slices.Grow(u.buf[:0], size)[:size]
		u.dev.ReadBytes(at+recHdrBytes, u.buf)
		if u.dev.ReadU64(at+8) != undoTag(u.seq+1, at, off, n, u.buf) {
			break
		}
		recs = append(recs, at)
		at += recHdrBytes + size
	}
	if len(recs) == 0 {
		u.used, u.logged = 0, u.logged[:0]
		return false
	}
	for i := len(recs) - 1; i >= 0; i-- {
		off, n := int(u.dev.ReadU32(recs[i])), int(u.dev.ReadU32(recs[i]+4))
		u.dev.Move(off, recs[i]+recHdrBytes, n)
		u.dev.Flush(off, n)
	}
	u.dev.Fence()
	u.finish()
	return true
}
