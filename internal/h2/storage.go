package h2

import (
	"fmt"

	"espresso/internal/nvm"
	"espresso/internal/undolog"
)

// Device layout:
//
//	[0, 4K)       store header: magic
//	[4K, 4K+U)    undo log: the seq word, then the open transaction's records
//	[4K+U, ...)   8 KB row pages
//
// Every store into a row page belongs to a transaction of the shared undo
// log (internal/undolog has the protocol). Two choices are H2's own. An
// insert logs one thing, the page header: the new record and its slot lie
// past the header's slot count and free offset, so rolling the header back
// un-inserts them wherever their bytes got to. And an update that keeps a
// row's length goes in place, under the old bytes' before-image (update).
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
}

// rowID locates a record: page<<16 | slot.
type rowID uint64

func (r rowID) page() int { return int(r >> 16) }
func (r rowID) slot() int { return int(r & 0xffff) }

func makeRowID(page, slot int) rowID { return rowID(page)<<16 | rowID(slot) }

// newStore attaches to the device, formatting it if it is fresh and
// rolling back the transaction a crash interrupted, if any.
func newStore(dev *nvm.Device) *store {
	s := &store{dev: dev}
	s.pageCount = (dev.Size() - pagesOff) / pageSize
	if dev.ReadU64(0) != storeMagic {
		dev.WriteU64(0, storeMagic)
		dev.Flush(0, 8)
		dev.Fence()
	}
	s.log = undolog.Open(dev, undoSeqOff, pagesOff, pagesOff, dev.Size(), dev.Move)
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
	sp, err := s.pick(len(rec))
	if err != nil {
		return 0, err
	}
	if err := s.log.Record(s.hdrRange(sp.page)); err != nil {
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
	if err := s.log.Record(s.slotRange(p, slot)); err != nil {
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
