// Package undolog is the tree's one undo log: failure-atomic transactions
// over a window of an nvm.Device, for H2's row pages and ptx's heap
// objects. What a log buys is atomicity over more than one store, and what
// it costs the device, beside the transaction's distinct dirty lines, is
// one log flush per batch of before-images and one commit line. A
// transaction that is a single store inside one aligned word needs
// neither — the hardware persists such a word whole — provided nothing of
// it reaches the device before commit; a user that can hold the store back
// until then commits it with no log at all, and this package's part in
// that is to say whether the open transaction has logged anything yet
// (Idle). H2 does (its reads go through the store, which overlays the held
// bytes: h2/storage.go); ptx does not, its clients read heap words
// directly. For everything else:
//
//   - before a range is first overwritten, its before-image is appended to
//     the log, flushed and fenced (Record) — the write-ahead rule: a store
//     may leave the cache at any moment, so the bytes that undo it must
//     already be durable;
//   - the stores themselves are not flushed one by one; Touched notes
//     their lines, and Commit writes each distinct line back once, fences,
//     and only then persists seq+1 — the commit point;
//   - Open rolls back whatever the log holds for transaction seq+1.
//
// One word, seq, numbers the last finished transaction and has a cache
// line to itself; the records of transaction seq+1 follow from the next
// line, each
//
//	u32 deviceOff, u32 length, u64 tag, bytes (padded to a word)
//
// The tag covers the transaction number, the record's place in the log,
// the range and the bytes, so recovery needs no count of records: it takes
// the records that validate, in order, and stops at the first that does
// not. A record cut short by the crash therefore reads as absent — and is
// safe to lose, because the store it covers is issued only after the
// record's fence. Records left by earlier transactions carry earlier
// numbers and never validate, and every target is held to the window
// before anything is stored through it.
package undolog

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"sort"

	"espresso/internal/nvm"
)

const (
	recHdrBytes = 16
	tagSeed     = 0x4832_4442 // "H2DB": the log began as H2's, and keeps its images valid
)

var (
	// ErrFull rejects a before-image the log has no room left for.
	ErrFull = errors.New("undolog: transaction too large for the undo log")
	// ErrRange rejects a range outside the target window, or inside the log.
	ErrRange = errors.New("undolog: range outside the transaction's target window")
)

// rec is one logged before-image: n bytes of [off, off+n), held at at.
type rec struct{ at, off, n int }

// span is a logged range [off, end).
type span struct{ off, end int }

// Log is one undo log and the dirty-line set of its open transaction.
type Log struct {
	dev                  *nvm.Device
	seqOff, dataOff, end int // the seq word; the records' area behind its line
	lo, hi               int // the target window
	// restore puts the n-byte before-image at log offset src back at off.
	restore func(off, src, n int)
	seq     uint64 // the device's seq word
	used    int    // bytes of records logged by the open transaction
	// recs lists those records, dirty the line ranges stored to and not
	// written back; buf stages one batch. All are reused across transactions.
	recs  []rec
	dirty []nvm.Range
	buf   []byte
	// cover is the logged ranges no other logged range contains, by
	// offset (covered): what Record's skip test searches instead of recs.
	cover []span
}

// Open attaches to the log whose seq word is at seqOff and whose records
// end at end, for targets in [lo, hi): it reads seq and the records of
// transaction seq+1 that validate, and rolls that transaction back. restore
// puts a before-image back, the one thing users do differently (H2: dev.Move).
func Open(dev *nvm.Device, seqOff, end, lo, hi int, restore func(off, src, n int)) *Log {
	l := &Log{dev: dev, seqOff: seqOff, dataOff: nvm.LineRange(seqOff, 8).Off + nvm.LineSize, end: end,
		lo: lo, hi: min(hi, math.MaxUint32), restore: restore, seq: dev.ReadU64(seqOff)}
	for at := l.dataOff; at+recHdrBytes <= end; {
		off, n := int(dev.ReadU32(at)), int(dev.ReadU32(at+4))
		size := padded(n)
		if at+recHdrBytes+size > end || !l.accepts(off, n) {
			break
		}
		l.buf = slices.Grow(l.buf[:0], size)[:size]
		dev.ReadBytes(at+recHdrBytes, l.buf)
		if dev.ReadU64(at+8) != tag(l.seq+1, at, off, n, l.buf) {
			break
		}
		l.recs = append(l.recs, rec{at, off, n})
		at += recHdrBytes + size
	}
	l.Rollback()
	return l
}

// accepts reports whether [off, off+n) may be a record's target.
func (l *Log) accepts(off, n int) bool {
	return n > 0 && off >= l.lo && off+n <= l.hi && (off+n <= l.seqOff || off >= l.end)
}

func tag(seq uint64, at, off, n int, image []byte) uint64 {
	s := nvm.Mix(nvm.Mix(nvm.Mix(tagSeed, seq), uint64(at)), uint64(off)<<32|uint64(n))
	for ; len(image) >= 8; image = image[8:] {
		s = nvm.Mix(s, binary.LittleEndian.Uint64(image))
	}
	return s
}

// padded rounds a before-image's length up to whole words.
func padded(n int) int { return (n + 7) &^ 7 }

// Record makes the before-images of the given ranges durable — one flush
// and one fence for the batch — ahead of the caller's first store into
// any of them. An empty range is skipped, and so is one inside a range
// already logged: its first image is the one rollback wants. A batch with
// a range the log cannot take is not logged at all.
func (l *Log) Record(ranges ...nvm.Range) error {
	buf, base, first := l.buf[:0], l.dataOff+l.used, len(l.recs)
	for _, r := range ranges {
		var err error
		switch at := base + len(buf); {
		case r.N == 0:
		case !l.accepts(r.Off, r.N):
			err = ErrRange
		case l.covered(r.Off, r.N):
		case at+recHdrBytes+padded(r.N) > l.end:
			err = ErrFull
		default:
			buf = append(buf, make([]byte, recHdrBytes+padded(r.N))...)
			b := buf[at-base:]
			l.dev.ReadBytes(r.Off, b[recHdrBytes:recHdrBytes+r.N])
			binary.LittleEndian.PutUint32(b, uint32(r.Off))
			binary.LittleEndian.PutUint32(b[4:], uint32(r.N))
			binary.LittleEndian.PutUint64(b[8:], tag(l.seq+1, at, r.Off, r.N, b[recHdrBytes:]))
			l.recs = append(l.recs, rec{at, r.Off, r.N})
			l.addCover(r.Off, r.N)
		}
		if err != nil {
			l.recs = l.recs[:first]
			l.cover = l.cover[:0]
			for _, c := range l.recs {
				l.addCover(c.off, c.n)
			}
			return err
		}
	}
	l.buf = buf
	if len(buf) == 0 {
		return nil
	}
	l.dev.WriteBytes(base, buf)
	l.dev.Persist(base, len(buf))
	l.used += len(buf)
	return nil
}

// covered reports whether [off, off+n) lies inside one logged range —
// Record's rule for a range whose before-image is already in the log. No
// range in cover contains another, so ordered by offset their ends
// ascend too, and of those that start at or before off the last reaches
// furthest; a logged range that is not in cover lies inside one that is.
// So one binary search answers.
func (l *Log) covered(off, n int) bool {
	i := sort.Search(len(l.cover), func(i int) bool { return l.cover[i].off > off }) - 1
	return i >= 0 && off+n <= l.cover[i].end
}

// addCover enters a newly logged range that covered denied into cover,
// dropping the ranges it contains: they start at or after it and, ends
// ascending, form a run right there. Ranges logged in ascending order, as
// a batch of H2 inserts is, go in at the end.
func (l *Log) addCover(off, n int) {
	i := sort.Search(len(l.cover), func(i int) bool { return l.cover[i].off >= off })
	j := i
	for j < len(l.cover) && l.cover[j].end <= off+n {
		j++
	}
	l.cover = slices.Replace(l.cover, i, j, span{off, off + n})
}

// Idle reports whether the open transaction has logged nothing yet.
func (l *Log) Idle() bool { return l.used == 0 }

// Touched notes that the transaction stored into r, whose lines Commit
// has to write back. A range overlapping or adjacent to a noted one grows
// it, so the list stays a handful of entries (a batch of H2 inserts keeps
// extending the same two) and small transactions never allocate.
func (l *Log) Touched(r nvm.Range) {
	r = nvm.LineRange(r.Off, r.N)
	for i := len(l.dirty) - 1; i >= 0; i-- {
		d := &l.dirty[i]
		if r.Off <= d.Off+d.N && d.Off <= r.Off+r.N {
			lo, hi := min(d.Off, r.Off), max(d.Off+d.N, r.Off+r.N)
			d.Off, d.N = lo, hi-lo
			return
		}
	}
	l.dirty = append(l.dirty, r)
}

// Commit makes the open transaction durable: every line it stored to is
// written back once, the fence orders them ahead of the seq word, and seq
// moving on retires the log. One that logged nothing costs nothing.
func (l *Log) Commit() {
	if l.used == 0 {
		return
	}
	l.dev.PersistRanges(nvm.MergeRanges(l.dirty))
	l.finish()
}

// finish retires the open transaction's records by moving seq past it.
func (l *Log) finish() {
	l.seq++
	l.dev.WriteU64(l.seqOff, l.seq)
	l.dev.Persist(l.seqOff, 8)
	l.used, l.recs, l.dirty, l.cover = 0, l.recs[:0], l.dirty[:0], l.cover[:0]
}

// Rollback puts the open transaction's before-images back in reverse
// order, from the log on the device, and retires them, reporting whether
// there were any. It serves a live abort and, at Open, the transaction a
// crash left behind alike; crashed part-way and reopened, it starts over.
func (l *Log) Rollback() bool {
	if len(l.recs) == 0 {
		return false
	}
	// Each image is written back before the next one is restored, the
	// last by the closing Persist.
	var last nvm.Range
	for i := len(l.recs) - 1; i >= 0; i-- {
		l.dev.Flush(last.Off, last.N)
		r := l.recs[i]
		l.restore(r.off, r.at+recHdrBytes, r.n)
		last = nvm.Range{Off: r.off, N: r.n}
	}
	l.dev.Persist(last.Off, last.N)
	l.finish()
	return true
}
