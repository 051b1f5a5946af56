// Package blackbox is the NVM-persisted flight recorder: a bounded,
// per-heap event journal that survives crashes, so a dead process can be
// debugged from its heap image the way an aircraft is debugged from its
// black box.
//
// The journal is a ring of fixed-size 64-byte records — exactly one
// device cache line each, so a record persists atomically with its line
// flush — carved out of the heap device like the pshard manifest: the
// header is written, flushed and fenced before first use, and carries a
// format version.
//
// Crash rule (mirrors the index's link-and-persist): a record is
// accepted on read only if its checksum validates AND its sequence
// number is contiguous with the previous accepted record. Appends issue
// one line write + one flush and NO fence — every emission point sits at
// an already-fenced publication point (GC phase transition, redo commit,
// safepoint, recovery step), so the record rides into the next existing
// fence and mutator fast paths gain zero fences. A crash can therefore
// lose the tail of the journal but can never tear or fabricate a record:
// the decoder truncates at the first gap and at any checksum failure.
package blackbox

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"espresso/internal/nvm"
	"espresso/internal/telemetry"
)

const (
	// RecordSize is one journal record: one device line, persisted
	// atomically by its flush.
	RecordSize = nvm.LineSize
	// HeaderSize is the ring header: one line at the start of the region.
	HeaderSize = nvm.LineSize

	// Magic identifies a formatted ring header ("ESPRBBX1").
	Magic uint64 = 0x3158424252505345
	// Version is the ring format version.
	Version uint64 = 1
)

// Header word offsets (bytes, relative to the ring region base).
const (
	hMagic    = 0
	hVersion  = 8
	hCapacity = 16 // slots, in records
	hEpochNS  = 24 // unix nanoseconds at Format time; record times are deltas
)

// Record word offsets (bytes, relative to the record base).
const (
	rSeq    = 0  // monotonic sequence, first record is 1; 0 marks an empty slot
	rKind   = 8  // event kind
	rTime   = 16 // nanoseconds since the header epoch
	rP0     = 24
	rP1     = 32
	rP2     = 40
	rCksum  = 48 // checksum over the six words above
	rUnused = 56 // reserved, written as 0
)

// Event kinds. The numeric values are part of the on-media format: append
// new kinds at the end, never renumber.
const (
	EvNone uint64 = iota
	// EvHeapCreate: heap formatted. p0=data bytes, p1=regions, p2=format version.
	EvHeapCreate
	// EvHeapLoad: heap reopened from an image. p0=global TS, p1=GC-active
	// word, p2=0 (rings written before the concurrent collector was
	// removed carry its persisted GC phase here).
	EvHeapLoad
	// EvFormatUpgrade: in-place heap format upgrade. p0=from, p1=to. No
	// longer emitted (only the current format loads); the slot stays
	// because kinds are persisted numbers and rings written before the
	// ladder went may still carry it.
	EvFormatUpgrade
	// EvGCBegin: collection cycle entered. p0=0 (older rings carry 1 for a
	// concurrent cycle), p1=global TS at begin.
	EvGCBegin
	// EvGCMarkDone: mark bitmaps persisted. p0=live objects, p1=live bytes.
	EvGCMarkDone
	// EvGCStamp: new GC stamp published (SetGCState). p0=stamp, p1=live
	// objects, p2=live bytes.
	EvGCStamp
	// EvGCCompactDone: compaction moves complete. p0=moved objects,
	// p1=moved bytes.
	EvGCCompactDone
	// EvRedoCommit: a redo batch reached its commit point. p0=entries.
	EvRedoCommit
	// EvGCEnd: cycle finished. p0=live objects, p1=moved objects, p2=new top.
	EvGCEnd
	// EvGCAbort: concurrent cycle aborted. p0=global TS at abort. No
	// longer written (the concurrent collector is gone); the slot stays
	// because kinds are persisted numbers and removing it would renumber
	// every later kind in existing rings.
	EvGCAbort
	// EvCounterSnap: folded registry totals. p0=alloc.objects,
	// p1=refstore.stores, p2=index.puts.
	EvCounterSnap
	// EvSafepoint: world stopped. p0=cumulative waits, p1=cumulative wait
	// ns, p2=this stop's wait ns.
	EvSafepoint
	// EvRecoveryGCBegin: crash recovery found an interrupted cycle.
	// p0=persisted stamp, p1=GC-active word.
	EvRecoveryGCBegin
	// EvRecoveryGCEnd: recovery completed the cycle. p0=live objects,
	// p1=moved objects, p2=new top.
	EvRecoveryGCEnd
	// EvRecoveryIndex: index recovery walk done. p0=entries kept,
	// p1=pruned, p2=dirty slots cleared.
	EvRecoveryIndex
	// EvShardOpen: shard heap opened. p0=shard, p1=1 if GC recovery ran
	// (or the shard was freshly created), p2=index entries recovered.
	EvShardOpen
	// EvShardGC: per-shard collection requested. p0=shard.
	EvShardGC
	// EvPLABHandoff: allocator dispensed a region chunk to a mutator PLAB.
	// p0=region, p1=chunk base, p2=chunk bytes.
	EvPLABHandoff
	// EvShardQuarantined: a degraded-mode set fenced a failing shard off
	// instead of serving it. p0=shard, p1=retry attempts so far. Journaled
	// in the sibling that observed it when the failing shard's own ring is
	// unreachable.
	EvShardQuarantined
	// EvShardSalvaged: a shard reopened through salvage recovery.
	// p0=shard, p1=regions quarantined, p2=index entries lost.
	EvShardSalvaged

	numKinds
)

var kindNames = [...]string{
	"none",
	"heap.create",
	"heap.load",
	"heap.upgrade",
	"gc.begin",
	"gc.markdone",
	"gc.stamp",
	"gc.compactdone",
	"redo.commit",
	"gc.end",
	"gc.abort",
	"counters.snap",
	"safepoint",
	"recovery.gc.begin",
	"recovery.gc.end",
	"recovery.index",
	"shard.open",
	"shard.gc",
	"plab.handoff",
	"shard.quarantined",
	"shard.salvaged",
}

// KindName returns the stable string name for an event kind.
func KindName(k uint64) string {
	if k < uint64(len(kindNames)) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Record is one decoded journal entry.
type Record struct {
	Seq    uint64 `json:"seq"`
	Kind   uint64 `json:"kind"`
	TimeNS uint64 `json:"time_ns"` // nanoseconds since the ring epoch
	P0     uint64 `json:"p0"`
	P1     uint64 `json:"p1"`
	P2     uint64 `json:"p2"`
	// Shard is a decode-side tag (-1 for a single heap); pshard aggregation
	// re-tags each shard's timeline with its index. Not stored on media.
	Shard int `json:"shard"`
}

// KindName returns the record's event-kind name.
func (r Record) KindName() string { return KindName(r.Kind) }

// checksum mixes the six meaningful record words. Any single-word tear
// flips it; an all-zero slot never validates (the mix of zeros is
// nonzero, and Seq 0 is invalid regardless).
func checksum(seq, kind, ts, p0, p1, p2 uint64) uint64 {
	h := Magic
	for _, w := range [...]uint64{seq, kind, ts, p0, p1, p2} {
		h = nvm.Mix(h, w)
	}
	return h
}

// Format initializes the ring region [off, off+size) on dev: header
// written, flushed, fenced before first use — the manifest-first crash
// rule. The slot area is left as found (zero on fresh devices; stale
// slots on a reused region are rejected by checksum+sequence on read).
func Format(dev *nvm.Device, off, size int) error {
	if off%nvm.LineSize != 0 || size%nvm.LineSize != 0 {
		return fmt.Errorf("blackbox: ring [%d,+%d) not line-aligned", off, size)
	}
	if size < HeaderSize+RecordSize {
		return fmt.Errorf("blackbox: ring of %d bytes too small for header + one record", size)
	}
	capacity := uint64((size - HeaderSize) / RecordSize)
	dev.WriteU64(off+hMagic, Magic)
	dev.WriteU64(off+hVersion, Version)
	dev.WriteU64(off+hCapacity, capacity)
	dev.WriteU64(off+hEpochNS, uint64(time.Now().UnixNano()))
	dev.Persist(off, HeaderSize)
	return nil
}

// Recorder appends events to a formatted ring. All methods are safe on a
// nil receiver (no-ops), so emission sites never branch on whether the
// recorder is enabled.
type Recorder struct {
	dev      *nvm.Device
	off      int
	capacity uint64
	epoch    int64
	seq      atomic.Uint64
	tel      atomic.Pointer[telemetry.Registry]
	mirror   func(Record) // test oracle hook, called before the append persists
}

// Attach opens the formatted ring at [off, off+size) for appending. The
// sequence counter resumes past the newest decodable record, so a
// reopened heap continues its journal instead of overwriting it. Any
// checksum-valid record stranded beyond a crash-torn sequence hole is
// scrubbed first: left in place it could become contiguous with fresh
// appends and resurface mid-timeline as fabricated history.
func Attach(dev *nvm.Device, off, size int) (*Recorder, error) {
	tl, err := Decode(dev, off, size)
	if err != nil {
		return nil, err
	}
	r := &Recorder{
		dev:      dev,
		off:      off,
		capacity: tl.Capacity,
		epoch:    tl.EpochNS,
	}
	var last uint64
	if n := len(tl.Events); n > 0 {
		last = tl.Events[n-1].Seq
	}
	r.seq.Store(last)
	if tl.Discarded > 0 {
		// Each scrubbed slot is written back before the next one is
		// zeroed, the last by the closing Persist.
		var buf [RecordSize]byte
		var scrubbed nvm.Range
		for i := uint64(0); i < tl.Capacity; i++ {
			slotOff := off + HeaderSize + int(i)*RecordSize
			dev.ReadBytes(slotOff, buf[:])
			if seq := binary.LittleEndian.Uint64(buf[rSeq:]); seq > last {
				dev.Flush(scrubbed.Off, scrubbed.N)
				dev.Zero(slotOff, RecordSize)
				scrubbed = nvm.Range{Off: slotOff, N: RecordSize}
			}
		}
		dev.Persist(scrubbed.Off, scrubbed.N)
	}
	return r, nil
}

// SetTelemetry attributes append traffic (one write + one flushed line
// per event, zero fences) to the registry's shared cell under
// nvm.SubBlackbox. Nil registry (or receiver) is fine.
func (r *Recorder) SetTelemetry(reg *telemetry.Registry) {
	if r == nil {
		return
	}
	r.tel.Store(reg)
}

// SetMirror installs a DRAM oracle hook invoked with each record just
// before its line is flushed. Crash-sweep tests compare the decoded
// on-media timeline against the mirror: because the mirror runs first,
// the decoded journal is always a prefix of it. Install while quiescent.
func (r *Recorder) SetMirror(fn func(Record)) {
	if r == nil {
		return
	}
	r.mirror = fn
}

// Seq returns the sequence number of the most recent append (0 if none).
func (r *Recorder) Seq() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Capacity returns the ring capacity in records (0 on a nil recorder).
func (r *Recorder) Capacity() uint64 {
	if r == nil {
		return 0
	}
	return r.capacity
}

// Append journals one event: claim a sequence, write the record's line,
// flush it — no fence. The caller is an already-fenced publication point,
// so the record becomes durable no later than the site's own next fence;
// until then a crash simply truncates the tail (checksum + contiguity
// reject a torn record). Safe for concurrent use: distinct sequences map
// to distinct slots.
func (r *Recorder) Append(kind, p0, p1, p2 uint64) {
	if r == nil {
		return
	}
	seq := r.seq.Add(1)
	now := time.Now().UnixNano() - r.epoch
	if now < 0 {
		now = 0
	}
	rec := Record{Seq: seq, Kind: kind, TimeNS: uint64(now), P0: p0, P1: p1, P2: p2, Shard: -1}
	if r.mirror != nil {
		r.mirror(rec)
	}
	var buf [RecordSize]byte
	binary.LittleEndian.PutUint64(buf[rSeq:], seq)
	binary.LittleEndian.PutUint64(buf[rKind:], kind)
	binary.LittleEndian.PutUint64(buf[rTime:], rec.TimeNS)
	binary.LittleEndian.PutUint64(buf[rP0:], p0)
	binary.LittleEndian.PutUint64(buf[rP1:], p1)
	binary.LittleEndian.PutUint64(buf[rP2:], p2)
	binary.LittleEndian.PutUint64(buf[rCksum:], checksum(seq, kind, rec.TimeNS, p0, p1, p2))
	slotOff := r.off + HeaderSize + int((seq-1)%r.capacity)*RecordSize
	r.dev.WriteBytes(slotOff, buf[:])
	r.dev.Flush(slotOff, RecordSize)
	r.tel.Load().Shared().AtomicDev(nvm.SubBlackbox, 0, 1, 1, 0)
}

// Timeline is a decoded journal: the longest contiguous, checksum-valid
// run of records ending at the newest sequence the ring retains.
type Timeline struct {
	Capacity uint64   `json:"capacity"`
	EpochNS  int64    `json:"epoch_ns"` // unix nanoseconds of ring format time
	FirstSeq uint64   `json:"first_seq"`
	Events   []Record `json:"events"`
	// Discarded counts checksum-valid records dropped because they were
	// not sequence-contiguous (beyond a torn hole). Torn records
	// themselves are invisible — they fail the checksum.
	Discarded int `json:"discarded"`
}

// Wrapped reports whether the ring has overwritten its oldest records.
func (t Timeline) Wrapped() bool { return t.FirstSeq > 1 }

// Decode reads the ring at [off, off+size) from dev and reconstructs the
// timeline. It never writes to the device, so it is safe on a raw (and
// possibly torn) crash image. The acceptance rule: scan every slot, keep
// records whose checksum validates, then walk sequence numbers upward
// from the oldest the ring can still hold and stop at the first gap —
// a torn tail is silently truncated, never fabricated.
func Decode(dev *nvm.Device, off, size int) (Timeline, error) {
	if off < 0 || size < HeaderSize+RecordSize || off+size > dev.Size() {
		return Timeline{}, fmt.Errorf("blackbox: ring [%d,+%d) out of range for %d-byte device", off, size, dev.Size())
	}
	if m := dev.ReadU64(off + hMagic); m != Magic {
		return Timeline{}, fmt.Errorf("blackbox: bad ring magic %#x", m)
	}
	if v := dev.ReadU64(off + hVersion); v != Version {
		return Timeline{}, fmt.Errorf("blackbox: unsupported ring version %d", v)
	}
	capacity := dev.ReadU64(off + hCapacity)
	if capacity == 0 || capacity > uint64((size-HeaderSize)/RecordSize) {
		return Timeline{}, fmt.Errorf("blackbox: header capacity %d inconsistent with %d-byte ring", capacity, size)
	}
	tl := Timeline{Capacity: capacity, EpochNS: int64(dev.ReadU64(off + hEpochNS))}

	valid := make(map[uint64]Record, capacity)
	var buf [RecordSize]byte
	var maxSeq uint64
	for i := uint64(0); i < capacity; i++ {
		dev.ReadBytes(off+HeaderSize+int(i)*RecordSize, buf[:])
		seq := binary.LittleEndian.Uint64(buf[rSeq:])
		if seq == 0 {
			continue
		}
		kind := binary.LittleEndian.Uint64(buf[rKind:])
		ts := binary.LittleEndian.Uint64(buf[rTime:])
		p0 := binary.LittleEndian.Uint64(buf[rP0:])
		p1 := binary.LittleEndian.Uint64(buf[rP1:])
		p2 := binary.LittleEndian.Uint64(buf[rP2:])
		if binary.LittleEndian.Uint64(buf[rCksum:]) != checksum(seq, kind, ts, p0, p1, p2) {
			continue // torn or stale line
		}
		if (seq-1)%capacity != i {
			continue // valid bits from an earlier format in the wrong home slot
		}
		valid[seq] = Record{Seq: seq, Kind: kind, TimeNS: ts, P0: p0, P1: p1, P2: p2, Shard: -1}
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	if maxSeq == 0 {
		tl.FirstSeq = 1
		return tl, nil
	}
	low := uint64(1)
	if maxSeq > capacity {
		low = maxSeq - capacity + 1
	}
	tl.FirstSeq = low
	for s := low; ; s++ {
		rec, ok := valid[s]
		if !ok {
			break
		}
		tl.Events = append(tl.Events, rec)
		delete(valid, s)
	}
	// Whatever valid records remain sit beyond a hole in the sequence (a
	// crash landed between their flush and an earlier record's): count
	// them, never surface them.
	for s := range valid {
		if s >= low {
			tl.Discarded++
		}
	}
	return tl, nil
}
