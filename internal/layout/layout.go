// Package layout defines the shared memory layout of the simulated JVM:
// word and region geometry, the two-word object header, field types, and
// the virtual address map that places the volatile spaces, the klass
// metaspace, and persistent heaps in one 64-bit address space.
//
// The layout mirrors HotSpot's: every object starts with a mark word and a
// klass word; arrays add a length word; instance fields occupy one word
// each; primitive array elements are packed by element size. The mark word
// reserves a timestamp field in the bits ParallelScavenge keeps for GC
// state — the bits Espresso reuses for its crash-consistent compaction.
package layout

import "fmt"

// Fundamental geometry.
const (
	WordSize = 8
	LineSize = 64
	// RegionSize is the persistent-space GC region size. The paper reuses
	// ParallelScavenge old-GC regions; 256 KB keeps region tables small
	// while giving the compactor enough parallel grain.
	RegionSize = 256 * 1024
	// ObjAlign is the object start/size alignment. 16 bytes guarantees any
	// allocation gap can hold a filler object (2-word minimum object).
	ObjAlign = 16
	// RegionTopStride is the byte stride of the per-region persisted-top
	// table (pheap's PLAB table): one full cache line per region, so a
	// mutator persisting its own region's top never shares a flushed line
	// with another region's top word.
	RegionTopStride = LineSize
)

// Object header geometry, in bytes from the object start.
const (
	MarkWordOff    = 0
	KlassWordOff   = 8
	HeaderBytes    = 16
	ArrayLenOff    = 16
	ArrayHdrBytes  = 24
	MinObjectBytes = HeaderBytes
)

// Ref is a virtual address of an object (or 0 for null). All spaces share
// one 64-bit address map, so a Ref alone identifies both the space and the
// object — exactly the property that lets persistent objects hold pointers
// into DRAM and vice versa.
type Ref uint64

// Virtual address map. Each region is far larger than any space will grow,
// so a Ref's space is recovered by range check.
const (
	NullRef Ref = 0
	// DefaultPJHBase is where createHeap places a new persistent heap's
	// address hint. Multiple heaps stack upward from here, region-aligned.
	DefaultPJHBase Ref = 0x0000_1000_0000_0000
	// YoungBase/OldBase anchor the volatile ParallelScavenge spaces.
	YoungBase Ref = 0x0000_4000_0000_0000
	OldBase   Ref = 0x0000_5000_0000_0000
	// MetaspaceBase anchors volatile Klass identities: the klass word of a
	// DRAM object is MetaspaceBase + id*MetaKlassStride.
	MetaspaceBase   Ref = 0x0000_7000_0000_0000
	MetaKlassStride     = 64
)

// Reference tagging. ObjAlign leaves the low four bits of every real
// object address zero; lock-free persistent structures (internal/pindex)
// store their link-state marks there, HotSpot-tagged-pointer style. Any
// code that interprets a reference slot's value as an object address —
// the marker, the compactor's reference fixing — must strip the tag
// first and, when rewriting the slot,
// carry the tag over unchanged.
const RefTagMask = Ref(ObjAlign - 1)

// UntagRef strips the low tag bits, yielding the object address.
func UntagRef(r Ref) Ref { return r &^ RefTagMask }

// RefTag extracts the low tag bits of a reference slot value.
func RefTag(r Ref) Ref { return r & RefTagMask }

// MixHash64 is the shared 64-bit hash finalizer for persisted hash
// structures: pcollections.PHashMap derives bucket placement from it
// and pindex derives its split-order keys from it. Persisted layouts
// depend on its output, so its definition must never change.
func MixHash64(k int64) uint64 {
	x := uint64(k)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// Mark word encoding:
//
//	bits 0..7   flags (low bits kept free the way HotSpot reserves them)
//	bits 8..63  GC timestamp (the "reserved PSGC bits" of the paper)
const (
	markFlagBits = 8
	markFlagMask = (1 << markFlagBits) - 1
)

// MarkWord assembles a mark word from a timestamp and flag bits.
func MarkWord(timestamp uint64, flags uint8) uint64 {
	return timestamp<<markFlagBits | uint64(flags)
}

// MarkTimestamp extracts the GC timestamp from a mark word.
func MarkTimestamp(mark uint64) uint64 { return mark >> markFlagBits }

// MarkFlags extracts the flag bits from a mark word.
func MarkFlags(mark uint64) uint8 { return uint8(mark & markFlagMask) }

// WithTimestamp returns mark with its timestamp field replaced.
func WithTimestamp(mark, timestamp uint64) uint64 {
	return timestamp<<markFlagBits | mark&markFlagMask
}

// FieldType enumerates the Java field/element types the object model
// supports. Instance fields always occupy a full word; primitive array
// elements pack at ElemSize.
type FieldType uint8

const (
	FTRef FieldType = iota
	FTLong
	FTDouble
	FTInt
	FTFloat
	FTChar
	FTShort
	FTByte
	FTBool
)

var ftNames = [...]string{"ref", "long", "double", "int", "float", "char", "short", "byte", "bool"}

func (t FieldType) String() string {
	if int(t) < len(ftNames) {
		return ftNames[t]
	}
	return fmt.Sprintf("FieldType(%d)", uint8(t))
}

// ElemSize reports the packed size of an array element of this type.
func (t FieldType) ElemSize() int {
	switch t {
	case FTRef, FTLong, FTDouble:
		return 8
	case FTInt, FTFloat:
		return 4
	case FTChar, FTShort:
		return 2
	case FTByte, FTBool:
		return 1
	default:
		panic("layout: unknown field type")
	}
}

// Valid reports whether t is a defined field type.
func (t FieldType) Valid() bool { return t <= FTBool }

// Align16 rounds n up to the object alignment.
func Align16(n int) int { return (n + ObjAlign - 1) &^ (ObjAlign - 1) }

// InstanceBytes is the aligned size of an instance with nFields one-word
// fields.
func InstanceBytes(nFields int) int { return Align16(HeaderBytes + nFields*WordSize) }

// ArrayBytes is the aligned size of an array of n elements of type t.
func ArrayBytes(t FieldType, n int) int { return Align16(ArrayHdrBytes + n*t.ElemSize()) }

// FieldOff is the byte offset of the i-th one-word instance field.
func FieldOff(i int) int { return HeaderBytes + i*WordSize }

// ElemOff is the byte offset of the i-th element of a t-typed array.
func ElemOff(t FieldType, i int) int { return ArrayHdrBytes + i*t.ElemSize() }
