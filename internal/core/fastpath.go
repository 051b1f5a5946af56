package core

import (
	"encoding/binary"
	"fmt"

	"espresso/internal/klass"
	"espresso/internal/layout"
)

// The resolved-accessor fast path. GetLong/SetRef and friends re-resolve
// the klass (a device read of the klass word) and the field name (a map
// lookup) on every call — per-API-call overhead the paper's direct object
// access is supposed to remove. A FieldRef is resolved once, like a
// resolved constant-pool entry in compiled bytecode; accesses through it
// cost one device word op plus the write barrier, nothing else.

// FieldRef is a resolved field handle: klass identity, byte offset, and
// field type, fixed at resolve time. The zero FieldRef is invalid.
//
// A FieldRef carries no object identity: like a field offset baked into
// JIT-compiled code, using it against an object of an unrelated class
// reads whichever slot sits at that offset. Resolve against the class (or
// a superclass) of the objects it will access.
type FieldRef struct {
	klassID int
	boff    int
	ftype   layout.FieldType
}

// Offset reports the field's byte offset within the object.
func (f FieldRef) Offset() int { return f.boff }

// Type reports the field's declared type.
func (f FieldRef) Type() layout.FieldType { return f.ftype }

// KlassID reports the registry slot of the class the handle was
// resolved against — the handle's provenance, for diagnostics and for
// callers that cache handles per class.
func (f FieldRef) KlassID() int { return f.klassID }

// ResolveField resolves a named field of k to a reusable handle. The
// class is defined in the registry as a side effect, exactly as the slow
// path does on first touch.
func (rt *Runtime) ResolveField(k *klass.Klass, name string) (FieldRef, error) {
	canon, err := rt.Reg.Define(k)
	if err != nil {
		return FieldRef{}, err
	}
	rf, ok := canon.Resolve(name)
	if !ok {
		return FieldRef{}, fmt.Errorf("core: class %s has no field %q", canon.Name, name)
	}
	return FieldRef{klassID: rf.KlassID, boff: rf.Off, ftype: rf.Type}, nil
}

// MustResolveField is ResolveField for static handle tables; panics on
// error.
func (rt *Runtime) MustResolveField(k *klass.Klass, name string) FieldRef {
	f, err := rt.ResolveField(k, name)
	if err != nil {
		panic(err)
	}
	return f
}

// GetLongFast reads a primitive field through a resolved handle: one
// device word read, no name map, no klass read, no error allocation.
// Reading a ref-typed field this way is permitted (it returns the raw
// slot bits; reads need no barrier).
func (a *Accessor) GetLongFast(ref layout.Ref, f FieldRef) int64 {
	defer a.exit(a.enter())
	return int64(a.getWord(ref, f.boff))
}

// SetLongFast writes a primitive field through a resolved handle. A
// ref-typed handle is rejected with a panic — a raw store to a
// reference slot would bypass the write barrier (remembered sets,
// type-based safety), the JVM-verifier-error analog.
func (a *Accessor) SetLongFast(ref layout.Ref, f FieldRef, v int64) {
	defer a.exit(a.enter())
	if f.ftype == layout.FTRef {
		panic("core: SetLongFast through a ref field handle; use SetRefFast")
	}
	a.setWord(ref, f.boff, uint64(v))
}

// GetRefFast reads a reference field through a resolved handle. The
// handle's ref-ness is enforced here (one compare), so no klass read is
// needed.
func (a *Accessor) GetRefFast(ref layout.Ref, f FieldRef) layout.Ref {
	defer a.exit(a.enter())
	if f.ftype != layout.FTRef {
		panic("core: GetRefFast through a " + f.ftype.String() + " field handle")
	}
	return layout.Ref(a.getWord(ref, f.boff))
}

// SetRefFast writes a reference field through a resolved handle, keeping
// the full write barrier (remembered sets, type-based safety). On a
// Runtime that is the heap's ownerless context, on a Mutator its own.
func (a *Accessor) SetRefFast(ref layout.Ref, f FieldRef, val layout.Ref) error {
	defer a.exit(a.enter())
	if f.ftype != layout.FTRef {
		return fmt.Errorf("core: SetRefFast through a %s field handle", f.ftype)
	}
	return a.storeRef(ref, f.boff, val)
}

// --- Bulk primitive-array transfer ---
//
// Element loops over GetLongElem/SetLongElem cost one accounted device
// op per element. These copies move the whole span with one device read
// or write, making the cost proportional to bytes, not calls.

// bulkCheck validates arr as a t-typed array covering [start, start+n)
// and returns the byte offset of element start.
func (a *Accessor) bulkCheck(arr layout.Ref, t layout.FieldType, start, n int) (int, error) {
	k, err := a.klassOf(arr)
	if err != nil {
		return 0, err
	}
	if !k.IsArray() || k.ElemType() != t {
		return 0, fmt.Errorf("core: %s is not a %s array class", k.Name, t)
	}
	if l := a.arrayLen(arr); start < 0 || n < 0 || start+n > l {
		return 0, fmt.Errorf("core: range [%d,%d) out of bounds for length %d", start, start+n, l)
	}
	return layout.ElemOff(t, start), nil
}

// CopyLongs reads len(dst) elements of a long array starting at start
// with a single bulk device read.
func (a *Accessor) CopyLongs(arr layout.Ref, start int, dst []int64) error {
	defer a.exit(a.enter())
	boff, err := a.bulkCheck(arr, layout.FTLong, start, len(dst))
	if err != nil || len(dst) == 0 {
		return err
	}
	b := a.readBytes(arr, boff, len(dst)*8)
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return nil
}

// WriteLongs stores src into a long array starting at element start with
// a single bulk device write.
func (a *Accessor) WriteLongs(arr layout.Ref, start int, src []int64) error {
	defer a.exit(a.enter())
	boff, err := a.bulkCheck(arr, layout.FTLong, start, len(src))
	if err != nil || len(src) == 0 {
		return err
	}
	// Encoded in place for a volatile array, staged for one device write
	// for a persistent one.
	x := a.ctxOf(arr)
	var b []byte
	if x != nil {
		b = make([]byte, len(src)*8)
	} else {
		b = a.rt.vol.Bytes(arr, boff, len(src)*8)
	}
	for i, v := range src {
		binary.LittleEndian.PutUint64(b[i*8:], uint64(v))
	}
	if x != nil {
		x.WriteBytesAt(arr, boff, b)
	}
	return nil
}

// CopyBytes reads len(dst) elements of a byte array starting at start
// with a single bulk device read.
func (a *Accessor) CopyBytes(arr layout.Ref, start int, dst []byte) error {
	defer a.exit(a.enter())
	boff, err := a.bulkCheck(arr, layout.FTByte, start, len(dst))
	if err != nil || len(dst) == 0 {
		return err
	}
	copy(dst, a.readBytes(arr, boff, len(dst)))
	return nil
}

// WriteBytes stores src into a byte array starting at element start with
// a single bulk device write.
func (a *Accessor) WriteBytes(arr layout.Ref, start int, src []byte) error {
	defer a.exit(a.enter())
	boff, err := a.bulkCheck(arr, layout.FTByte, start, len(src))
	if err != nil || len(src) == 0 {
		return err
	}
	a.writeBytes(arr, boff, src)
	return nil
}

// readBytes returns n bytes at boff of the object at ref. For volatile
// objects it is a window over the backing store; for persistent objects
// it is one accounted device read into a fresh buffer.
func (a *Accessor) readBytes(ref layout.Ref, boff, n int) []byte {
	if x := a.ctxOf(ref); x != nil {
		b := make([]byte, n)
		x.ReadBytesAt(ref, boff, b)
		return b
	}
	return a.rt.vol.Bytes(ref, boff, n)
}

// writeBytes stores p at boff of the object at ref: a copy into the
// backing store for a volatile object, one accounted device write for a
// persistent one.
func (a *Accessor) writeBytes(ref layout.Ref, boff int, p []byte) {
	if x := a.ctxOf(ref); x != nil {
		x.WriteBytesAt(ref, boff, p)
		return
	}
	copy(a.rt.vol.Bytes(ref, boff, len(p)), p)
}
