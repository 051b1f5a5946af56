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
func (rt *Runtime) GetLongFast(ref layout.Ref, f FieldRef) int64 {
	rt.world.RLock()
	defer rt.world.RUnlock()
	return rt.getLongFast(nil, ref, f)
}

func (rt *Runtime) getLongFast(m *Mutator, ref layout.Ref, f FieldRef) int64 {
	return int64(rt.getWord(m, ref, f.boff))
}

// SetLongFast writes a primitive field through a resolved handle. A
// ref-typed handle is rejected with a panic — a raw store to a
// reference slot would bypass the write barrier (remembered sets,
// type-based safety, SATB), the JVM-verifier-error analog.
func (rt *Runtime) SetLongFast(ref layout.Ref, f FieldRef, v int64) {
	rt.world.RLock()
	defer rt.world.RUnlock()
	rt.setLongFast(nil, ref, f, v)
}

func (rt *Runtime) setLongFast(m *Mutator, ref layout.Ref, f FieldRef, v int64) {
	if f.ftype == layout.FTRef {
		panic("core: SetLongFast through a ref field handle; use SetRefFast")
	}
	rt.setWord(m, ref, f.boff, uint64(v))
}

// GetRefFast reads a reference field through a resolved handle. The
// handle's ref-ness is enforced here (one compare), so no klass read is
// needed.
func (rt *Runtime) GetRefFast(ref layout.Ref, f FieldRef) layout.Ref {
	rt.world.RLock()
	defer rt.world.RUnlock()
	return rt.getRefFast(nil, ref, f)
}

func (rt *Runtime) getRefFast(m *Mutator, ref layout.Ref, f FieldRef) layout.Ref {
	if f.ftype != layout.FTRef {
		panic("core: GetRefFast through a " + f.ftype.String() + " field handle")
	}
	return layout.Ref(rt.getWord(m, ref, f.boff))
}

// SetRefFast writes a reference field through a resolved handle, keeping
// the full write barrier (remembered sets, type-based safety, SATB). At
// the Runtime level that is the heap's ownerless context: one buffer pair
// behind one mutex for every such store on the heap. Route stores through
// a Mutator to give them buffers of their own.
func (rt *Runtime) SetRefFast(ref layout.Ref, f FieldRef, val layout.Ref) error {
	rt.world.RLock()
	defer rt.world.RUnlock()
	return rt.setRefFast(nil, ref, f, val)
}

func (rt *Runtime) setRefFast(m *Mutator, ref layout.Ref, f FieldRef, val layout.Ref) error {
	if f.ftype != layout.FTRef {
		return fmt.Errorf("core: SetRefFast through a %s field handle", f.ftype)
	}
	return rt.storeRef(m, ref, f.boff, val)
}

// --- Bulk primitive-array transfer ---
//
// Element loops over GetLongElem/SetLongElem cost one accounted device
// op per element. These copies move the whole span with one device read
// or write, making the cost proportional to bytes, not calls.

// bulkCheck validates arr as a t-typed array covering [start, start+n)
// and returns the byte offset of element start.
func (rt *Runtime) bulkCheck(arr layout.Ref, t layout.FieldType, start, n int) (int, error) {
	k, err := rt.klassOf(nil, arr)
	if err != nil {
		return 0, err
	}
	if !k.IsArray() || k.ElemType() != t {
		return 0, fmt.Errorf("core: %s is not a %s array class", k.Name, t)
	}
	if l := rt.arrayLen(nil, arr); start < 0 || n < 0 || start+n > l {
		return 0, fmt.Errorf("core: range [%d,%d) out of bounds for length %d", start, start+n, l)
	}
	return layout.ElemOff(t, start), nil
}

// CopyLongs reads len(dst) elements of a long array starting at start
// with a single bulk device read.
func (rt *Runtime) CopyLongs(arr layout.Ref, start int, dst []int64) error {
	rt.world.RLock()
	defer rt.world.RUnlock()
	boff, err := rt.bulkCheck(arr, layout.FTLong, start, len(dst))
	if err != nil || len(dst) == 0 {
		return err
	}
	b := rt.bulkBytes(arr, boff, len(dst)*8)
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return nil
}

// WriteLongs stores src into a long array starting at element start with
// a single bulk device write.
func (rt *Runtime) WriteLongs(arr layout.Ref, start int, src []int64) error {
	rt.world.RLock()
	defer rt.world.RUnlock()
	boff, err := rt.bulkCheck(arr, layout.FTLong, start, len(src))
	if err != nil || len(src) == 0 {
		return err
	}
	if rt.vol.Contains(arr) {
		b := rt.vol.Bytes(arr, boff, len(src)*8)
		for i, v := range src {
			binary.LittleEndian.PutUint64(b[i*8:], uint64(v))
		}
		return nil
	}
	b := make([]byte, len(src)*8)
	for i, v := range src {
		binary.LittleEndian.PutUint64(b[i*8:], uint64(v))
	}
	rt.heapOf(arr).WriteBytesAt(arr, boff, b)
	return nil
}

// CopyBytes reads len(dst) elements of a byte array starting at start
// with a single bulk device read.
func (rt *Runtime) CopyBytes(arr layout.Ref, start int, dst []byte) error {
	rt.world.RLock()
	defer rt.world.RUnlock()
	boff, err := rt.bulkCheck(arr, layout.FTByte, start, len(dst))
	if err != nil || len(dst) == 0 {
		return err
	}
	copy(dst, rt.bulkBytes(arr, boff, len(dst)))
	return nil
}

// WriteBytes stores src into a byte array starting at element start with
// a single bulk device write.
func (rt *Runtime) WriteBytes(arr layout.Ref, start int, src []byte) error {
	rt.world.RLock()
	defer rt.world.RUnlock()
	boff, err := rt.bulkCheck(arr, layout.FTByte, start, len(src))
	if err != nil || len(src) == 0 {
		return err
	}
	if rt.vol.Contains(arr) {
		copy(rt.vol.Bytes(arr, boff, len(src)), src)
		return nil
	}
	rt.heapOf(arr).WriteBytesAt(arr, boff, src)
	return nil
}

// bulkBytes returns n bytes at boff of the object at ref. For volatile
// objects it is a window over the backing store; for persistent objects
// it is one accounted device read into a fresh buffer.
func (rt *Runtime) bulkBytes(ref layout.Ref, boff, n int) []byte {
	if rt.vol.Contains(ref) {
		return rt.vol.Bytes(ref, boff, n)
	}
	b := make([]byte, n)
	rt.heapOf(ref).ReadBytesAt(ref, boff, b)
	return b
}
