package pheap

import (
	"fmt"
	"maps"

	"espresso/internal/layout"
	"espresso/internal/nvm"
)

// The name table (paper §3.1) maps string constants to Klass entries and
// root entries. It is an open-addressing hash table whose 64-byte entries
// each occupy exactly one cache line, so an insert commits with a single
// flush of the entry line after its name bytes are persisted in the arena:
//
//	entry := { state u64; hash u64; kind u64; nameLen u64;
//	           nameOff u64; value u64; pad u64[2] }
//
// state is written last; a crash mid-insert leaves state==0 and the slot
// reads as empty. Updating an existing entry overwrites only the 8-byte
// value, which persists atomically.
//
// The durable bytes answer *what* a name maps to; a volatile slot index
// (Heap.slots, kind+name → slot) answers *where* its entry is, so a lookup
// that hits costs one map-pointer load, one map lookup and one device read
// of the value word, takes no lock and allocates nothing. The index is
// copy-on-write under h.mu, starts empty with every Create and Load (so
// loading reads the table exactly as before), learns a name the first time
// a locked probe finds it, and forgets it when RemoveRoot tombstones it.
//
// Why the lock-free read cannot return another name's value: a hit loads
// the index pointer p, looks up the slot, reads the value word and
// reloads the pointer, and returns the value only if the pointer is still
// p (otherwise it takes the locked probe). A slot changes names only by
// an insert into a tombstone, a tombstone is only written by RemoveRoot,
// and RemoveRoot swaps the pointer before it releases h.mu, so before any
// insert can reuse the slot. Atomics are sequentially consistent: a reader
// that sees p again after its value read did that read before the swap,
// hence before the reuse. Value words are therefore stored with single
// atomic stores wherever a reader may run beside them (both paths of
// putEntryLocked); the GC's redo and Rebase store with the world stopped
// and keep plain stores.
const nameEntryBytes = 64

// entryValueOff is the value word's offset inside an entry.
const entryValueOff = 40

const (
	entryStateEmpty     = 0
	entryStateCommitted = 1
	entryStateTombstone = 2
)

// Entry kinds.
const (
	// EntryKlass maps a class name to its Klass record address.
	EntryKlass = 1
	// EntryRoot maps a root name to a root object address (paper: "the
	// only known entry points to access the objects in data heap").
	EntryRoot = 2
)

func nameHash(name string) uint64 {
	// FNV-1a.
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	if h == 0 {
		h = 1
	}
	return h
}

func (h *Heap) entryOff(slot int) int { return h.geo.NameTabOff + slot*nameEntryBytes }

// nameKey is a name-table key in the slot index.
type nameKey struct {
	kind uint64
	name string
}

// findSlot probes for (kind, name), counting its reads in v. It returns
// the matching slot, or the first insertable slot and found=false. The
// caller holds h.mu.
func (h *Heap) findSlot(v *nvm.View, kind uint64, name string) (slot int, found bool, err error) {
	hash := nameHash(name)
	cap := h.geo.NameTabCap
	insertAt := -1
	for i := 0; i < cap; i++ {
		s := int((hash + uint64(i)) % uint64(cap))
		off := h.entryOff(s)
		switch v.ReadU64(off) {
		case entryStateEmpty:
			if insertAt < 0 {
				insertAt = s
			}
			return insertAt, false, nil
		case entryStateTombstone:
			if insertAt < 0 {
				insertAt = s
			}
		case entryStateCommitted:
			if v.ReadU64(off+8) == hash && v.ReadU64(off+16) == kind {
				nameLen := int(v.ReadU64(off + 24))
				nameOff := int(v.ReadU64(off + 32))
				if nameLen == len(name) && string(h.dev.View(nameOff, nameLen)) == name {
					return s, true, nil
				}
			}
		}
	}
	if insertAt >= 0 {
		return insertAt, false, nil
	}
	return 0, false, fmt.Errorf("pheap: name table full (%d entries)", cap)
}

// putEntry inserts or updates (kind, name) → value with the crash-safe
// commit protocol described above.
func (h *Heap) putEntry(kind uint64, name string, value uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.putEntryLocked(kind, name, value)
}

func (h *Heap) putEntryLocked(kind uint64, name string, value uint64) error {
	slot, found, err := h.findSlot(h.view, kind, name)
	if err != nil {
		return err
	}
	off := h.entryOff(slot)
	if found {
		h.dev.WriteU64Atomic(off+entryValueOff, value)
		h.dev.Persist(off+entryValueOff, 8)
		return nil
	}
	// New entry: persist the name bytes first, then the entry line with
	// state written last.
	if h.arenaUsed+len(name) > h.geo.ArenaSize {
		return fmt.Errorf("pheap: name arena full")
	}
	nameOff := h.geo.ArenaOff + h.arenaUsed
	h.dev.WriteBytes(nameOff, []byte(name))
	h.dev.Persist(nameOff, len(name))
	h.arenaUsed += len(name)
	h.dev.WriteU64(mArenaUsed, uint64(h.arenaUsed))
	h.dev.Persist(mArenaUsed, 8)

	h.dev.WriteU64(off+8, nameHash(name))
	h.dev.WriteU64(off+16, kind)
	h.dev.WriteU64(off+24, uint64(len(name)))
	h.dev.WriteU64(off+32, uint64(nameOff))
	// Atomic: a reader holding an index from before the slot's last
	// RemoveRoot may be loading this word; it will discard what it reads.
	h.dev.WriteU64Atomic(off+entryValueOff, value)
	h.dev.WriteU64(off, entryStateCommitted) // commit point
	h.dev.Persist(off, nameEntryBytes)
	return nil
}

// getEntry looks up (kind, name), counting in x's view: through the slot
// index when it knows the name (see the top of this file), by the locked
// probe otherwise, which teaches the index a name it finds.
func (x Access) getEntry(kind uint64, name string) (uint64, bool) {
	h := x.heap
	if p := h.slots.Load(); p != nil {
		if s, ok := (*p)[nameKey{kind, name}]; ok {
			v := x.view.ReadU64Atomic(h.entryOff(s) + entryValueOff)
			if h.slots.Load() == p {
				return v, true
			}
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	slot, found, err := h.findSlot(x.view, kind, name)
	if err != nil || !found {
		return 0, false
	}
	h.indexLocked(nameKey{kind, name}, slot)
	return x.view.ReadU64(h.entryOff(slot) + entryValueOff), true
}

// indexLocked records k → slot in the slot index unless it is there
// already; unindexLocked drops k. Both copy the map and swap the pointer,
// so a reader's map never changes under it. The caller holds h.mu.
func (h *Heap) indexLocked(k nameKey, slot int) {
	var cur map[nameKey]int
	if p := h.slots.Load(); p != nil {
		if s, ok := (*p)[k]; ok && s == slot {
			return
		}
		cur = *p
	}
	m := make(map[nameKey]int, len(cur)+1)
	maps.Copy(m, cur)
	m[k] = slot
	h.slots.Store(&m)
}

func (h *Heap) unindexLocked(k nameKey) {
	p := h.slots.Load()
	if p == nil {
		return
	}
	if _, ok := (*p)[k]; !ok {
		return
	}
	m := maps.Clone(*p)
	delete(m, k)
	h.slots.Store(&m)
}

// SetRoot marks the object at ref as a root under the given name
// (Table 1: setRoot). The entry names ref, so a header ref's allocation
// deferred is settled first.
func (h *Heap) SetRoot(name string, ref layout.Ref) error {
	if ref != layout.NullRef && !h.Contains(ref) {
		return fmt.Errorf("pheap: setRoot %q: %#x is not in this heap", name, uint64(ref))
	}
	h.ownerless.Settle(ref)
	return h.putEntry(EntryRoot, name, uint64(ref))
}

// GetRoot fetches a root object address (Table 1: getRoot). The second
// result reports whether the root exists. The lookup counts in x's view:
// a mutator's own through its allocator, the shared counters through the
// heap's.
func (x Access) GetRoot(name string) (layout.Ref, bool) {
	v, ok := x.getEntry(EntryRoot, name)
	return layout.Ref(v), ok
}

// RemoveRoot tombstones a root entry so its object may be collected. The
// slot index forgets the name after the tombstone store and before h.mu
// is released: from then on the slot may be reused.
func (h *Heap) RemoveRoot(name string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	slot, found, err := h.findSlot(h.view, EntryRoot, name)
	if err != nil || !found {
		return false
	}
	off := h.entryOff(slot)
	h.dev.WriteU64(off, entryStateTombstone)
	h.unindexLocked(nameKey{EntryRoot, name})
	h.dev.Persist(off, 8)
	return true
}

// Root describes one root entry.
type Root struct {
	Name string
	Ref  layout.Ref
	// ValueOff is the device offset of the entry's value word; the GC
	// patches it through the redo log when the root object moves.
	ValueOff int
}

// Roots lists all committed root entries.
func (h *Heap) Roots() []Root {
	h.mu.Lock()
	defer h.mu.Unlock()
	var roots []Root
	for s := 0; s < h.geo.NameTabCap; s++ {
		off := h.entryOff(s)
		if h.dev.ReadU64(off) != entryStateCommitted || h.dev.ReadU64(off+16) != EntryRoot {
			continue
		}
		nameLen := int(h.dev.ReadU64(off + 24))
		nameOff := int(h.dev.ReadU64(off + 32))
		roots = append(roots, Root{
			Name:     string(h.dev.View(nameOff, nameLen)),
			Ref:      layout.Ref(h.dev.ReadU64(off + entryValueOff)),
			ValueOff: off + entryValueOff,
		})
	}
	return roots
}

// KlassEntry looks up the Klass record address for a class name.
func (h *Heap) KlassEntry(name string) (layout.Ref, bool) {
	v, ok := h.getEntry(EntryKlass, name)
	return layout.Ref(v), ok
}
