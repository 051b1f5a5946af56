package pheap

import (
	"fmt"
	"maps"

	"espresso/internal/klass"
	"espresso/internal/layout"
)

// The Klass segment stores serialized Klass records. A record's address is
// the value object headers carry in their klass word, so records are
// immortal and never move; on load they are "re-initialized in place" by
// re-binding each record to a runtime Klass descriptor (paper §3.3).
//
// Record append protocol: write the record bytes, flush them, fence, then
// persist the bumped ksegUsed. A crash before the bump leaves the bytes
// unreachable (the next append overwrites them); a crash after the bump
// exposes only fully persisted records.
//
// The volatile side is two address maps, record address → Klass and name
// → record address, read by every KlassOf. They are copy-on-write: every
// writer holds h.mu (EnsureKlass, Rebase) or runs before the heap is
// published (Load's reinitKlasses), builds new maps and swaps one pointer,
// so a lookup is a pointer load and a map read, with no lock and no
// shared line written.

// klassMaps is the segment's address maps at one point in time. It is
// replaced whole, never modified.
type klassMaps struct {
	byAddr map[layout.Ref]*klass.Klass
	byName map[string]layout.Ref
}

// with returns a copy of m with k's record at addr added.
func (m *klassMaps) with(addr layout.Ref, k *klass.Klass) *klassMaps {
	n := &klassMaps{
		byAddr: make(map[layout.Ref]*klass.Klass, len(m.byAddr)+1),
		byName: make(map[string]layout.Ref, len(m.byName)+1),
	}
	maps.Copy(n.byAddr, m.byAddr)
	maps.Copy(n.byName, m.byName)
	n.byAddr[addr] = k
	n.byName[k.Name] = addr
	return n
}

// EnsureKlass returns the Klass-record address for k, appending a record
// (and its superclasses' records, transitively) on first use — the paper's
// "set by JVM when an object is created in NVM while its Klass does not
// exist in the Klass segment".
func (h *Heap) EnsureKlass(k *klass.Klass) (layout.Ref, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ensureKlassLocked(k)
}

func (h *Heap) ensureKlassLocked(k *klass.Klass) (layout.Ref, error) {
	if addr, ok := h.KlassAddr(k); ok {
		return addr, nil
	}
	if k.Super != nil {
		if _, err := h.ensureKlassLocked(k.Super); err != nil {
			return 0, err
		}
	}
	rec := klass.EncodeRecord(k)
	if h.ksegUsed+len(rec) > h.geo.KsegSize {
		return 0, fmt.Errorf("pheap: klass segment full while adding %s", k.Name)
	}
	off := h.geo.KsegOff + h.ksegUsed
	h.dev.WriteBytes(off, rec)
	h.dev.Flush(off, len(rec))
	h.dev.Fence()
	h.ksegUsed += len(rec)
	h.persistU64(mKsegUsed, uint64(h.ksegUsed))

	addr := h.AddrOf(off)
	h.kseg.Store(h.kseg.Load().with(addr, k))
	if err := h.putEntryLocked(EntryKlass, k.Name, uint64(addr)); err != nil {
		return 0, err
	}
	return addr, nil
}

// reinitKlasses walks the segment on load, materializing each record into
// a registry Klass (defining it if the application has not) and rebuilding
// the address maps. Load cost is proportional to the number of Klasses.
func (h *Heap) reinitKlasses() error {
	m := &klassMaps{byAddr: make(map[layout.Ref]*klass.Klass), byName: make(map[string]layout.Ref)}
	h.kseg.Store(m)
	off := h.geo.KsegOff
	end := h.geo.KsegOff + h.ksegUsed
	for off < end {
		ri, size, err := klass.DecodeRecord(h.dev.View(off, end-off))
		if err != nil {
			return fmt.Errorf("pheap: klass segment at +%d: %w", off-h.geo.KsegOff, err)
		}
		if size == 0 {
			return fmt.Errorf("pheap: klass segment truncated at +%d", off-h.geo.KsegOff)
		}
		k, err := ri.ToKlass(func(super string) (*klass.Klass, error) {
			if sk, ok := h.reg.Lookup(super); ok {
				return sk, nil
			}
			return nil, fmt.Errorf("pheap: klass %s: superclass %s not seen before it", ri.Name, super)
		})
		if err != nil {
			return err
		}
		canon, err := h.reg.Define(k)
		if err != nil {
			return fmt.Errorf("pheap: reinitializing %s: %w", ri.Name, err)
		}
		// Nobody else has the heap yet: fill the maps in place.
		addr := h.AddrOf(off)
		m.byAddr[addr] = canon
		m.byName[canon.Name] = addr
		off += size
	}
	return nil
}

// KlassByAddr resolves a Klass-record address (an object's klass word)
// to its runtime descriptor.
func (h *Heap) KlassByAddr(addr layout.Ref) (*klass.Klass, bool) {
	k, ok := h.kseg.Load().byAddr[addr]
	return k, ok
}

// KlassAddr reports the record address of a klass already present in the
// segment.
func (h *Heap) KlassAddr(k *klass.Klass) (layout.Ref, bool) {
	addr, ok := h.kseg.Load().byName[k.Name]
	return addr, ok
}

// KlassCount reports how many Klass records the segment holds.
func (h *Heap) KlassCount() int { return len(h.kseg.Load().byAddr) }
