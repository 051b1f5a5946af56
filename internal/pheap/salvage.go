package pheap

import (
	"fmt"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
)

// Salvage semantics. LoadSalvage opens images that the strict Load
// rejects as corrupt, under one hard rule: objects may be *lost*, never
// *fabricated*. Corruption that replay can re-derive is repaired
// (a pending redo batch rewrites every top it covers); corruption that
// cannot is amputated — the region is quarantined, zeroed, and reported
// lost, so no later walk can misinterpret its bytes as objects.
// Unreadable images (bad magic, wrong version range, size mismatch) are
// rejected in both modes: salvage repairs damage inside a recognized
// image, it does not guess at what an image is.

// SalvageReport records what LoadSalvage repaired and what it gave up.
type SalvageReport struct {
	// GCPhaseRepaired notes a reserved GC-phase word that was not idle
	// under a valid checksum, reset to idle. Always safe: nothing reads
	// the word, and an interrupted compaction is re-detected via the
	// gcActive flag.
	GCPhaseRepaired bool `json:"gc_phase_repaired,omitempty"`
	// RedoDiscarded notes a committed redo batch whose checksum failed
	// and was dropped. Safe in every reachable state: the batch's final
	// entry clears gcActive, and entries apply (and persist) in order —
	// so either gcActive still reads 1 and pgc recovery re-derives the
	// entire finish from the mark bitmap, or gcActive reads 0 and every
	// material entry had already been applied.
	RedoDiscarded bool `json:"redo_discarded,omitempty"`
	// RegionsLost lists quarantined data regions: their top line failed
	// its checksum on a clean image, so where parsing should stop is
	// unknowable. The whole region is zeroed and its objects are gone.
	RegionsLost []int `json:"regions_lost,omitempty"`
	// BytesLost is the capacity covered by RegionsLost.
	BytesLost int `json:"bytes_lost,omitempty"`
}

// Dirty reports whether the salvage pass had to change anything.
func (r *SalvageReport) Dirty() bool {
	return r != nil && (r.GCPhaseRepaired || r.RedoDiscarded || len(r.RegionsLost) > 0)
}

func (r *SalvageReport) String() string {
	if !r.Dirty() {
		return "salvage: image clean"
	}
	return fmt.Sprintf("salvage: gc_phase_repaired=%v redo_discarded=%v regions_lost=%d bytes_lost=%d",
		r.GCPhaseRepaired, r.RedoDiscarded, len(r.RegionsLost), r.BytesLost)
}

// LoadSalvage is Load with quarantine-instead-of-fail semantics for
// metadata corruption. The report is non-nil whenever the heap is (a
// clean image yields an empty report). Images that are unreadable, or
// corrupt in a way salvage cannot contain (a rotted top line on a
// mid-compaction image, where resumable compaction depends on the
// persisted state being exactly what the crashed collector left),
// still return an error.
func LoadSalvage(dev *nvm.Device, reg *klass.Registry) (*Heap, *SalvageReport, error) {
	rep := &SalvageReport{}
	h, err := load(dev, reg, rep)
	if err != nil {
		return nil, nil, err
	}
	return h, rep, nil
}

// RegionQuarantined reports whether data region r was quarantined by
// this load. The index layer consults it to drop (never resurrect)
// entries whose storage is gone.
func (h *Heap) RegionQuarantined(r int) bool {
	return h.quarantined != nil && r < len(h.quarantined) && h.quarantined[r]
}

// QuarantinedRegions lists the regions quarantined by this load.
func (h *Heap) QuarantinedRegions() []int {
	var out []int
	for r, q := range h.quarantined {
		if q {
			out = append(out, r)
		}
	}
	return out
}

// RefQuarantined reports whether ref points into a quarantined region —
// the salvage walk's "is this storage gone" predicate.
func (h *Heap) RefQuarantined(ref layout.Ref) bool {
	if h.quarantined == nil || !h.Contains(ref) {
		return false
	}
	r := (h.OffOf(ref) - h.geo.DataOff) / layout.RegionSize
	return r < len(h.quarantined) && h.quarantined[r]
}

// verifyRegionTops validates every region-top line's checksum. In
// strict mode (salv == nil) the first bad line is an error. In salvage
// mode, bad lines on a clean image quarantine their region — expanded
// over whole humongous runs, since losing any line of a run loses the
// object — and the region is zeroed so its bytes can never parse as
// objects again. On a mid-compaction image (gcActive set after redo
// processing) a bad line is not salvageable at region granularity:
// resuming compaction replays against the persisted state, and a
// fabricated replacement could move garbage. That case stays an error;
// the sharding layer degrades to shard-level quarantine instead.
func (h *Heap) verifyRegionTops(salv *SalvageReport) error {
	regions := h.geo.Regions()
	bad := make([]bool, regions)
	anyBad := false
	for r := 0; r < regions; r++ {
		off := h.RegionTopMetaOff(r)
		top := h.dev.ReadU64(off)
		sum := h.dev.ReadU64(off + 8)
		if regionTopLineValid(r, top, sum) {
			continue
		}
		if salv == nil {
			return fmt.Errorf("pheap: region %d: corrupt top line (top %#x, checksum mismatch)", r, top)
		}
		bad[r] = true
		anyBad = true
	}
	if !anyBad {
		return nil
	}
	if h.gcActive.Load() {
		return fmt.Errorf("pheap: corrupt region-top line on a mid-compaction image; not salvageable at region granularity")
	}

	// Expand quarantine over humongous runs: a head's top encodes the
	// run's end beyond its own region, interiors carry the cont
	// sentinel. Any bad region inside a valid head's span takes the
	// whole span with it; a bad region followed by cont sentinels takes
	// those too (their head is the bad region, or lost with it).
	dataRegions := h.geo.DataRegions()
	for r := 0; r < dataRegions; r++ {
		if bad[r] {
			continue
		}
		off := h.RegionTopMetaOff(r)
		top := int(h.dev.ReadU64(off))
		start := h.geo.DataOff + r*layout.RegionSize
		if top <= start+layout.RegionSize {
			continue // not a humongous head
		}
		last := (top - 1 - h.geo.DataOff) / layout.RegionSize
		infected := false
		for q := r; q <= last && q < dataRegions; q++ {
			if bad[q] {
				infected = true
				break
			}
		}
		if infected {
			for q := r; q <= last && q < dataRegions; q++ {
				bad[q] = true
			}
		}
	}
	for r := 0; r < dataRegions; r++ {
		if !bad[r] {
			continue
		}
		for q := r + 1; q < dataRegions; q++ {
			if int(h.dev.ReadU64(h.RegionTopMetaOff(q))) != regionTopHumongousCont || bad[q] {
				break
			}
			bad[q] = true
		}
	}

	h.quarantined = make([]bool, dataRegions)
	// Each region's last span is written back before the next region's
	// first store, the very last by the closing Persist.
	var last nvm.Range
	for r := 0; r < regions; r++ {
		if !bad[r] {
			continue
		}
		h.dev.Flush(last.Off, last.N)
		off := h.RegionTopMetaOff(r)
		h.dev.WriteU64(off, 0)
		h.dev.WriteU64(off+8, 0)
		last = nvm.Range{Off: off, N: 16}
		if r < dataRegions {
			// Zero the data so the region reads as untouched NVM: no
			// stale garbage can ever be re-parsed, and the dispenser may
			// hand the region out again safely.
			h.dev.Flush(last.Off, last.N)
			start := h.geo.DataOff + r*layout.RegionSize
			h.dev.Zero(start, layout.RegionSize)
			last = nvm.Range{Off: start, N: layout.RegionSize}
			h.quarantined[r] = true
			salv.RegionsLost = append(salv.RegionsLost, r)
			salv.BytesLost += layout.RegionSize
		}
	}
	h.dev.Persist(last.Off, last.N)
	return nil
}
