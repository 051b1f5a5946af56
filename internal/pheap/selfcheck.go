package pheap

import (
	"encoding/binary"
	"fmt"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
)

// The metadata self-check. The format puts checksums on the words whose
// misreading is silent and whose value nothing else determines (GC phase,
// redo batch, region tops, global timestamp, compaction progress). The
// rest of the metadata block carries none and is validated against what
// the image itself says elsewhere:
//
//   - the global timestamp must carry its checksum;
//   - the component offsets are a function of the component sizes
//     (Geometry.sanity recomputes them; a disagreement is an unreadable
//     image);
//   - the used prefixes of the Klass segment and the name arena cannot
//     exceed their areas, the Klass segment must decode record by record
//     up to its prefix, and every name-table entry's name must lie inside
//     the arena's;
//   - gcActive is a boolean: any value but 0 and 1 is rot, and whether a
//     compaction was in flight is then unknowable — neither resuming
//     recovery off a possibly stale mark bitmap nor skipping it is safe;
//   - mid-collection (gcActive 1), the compaction progress word must
//     carry its checksum: recovery redoes the moves from it on, and no
//     other word says how far the crashed cycle got. A clean image's
//     progress word is never read (the next cycle rewrites it), so it is
//     not checked there;
//   - the address hint is the base every stored address was formed under:
//     each Klass entry of the name table must address the record of the
//     class it names (the filler classes are in every image, so a rotted
//     hint always shows), and each root entry null or an address inside
//     the data heap.
//
// selfCheck runs these past the geometry and reports what fails, one line
// per fault. Load and LoadSalvage refuse an image with any finding — none
// of them can be repaired or amputated at region granularity — and Scrub
// lists them. What it cannot see: bit 0 of gcActive (both values are
// legal; docs/robustness.md).
func selfCheck(dev *nvm.Device, geo Geometry) []string {
	var findings []string
	finding := func(format string, args ...any) {
		findings = append(findings, fmt.Sprintf(format, args...))
	}
	ts := dev.ReadU64(mGlobalTS)
	if dev.ReadU64(mGlobalTSSum) != globalTSSum(ts) {
		finding("global timestamp: checksum mismatch (timestamp %d)", ts)
	}
	switch a := dev.ReadU64(mGCActive); {
	case a > 1:
		finding("gc-active: word %#x is neither 0 nor 1", a)
	case a == 1:
		if p := dev.ReadU64(mProgress); dev.ReadU64(mProgressSum) != progressSum(p) {
			finding("compaction progress: checksum mismatch (move %d)", p)
		}
	}
	ksegUsed, arenaUsed := dev.ReadU64(mKsegUsed), dev.ReadU64(mArenaUsed)
	if ksegUsed > uint64(geo.KsegSize) {
		finding("klass segment: %d bytes used of %d", ksegUsed, geo.KsegSize)
	}
	if arenaUsed > uint64(geo.ArenaSize) {
		finding("name arena: %d bytes used of %d", arenaUsed, geo.ArenaSize)
	}
	if len(findings) > 0 {
		return findings // the walks below trust the two prefixes
	}

	// Klass records, by the address a heap at this base gives them.
	base := layout.Ref(dev.ReadU64(mAddressHint))
	records := make(map[layout.Ref]string)
	for off, end := geo.KsegOff, geo.KsegOff+int(ksegUsed); off < end; {
		ri, size, err := klass.DecodeRecord(dev.View(off, end-off))
		if err != nil || size == 0 {
			finding("klass segment: record at +%d does not decode", off-geo.KsegOff)
			return findings
		}
		records[base+layout.Ref(off)] = ri.Name
		off += size
	}

	// The name table and the arena's used prefix, one bulk read each.
	table := make([]byte, geo.NameTabCap*nameEntryBytes)
	dev.ReadBytes(geo.NameTabOff, table)
	arena := make([]byte, arenaUsed)
	dev.ReadBytes(geo.ArenaOff, arena)
	dataLo, dataHi := base+layout.Ref(geo.DataOff), base+layout.Ref(geo.DataOff+geo.DataSize)
	for s := 0; s < geo.NameTabCap; s++ {
		entry := table[s*nameEntryBytes:]
		word := func(i int) uint64 { return binary.LittleEndian.Uint64(entry[8*i:]) }
		switch state := word(0); state {
		case entryStateEmpty, entryStateTombstone:
			continue
		case entryStateCommitted:
		default:
			finding("name table: entry %d has state %#x", s, state)
			continue
		}
		kind, nameLen, nameOff, value := word(2), word(3), word(4)-uint64(geo.ArenaOff), layout.Ref(word(5))
		if nameLen > arenaUsed || nameOff > arenaUsed-nameLen {
			finding("name table: entry %d names [%d,+%d) of the arena's %d used bytes", s, nameOff, nameLen, arenaUsed)
			continue
		}
		name := string(arena[nameOff : nameOff+nameLen])
		switch kind {
		case EntryKlass:
			if rec, ok := records[value]; !ok || rec != name {
				finding("name table: klass entry %q addresses %#x, which is not its record under base %#x", name, uint64(value), uint64(base))
			}
		case EntryRoot:
			if value != layout.NullRef && (value < dataLo || value >= dataHi) {
				finding("name table: root %q addresses %#x, outside the data heap under base %#x", name, uint64(value), uint64(base))
			}
		default:
			finding("name table: entry %q has kind %d", name, kind)
		}
	}
	return findings
}
