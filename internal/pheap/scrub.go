package pheap

import (
	"fmt"

	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/telemetry/blackbox"
)

// ScrubReport is the result of a read-only integrity walk over a raw
// heap image. Findings list detected corruption; an empty list means
// every verifiable structure verified.
type ScrubReport struct {
	FormatVersion uint64 `json:"format_version"`
	GCActive      bool   `json:"gc_active"`
	RedoPending   bool   `json:"redo_pending"`
	// RegionsChecked counts region-top lines verified.
	RegionsChecked int `json:"regions_checked"`
	// Findings describes each detected corruption, one line per fault.
	Findings []string `json:"findings,omitempty"`
}

// Corrupt reports whether the scrub found anything.
func (r *ScrubReport) Corrupt() bool { return len(r.Findings) > 0 }

// Scrub verifies a raw heap image's metadata (its checksums, and the
// self-check of the words that carry none) without loading or mutating
// it — Load would apply redo batches and plug regions, both wrong for an
// image under investigation. A committed-pending redo
// batch with a valid checksum is healthy (a crash between commit and
// apply is a designed-for state), so scrub validates it rather than
// flagging it. Returns an error only for unreadable images (any format
// version but the current one included); corruption lands in the
// report's findings.
func Scrub(dev *nvm.Device) (*ScrubReport, error) {
	geo, err := readGeometry(dev)
	if err != nil {
		return nil, err
	}

	rep := &ScrubReport{
		FormatVersion: heapVersion,
		GCActive:      dev.ReadU64(mGCActive) != 0,
		RedoPending:   dev.ReadU64(geo.RedoOff) == 1,
	}
	finding := func(format string, args ...any) {
		rep.Findings = append(rep.Findings, fmt.Sprintf(format, args...))
	}
	rep.Findings = selfCheck(dev, geo)

	phase := dev.ReadU64(mGCPhase)
	if phase != gcPhaseIdle {
		finding("gc-phase: word %d not idle", phase)
	} else if dev.ReadU64(mGCPhaseSum) != gcPhaseSum(phase) {
		finding("gc-phase: checksum mismatch (word %d)", phase)
	}

	// Redo log: the state word must decode; a committed batch must carry
	// a verifiable checksum.
	state := dev.ReadU64(geo.RedoOff)
	switch {
	case state > 1:
		finding("redo: state word %d undecodable", state)
	case state == 1:
		count := int(dev.ReadU64(geo.RedoOff + 8))
		capacity := (geo.RedoSize - 24) / 16
		if count < 0 || count > capacity {
			finding("redo: committed batch count %d exceeds capacity %d", count, capacity)
		} else if dev.ReadU64(geo.RedoOff+geo.RedoSize-8) != redoSumAt(dev, geo, count) {
			finding("redo: committed batch of %d entries fails its checksum", count)
		}
	}

	// Region-top table: every line either untouched (all zero) or
	// checksum-valid, and structurally plausible.
	for r := 0; r < geo.Regions(); r++ {
		off := geo.RegionTopOff + r*layout.RegionTopStride
		top := dev.ReadU64(off)
		sum := dev.ReadU64(off + 8)
		rep.RegionsChecked++
		if !regionTopLineValid(r, top, sum) {
			finding("region %d: top line fails its checksum (top %#x)", r, top)
			continue
		}
		start := uint64(geo.DataOff + r*layout.RegionSize)
		// top == start is the dispenser's "opened, empty" mark.
		if top != 0 && top != regionTopHumongousCont && (top < start || top > uint64(geo.DataOff+geo.DataSize)) {
			finding("region %d: top %#x outside its plausible range", r, top)
		}
	}

	// Flight-recorder ring: Decode already implements detect-don't-
	// fabricate; a header that fails to decode is a finding, torn or
	// invalid records are not (the ring is designed to lose its tail).
	if _, err := blackbox.Decode(dev, geo.BlackboxOff, geo.BlackboxSize); err != nil {
		finding("blackbox: ring undecodable: %v", err)
	}
	return rep, nil
}
