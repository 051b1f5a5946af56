package pheap

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
)

// buildScrubImage populates a heap past its first data region (so
// region-granular salvage has something real to amputate) and returns
// the committed crash image plus the refs that must survive region-0
// salvage.
func buildScrubImage(t *testing.T) []byte {
	t.Helper()
	h, reg := testHeap(t, Config{DataSize: 1 << 20})
	big, err := reg.Define(klass.MustInstance("Big", nil, manyFields(65)...))
	if err != nil {
		t.Fatal(err)
	}
	n := layout.RegionSize/big.SizeOf(0) + 40 // spill well into region 1
	for i := 0; i < n; i++ {
		if _, err := h.Alloc(big, 0); err != nil {
			t.Fatal(err)
		}
	}
	h.Device().FlushAll()
	return h.Device().CrashImage(nvm.CrashFlushedOnly, 0)
}

func imgDev(img []byte) *nvm.Device {
	cp := append([]byte(nil), img...)
	return nvm.FromImage(cp, nvm.Config{Mode: nvm.Tracked})
}

func TestScrubCleanImage(t *testing.T) {
	img := buildScrubImage(t)
	rep, err := Scrub(imgDev(img))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt() {
		t.Fatalf("clean image scrubbed dirty: %v", rep.Findings)
	}
	if rep.RegionsChecked == 0 {
		t.Fatal("scrub checked no region-top lines")
	}
}

func TestScrubRejectsUnreadableImage(t *testing.T) {
	img := buildScrubImage(t)
	faultdev.FlipBitInImage(img, 0, 5) // heap magic
	if _, err := Scrub(imgDev(img)); err == nil {
		t.Fatal("bad-magic image scrubbed without error; unreadable must stay distinct from corrupt")
	}
	if _, _, err := LoadSalvage(imgDev(img), klass.NewRegistry()); err == nil {
		t.Fatal("salvage opened an unrecognizable image")
	}
}

// TestFlippedVersionBitDoesNotBlessCorruption: the version word sits
// outside every checksum, and one bit flip takes the current version to
// its neighbours (7→6 is bit 0). An upgrade ladder re-stamped every
// checksum from the media as read, so a rotted region-top line loaded
// clean. Only the current version opens: every front door refuses a
// version word of 6 or 8, on an otherwise valid image and on one with a
// rotted region-top line alike.
func TestFlippedVersionBitDoesNotBlessCorruption(t *testing.T) {
	clean := buildScrubImage(t)
	h0, err := Load(imgDev(clean), klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	rotted := append([]byte(nil), clean...)
	faultdev.CorruptLineInImage(rotted, h0.RegionTopMetaOff(1), 7)
	for _, version := range []uint64{heapVersion - 1, heapVersion + 1} {
		for name, img := range map[string][]byte{"valid": clean, "rotted top": rotted} {
			dev := func() *nvm.Device {
				d := imgDev(img)
				d.WriteU64(mVersion, version)
				return d
			}
			tag := fmt.Sprintf("version %d, %s image", version, name)
			if _, err := Load(dev(), klass.NewRegistry()); err == nil {
				t.Errorf("%s: strict load accepted it", tag)
			}
			if _, _, err := LoadSalvage(dev(), klass.NewRegistry()); err == nil {
				t.Errorf("%s: salvage load accepted it", tag)
			}
			if _, err := Scrub(dev()); err == nil {
				t.Errorf("%s: scrub read it", tag)
			}
			if _, _, err := BlackboxRegion(dev()); err == nil {
				t.Errorf("%s: BlackboxRegion accepted it", tag)
			}
		}
	}
}

// TestGCPhaseCorruptionDetectedAndSalvaged: the reserved phase word must
// read idle under a valid checksum. Anything else — a rotted checksum, or
// the valid-checksum 1 an older process persisted when it crashed during
// a concurrent mark — is corruption: scrub reports it, strict load
// refuses it, salvage resets the word to idle without amputating.
func TestGCPhaseCorruptionDetectedAndSalvaged(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(img []byte)
	}{
		{"checksum-bit-flip", func(img []byte) { faultdev.FlipBitInImage(img, mGCPhaseSum, 0) }},
		{"valid-concurrent-mark-word", func(img []byte) {
			binary.LittleEndian.PutUint64(img[mGCPhase:], 1)
			binary.LittleEndian.PutUint64(img[mGCPhaseSum:], gcPhaseSum(1))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := buildScrubImage(t)
			tc.corrupt(img)

			rep, err := Scrub(imgDev(img))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Corrupt() || !strings.Contains(rep.Findings[0], "gc-phase") {
				t.Fatalf("findings = %v, want a gc-phase finding", rep.Findings)
			}
			if _, err := Load(imgDev(img), klass.NewRegistry()); err == nil {
				t.Fatal("strict load accepted the phase word")
			}
			h, salv, err := LoadSalvage(imgDev(img), klass.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			if !salv.GCPhaseRepaired || !salv.Dirty() {
				t.Fatalf("salvage report %+v, want GCPhaseRepaired", salv)
			}
			if len(salv.RegionsLost) != 0 {
				t.Fatalf("gc-phase repair lost regions %v; repair must not amputate", salv.RegionsLost)
			}
			dev := h.Device()
			if p, sum := dev.ReadU64(mGCPhase), dev.ReadU64(mGCPhaseSum); p != gcPhaseIdle || sum != gcPhaseSum(gcPhaseIdle) {
				t.Fatalf("repaired phase word = %d (checksum %#x), want idle under a valid checksum", p, sum)
			}
		})
	}
}

// TestProgressWordCorruptionRefusedMidCollection: on a mid-collection
// image the compaction progress word says which moves recovery redoes,
// and nothing can re-derive it — a flipped bit of the word or of its
// checksum is refused by both loaders and flagged by scrub. On a clean
// image the word is never read, and the same flip loads.
func TestProgressWordCorruptionRefusedMidCollection(t *testing.T) {
	h, _ := testHeap(t, Config{DataSize: 1 << 20})
	h.SetGCState(h.GlobalTS()+1, true)
	h.PersistCompactProgress(5)
	mid := h.Device().CrashImage(nvm.CrashFlushedOnly, 0)
	if re, err := Load(imgDev(mid), klass.NewRegistry()); err != nil {
		t.Fatalf("intact mid-collection image: %v", err)
	} else if p := re.CompactProgress(); p != 5 {
		t.Fatalf("intact mid-collection image: progress %d, want 5", p)
	}
	for _, off := range []int{mProgress, mProgressSum} {
		img := append([]byte(nil), mid...)
		faultdev.FlipBitInImage(img, off, 1)
		if rep, err := Scrub(imgDev(img)); err != nil || !rep.Corrupt() || !strings.Contains(rep.Findings[0], "compaction progress") {
			t.Fatalf("flip at +%d: scrub %v, %v; want a compaction-progress finding", off, rep, err)
		}
		if _, err := Load(imgDev(img), klass.NewRegistry()); err == nil {
			t.Fatalf("flip at +%d: strict load accepted the progress word", off)
		}
		if _, _, err := LoadSalvage(imgDev(img), klass.NewRegistry()); err == nil {
			t.Fatalf("flip at +%d: salvage accepted the progress word", off)
		}
	}
	clean := buildScrubImage(t)
	faultdev.FlipBitInImage(clean, mProgress, 1)
	if _, err := Load(imgDev(clean), klass.NewRegistry()); err != nil {
		t.Fatalf("a clean image's unread progress word refused the load: %v", err)
	}
}

func TestRegionTopCorruptionQuarantinesOnlyItsRegion(t *testing.T) {
	img := buildScrubImage(t)
	h0, err := Load(imgDev(img), klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	faultdev.CorruptLineInImage(img, h0.RegionTopMetaOff(1), 7)

	rep, err := Scrub(imgDev(img))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Corrupt() {
		t.Fatal("scrub missed a rotted region-top line")
	}
	if _, err := Load(imgDev(img), klass.NewRegistry()); err == nil {
		t.Fatal("strict load accepted a corrupt region-top line")
	}
	h, salv, err := LoadSalvage(imgDev(img), klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if len(salv.RegionsLost) != 1 || salv.RegionsLost[0] != 1 {
		t.Fatalf("RegionsLost = %v, want exactly region 1", salv.RegionsLost)
	}
	if salv.BytesLost != layout.RegionSize {
		t.Fatalf("BytesLost = %d, want one region", salv.BytesLost)
	}
	if !h.RegionQuarantined(1) || h.RegionQuarantined(0) {
		t.Fatalf("quarantine map wrong: %v", h.QuarantinedRegions())
	}
	// The surviving regions still parse, and nothing parses out of the
	// zeroed region (never fabricate).
	count := 0
	if err := h.ForEachObject(func(off int, k *klass.Klass, size int) bool {
		if off >= h.Geo().DataOff+layout.RegionSize && off < h.Geo().DataOff+2*layout.RegionSize {
			t.Fatalf("object parsed out of the quarantined region at %d", off)
		}
		if !IsFiller(k) {
			count++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("salvage lost the healthy regions too")
	}
	// The salvaged image reloads strictly: the quarantine is durable.
	img2 := h.Device().CrashImage(nvm.CrashFlushedOnly, 0)
	if _, err := Load(imgDev(img2), klass.NewRegistry()); err != nil {
		t.Fatalf("salvaged image does not reload strictly: %v", err)
	}
}

func TestRedoCorruptionDetectedAndDiscarded(t *testing.T) {
	img := buildScrubImage(t)
	// Re-create a committed-pending batch (six no-op entries so the batch
	// spills past the redo log's first cache line), then rot one entry.
	dev := imgDev(img)
	h0, err := Load(dev, klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	geo := h0.Geo()
	topOff := h0.RegionTopMetaOff(0)
	topVal := dev.ReadU64(topOff)
	entries := make([]RedoEntry, 6)
	for i := range entries {
		entries[i] = RedoEntry{Off: topOff, Val: topVal}
	}
	h0.RedoCommit(entries)
	pending := dev.CrashImage(nvm.CrashFlushedOnly, 0)

	// Sanity: the committed-pending image is healthy as-is.
	if rep, err := Scrub(imgDev(pending)); err != nil || rep.Corrupt() || !rep.RedoPending {
		t.Fatalf("pending image: rep=%+v err=%v, want clean with RedoPending", rep, err)
	}

	faultdev.FlipBitInImage(pending, geo.RedoOff+24, 3) // first entry's value word
	rep, err := Scrub(imgDev(pending))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Corrupt() || !strings.Contains(rep.Findings[0], "redo") {
		t.Fatalf("findings = %v, want a redo checksum finding", rep.Findings)
	}
	if _, err := Load(imgDev(pending), klass.NewRegistry()); err == nil {
		t.Fatal("strict load applied a corrupt redo batch")
	}
	h, salv, err := LoadSalvage(imgDev(pending), klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if !salv.RedoDiscarded {
		t.Fatalf("salvage report %+v, want RedoDiscarded", salv)
	}
	if h.RedoPending() {
		t.Fatal("discarded batch still reads as pending")
	}
}
