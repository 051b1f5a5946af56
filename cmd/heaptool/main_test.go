package main

import (
	"path/filepath"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
	"espresso/internal/pheap"
	"espresso/internal/pshard"
)

// writeScrubGallery commits a small 2-shard set and writes power-loss
// images of its shard 0 and manifest into dir as .pjh files: each clean,
// and with one checksummed structure damaged — the GC-phase word, a
// region top, the global timestamp, a torn redo batch, the manifest's
// bounds — plus a shard with a flipped magic that cannot be read at all.
func writeScrubGallery(t *testing.T, dir string) {
	t.Helper()
	store := pshard.NewMemStore()
	set, err := pshard.OpenSet(store, "gallery", pshard.Options{Shards: 2, ShardDataSize: 1 << 20, Mode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	ctx := set.NewCtx()
	for k := int64(1); k <= 200; k++ {
		if err := ctx.Put(k, k*7+11); err != nil {
			t.Fatal(err)
		}
	}
	ctx.Release()
	image := func(name string) []byte {
		dev, err := store.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		return dev.CrashImage(nvm.CrashFlushedOnly, 0)
	}
	shard, manifest := image(pshard.ShardHeapName("gallery", 0)), image(pshard.ManifestName("gallery"))

	// The targets' offsets, from a load of a copy; the same copy then
	// commits a redo batch of six no-op entries (each republishes region
	// 0's top) and is imaged with the batch's first line torn.
	dev := nvm.FromImage(append([]byte(nil), shard...), nvm.Config{Mode: nvm.Tracked})
	h, err := pheap.Load(dev, klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	topOff := h.RegionTopMetaOff(0)
	entries := make([]pheap.RedoEntry, 6)
	for i := range entries {
		entries[i] = pheap.RedoEntry{Off: topOff, Val: dev.ReadU64(topOff)}
	}
	h.RedoCommit(entries)
	redoTorn := dev.CrashImage(nvm.CrashFlushedOnly, 0)
	faultdev.CorruptLineInImage(redoTorn, h.Geo().RedoOff, 99)

	flipped := func(img []byte, off int, bit uint) []byte {
		img = append([]byte(nil), img...)
		faultdev.FlipBitInImage(img, off, bit)
		return img
	}
	for name, img := range map[string][]byte{
		"shard-golden":            shard,
		"shard-gcphase-bitflip":   flipped(shard, 208, 0), // the reserved GC-phase word
		"shard-regiontop-bitflip": flipped(shard, topOff, 2),
		"shard-timestamp-bitflip": flipped(shard, h.GlobalTSMetaOff(), 1),
		"shard-redo-torn":         redoTorn,
		"shard-badmagic":          flipped(shard, 0, 7),
		"manifest-golden":         manifest,
		"manifest-bitflip":        flipped(manifest, pshard.ManifestBoundsOff+8, 4),
	} {
		if err := nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}).Save(filepath.Join(dir, name+".pjh")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScrubExitCodes holds `heaptool scrub` to the exit-code contract of
// the package doc over writeScrubGallery's images: clean images exit 0,
// checksum-corrupted ones 4 (readable, integrity checks failed), and a
// bad-magic one 3 (cannot be interpreted at all).
func TestScrubExitCodes(t *testing.T) {
	dir := t.TempDir()
	writeScrubGallery(t, dir)
	for _, tc := range []struct {
		image string
		want  int
	}{
		{"shard-golden", 0},
		{"manifest-golden", 0},
		{"shard-gcphase-bitflip", exitCorrupt},
		{"shard-regiontop-bitflip", exitCorrupt},
		{"shard-timestamp-bitflip", exitCorrupt},
		{"shard-redo-torn", exitCorrupt},
		{"manifest-bitflip", exitCorrupt},
		{"shard-badmagic", exitUnreadable},
	} {
		if got := run([]string{"-heap", filepath.Join(dir, tc.image+".pjh"), "scrub"}); got != tc.want {
			t.Errorf("heaptool scrub %s: exit %d, want %d", tc.image, got, tc.want)
		}
	}
	// The golden shard was never closed: its open regions' tops trail, and
	// inspect reports what the load parsed above them.
	if got := run([]string{"-heap", filepath.Join(dir, "shard-golden.pjh"), "inspect"}); got != 0 {
		t.Errorf("heaptool inspect shard-golden: exit %d, want 0", got)
	}
	if got := run([]string{"-heap", filepath.Join(dir, "shard-timestamp-bitflip.pjh"), "inspect"}); got != exitCorrupt {
		t.Errorf("heaptool inspect of a flipped timestamp: exit %d, want %d", got, exitCorrupt)
	}
	if got := run([]string{"-heap", filepath.Join(dir, "no-such-image.pjh"), "scrub"}); got != exitErr {
		t.Errorf("heaptool scrub of a missing file: exit %d, want %d", got, exitErr)
	}
	if got := run([]string{"scrub"}); got != exitUsage {
		t.Errorf("heaptool scrub without -heap: exit %d, want %d", got, exitUsage)
	}
}
