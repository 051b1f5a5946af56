package main

import (
	"path/filepath"
	"testing"

	"espresso/internal/experiments"
)

// TestScrubExitCodes holds `heaptool scrub` to the exit-code contract of
// the package doc over the faults experiment's image gallery: clean
// images exit 0, checksum-corrupted ones 4 (readable, integrity checks
// failed), and a bad-magic one 3 (cannot be interpreted at all).
func TestScrubExitCodes(t *testing.T) {
	dir := t.TempDir()
	if err := experiments.WriteFaultImages(experiments.Scale(10), dir); err != nil {
		t.Fatal(err)
	}
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
