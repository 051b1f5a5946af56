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
		{"shard-redo-torn", exitCorrupt},
		{"manifest-bitflip", exitCorrupt},
		{"shard-badmagic", exitUnreadable},
	} {
		if got := run([]string{"-heap", filepath.Join(dir, tc.image+".pjh"), "scrub"}); got != tc.want {
			t.Errorf("heaptool scrub %s: exit %d, want %d", tc.image, got, tc.want)
		}
	}
	if got := run([]string{"-heap", filepath.Join(dir, "no-such-image.pjh"), "scrub"}); got != exitErr {
		t.Errorf("heaptool scrub of a missing file: exit %d, want %d", got, exitErr)
	}
	if got := run([]string{"scrub"}); got != exitUsage {
		t.Errorf("heaptool scrub without -heap: exit %d, want %d", got, exitUsage)
	}
}
