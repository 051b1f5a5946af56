package pshard

import (
	"math/rand"
	"testing"

	"espresso/internal/nvm"
)

// Property test for ReadManifest under arbitrary media corruption: flip
// random bytes in a valid manifest image and reparse. The parser may
// reject (any error) or — when the damage misses every validated field —
// still decode, but it must never panic, and whatever it returns must be
// structurally valid routing state: in-range shard count and a strictly
// increasing boundary table starting at 0. Corruption that lands inside
// the checksummed byte ranges or the version word must always be
// rejected.
func TestReadManifestUnderRandomCorruption(t *testing.T) {
	golden := nvm.New(nvm.Config{Size: ManifestDeviceSize, Mode: nvm.Tracked})
	if err := WriteManifest(golden, &Manifest{
		Shards:        7,
		Generation:    3,
		ShardDataSize: 8 << 20,
		Bounds:        EqualBounds(7),
	}); err != nil {
		t.Fatal(err)
	}
	img := golden.CrashImage(nvm.CrashFlushedOnly, 0)

	// The checksum covers state, shard count, shard size, the live
	// boundary table, and the sum word itself; the version word guards
	// itself, since only ManifestVersion parses.
	guarded := func(off int) bool {
		switch {
		case off >= 8 && off < 16:
			return true
		case off >= ManifestStateOff && off < ManifestStateOff+8:
			return true
		case off >= 24 && off < 48: // shard count + shard size words
			return off < 32 || off >= 40
		case off >= ManifestBoundsOff && off < ManifestBoundsOff+8*7:
			return true
		case off >= ManifestSumOff && off < ManifestSumOff+8:
			return true
		}
		return false
	}

	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 500; trial++ {
		cp := append([]byte(nil), img...)
		hitGuarded := false
		for i, n := 0, 1+rng.Intn(8); i < n; i++ {
			off := rng.Intn(ManifestDeviceSize)
			cp[off] ^= byte(1 + rng.Intn(255))
			hitGuarded = hitGuarded || guarded(off)
		}
		dev := nvm.FromImage(cp, nvm.Config{Mode: nvm.Tracked})
		m, err := ReadManifest(dev)
		if err != nil {
			continue
		}
		if hitGuarded {
			t.Fatalf("trial %d: corruption inside the guarded ranges parsed anyway: %+v", trial, m)
		}
		if m.Shards < 1 || m.Shards > MaxShards || len(m.Bounds) != m.Shards {
			t.Fatalf("trial %d: structurally invalid manifest accepted: %+v", trial, m)
		}
		if m.Bounds[0] != 0 {
			t.Fatalf("trial %d: boundary table does not start at 0: %+v", trial, m)
		}
		for i := 1; i < m.Shards; i++ {
			if m.Bounds[i] <= m.Bounds[i-1] {
				t.Fatalf("trial %d: boundary table not increasing: %+v", trial, m)
			}
		}
	}
}
