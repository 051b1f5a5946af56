// Package pshard implements range-partitioned multi-heap sharding: a
// consistent-hash-range router over N fully independent persistent heaps.
// Each shard owns its own nvm.Device, klass registry, pheap region-top
// table and redo log, pindex map, collector state, and safepoint domain —
// no lock, cache line, or fence is ever shared between shards, so GC
// pauses stagger across shards instead of stacking and restart-time
// recovery fans out across them.
//
// # The manifest
//
// A sharded set is described by a small dedicated device, the manifest:
// magic, version, shard count, the hash-range boundary table, the
// per-shard heap size, and a generation counter. The crash rule of set
// creation is manifest-first: the manifest is fully written, flushed, and
// fenced before any shard heap is registered, so recovery can always
// re-derive the complete shard list from the manifest alone. A crash
// that strands a partially-created shard set is tolerated — OpenSet
// recreates any shard image the store is missing as a fresh empty shard
// (legal exactly because no operation can have committed to a shard that
// was never durably registered). After creation the manifest is
// immutable except for the generation word, which each successful open
// bumps with a single 8-byte write + flush — trivially all-old-or-all-new.
//
// # Routing
//
// Keys route by hash range: shard i owns mixed-hash values in
// [Bounds[i], Bounds[i+1]), with layout.MixHash64 as the shared persisted
// finalizer (the same one pindex buckets hash with). The boundary table
// is persisted rather than recomputed so a future resharding PR can move
// range edges without breaking routing of existing images.
package pshard

import (
	"fmt"
	"math"
	"sort"

	"espresso/internal/layout"
	"espresso/internal/nvm"
)

// ManifestMagic identifies a shard-manifest device ("ESPRSHRD").
const ManifestMagic = 0x4553_5052_5348_5244

// ManifestVersion is the one manifest format ReadManifest accepts
// (header, boundary table, metadata checksum word).
const ManifestVersion = 2

// ManifestDeviceSize is the manifest device's fixed size. 4 KB holds the
// header plus a boundary word for every shard up to MaxShards.
const ManifestDeviceSize = 4096

// MaxShards bounds the shard count (the boundary table must fit the
// manifest device; 256 is far past the point where per-shard fixed
// costs — heap metadata, bucket tables, idle PLAB regions — dominate).
const MaxShards = 256

// Manifest device field offsets.
const (
	manMagic      = 0
	manVersion    = 8
	manState      = 16
	manShards     = 24
	manGeneration = 32
	manShardSize  = 40
	manBounds     = 48 // shardCount boundary words follow
	// manSum sits past the largest possible boundary table so the
	// checksum's offset never depends on the shard count.
	manSum = manBounds + 8*MaxShards
)

// Exported manifest field offsets for fault-injection tests (the
// media-fault matrix, heaptool's scrub gallery): the state word, the
// boundary table, and the checksum word are what corruption sweeps target.
const (
	ManifestStateOff  = manState
	ManifestBoundsOff = manBounds
	ManifestSumOff    = manSum
)

// Manifest state word values.
const (
	// manifestComplete is written (and flushed) before any shard heap is
	// created; it is the only state a readable manifest can carry. The
	// constant exists so a future resharding protocol can introduce
	// transitional states without a format bump.
	manifestComplete = 1
)

// manifestSum checksums the manifest's immutable metadata: state, shard
// count, shard size, and the whole boundary table. The generation word
// is deliberately excluded — it is the manifest's one post-creation
// mutation, a single-word bump that must stay all-old-or-all-new with
// no companion write. The version word needs no cover either: only
// ManifestVersion parses, so any corruption of it is rejected outright.
// An nvm.Mix chain, like the flight recorder's and pheap's metadata sums.
func manifestSum(dev *nvm.Device, n int) uint64 {
	s := nvm.Mix(ManifestMagic, dev.ReadU64(manState))
	s = nvm.Mix(s, dev.ReadU64(manShards))
	s = nvm.Mix(s, dev.ReadU64(manShardSize))
	for i := 0; i < n; i++ {
		s = nvm.Mix(s, dev.ReadU64(manBounds+8*i))
	}
	return s
}

// Manifest is the decoded shard-set description.
type Manifest struct {
	Shards        int
	Generation    uint64
	ShardDataSize int
	// Bounds[i] is the first mixed-hash value shard i owns; shard i's
	// range is [Bounds[i], Bounds[i+1]) with the last shard owning
	// through MaxUint64. Bounds[0] is always 0.
	Bounds []uint64
}

// ManifestName derives the store name of a set's manifest device.
func ManifestName(base string) string { return base + "-manifest" }

// ShardHeapName derives the store name of shard i's heap device.
func ShardHeapName(base string, i int) string { return fmt.Sprintf("%s-s%d", base, i) }

// EqualBounds builds the boundary table for n equal hash ranges.
func EqualBounds(n int) []uint64 {
	step := math.MaxUint64 / uint64(n)
	bounds := make([]uint64, n)
	for i := 1; i < n; i++ {
		bounds[i] = uint64(i) * step
	}
	return bounds
}

// ShardOf routes a key: the shard whose range contains the key's mixed
// hash.
func (m *Manifest) ShardOf(key int64) int {
	h := layout.MixHash64(key)
	// First boundary strictly above h, minus one. Bounds[0]==0, so the
	// result is always a valid index.
	return sort.Search(len(m.Bounds), func(i int) bool { return m.Bounds[i] > h }) - 1
}

// IsManifest reports whether dev carries a shard manifest (tooling uses
// this to tell a manifest image from a heap image before parsing).
func IsManifest(dev *nvm.Device) bool {
	return dev.Size() >= manBounds && dev.ReadU64(manMagic) == ManifestMagic
}

// WriteManifest initializes dev as a complete manifest and persists it —
// every field flushed with one trailing fence. The caller must do this
// BEFORE creating any shard heap (the set-creation crash rule).
func WriteManifest(dev *nvm.Device, m *Manifest) error {
	if m.Shards < 1 || m.Shards > MaxShards {
		return fmt.Errorf("pshard: shard count %d outside [1, %d]", m.Shards, MaxShards)
	}
	if len(m.Bounds) != m.Shards || m.Bounds[0] != 0 {
		return fmt.Errorf("pshard: boundary table must have %d entries starting at 0", m.Shards)
	}
	for i := 1; i < len(m.Bounds); i++ {
		if m.Bounds[i] <= m.Bounds[i-1] {
			return fmt.Errorf("pshard: boundary table not strictly increasing at %d", i)
		}
	}
	if dev.Size() < manSum+8 {
		return fmt.Errorf("pshard: manifest device too small for %d shards", m.Shards)
	}
	dev.WriteU64(manMagic, ManifestMagic)
	dev.WriteU64(manVersion, ManifestVersion)
	dev.WriteU64(manState, manifestComplete)
	dev.WriteU64(manShards, uint64(m.Shards))
	dev.WriteU64(manGeneration, m.Generation)
	dev.WriteU64(manShardSize, uint64(m.ShardDataSize))
	for i, b := range m.Bounds {
		dev.WriteU64(manBounds+8*i, b)
	}
	dev.WriteU64(manSum, manifestSum(dev, m.Shards))
	dev.Flush(0, manBounds+8*m.Shards)
	dev.Flush(manSum, 8)
	dev.Fence()
	return nil
}

// ReadManifest decodes and validates a manifest device.
func ReadManifest(dev *nvm.Device) (*Manifest, error) {
	if !IsManifest(dev) {
		return nil, fmt.Errorf("pshard: not a shard manifest (magic %#x)", dev.ReadU64(manMagic))
	}
	if v := dev.ReadU64(manVersion); v != ManifestVersion {
		return nil, fmt.Errorf("pshard: manifest version %d, want %d", v, ManifestVersion)
	}
	if st := dev.ReadU64(manState); st != manifestComplete {
		return nil, fmt.Errorf("pshard: manifest state %d is not complete", st)
	}
	n := int(dev.ReadU64(manShards))
	if n < 1 || n > MaxShards || dev.Size() < manBounds+8*n {
		return nil, fmt.Errorf("pshard: manifest shard count %d invalid", n)
	}
	if dev.ReadU64(manSum) != manifestSum(dev, n) {
		return nil, fmt.Errorf("pshard: manifest checksum mismatch")
	}
	m := &Manifest{
		Shards:        n,
		Generation:    dev.ReadU64(manGeneration),
		ShardDataSize: int(dev.ReadU64(manShardSize)),
		Bounds:        make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		m.Bounds[i] = dev.ReadU64(manBounds + 8*i)
	}
	if m.Bounds[0] != 0 {
		return nil, fmt.Errorf("pshard: manifest boundary table does not start at 0")
	}
	for i := 1; i < n; i++ {
		if m.Bounds[i] <= m.Bounds[i-1] {
			return nil, fmt.Errorf("pshard: manifest boundary table not strictly increasing at %d", i)
		}
	}
	return m, nil
}

// bumpGeneration records a completed open: one atomic word, one flushed
// line, one fence — the manifest's only post-creation mutation.
func bumpGeneration(dev *nvm.Device, gen uint64) {
	dev.WriteU64(manGeneration, gen)
	dev.Flush(manGeneration, 8)
	dev.Fence()
}
