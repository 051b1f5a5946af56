package nvm

// Mix folds the word w into the running sum s: the seeded
// xor-multiply-shift step under every checksum persisted on a device —
// pheap's metadata words, the flight recorder's records, the shard
// manifest, the undo log's record tags. Cheap, and a single flipped bit
// avalanches through the remaining width; the seed is the caller's, so
// sums of different structures never validate for one another.
func Mix(s, w uint64) uint64 {
	s ^= w
	s *= 0x9E3779B97F4A7C15
	return s ^ s>>29
}
