package nvm

// Subsystem labels one attribution class for device traffic. The device
// keeps one set of counts (Stats); attribution by subsystem is
// owner-counted above it — a mutator-owned path charges its own telemetry
// cell with what its own View counted across one call (an allocation, an
// index operation: View.Ops deltas) or, where the ops are fixed by
// protocol, at the call site (the ref-store barrier), and exclusive
// phases (GC, redo commit, recovery replay) attribute measured Stats
// windows. The enum lives here, next to Stats, so every layer
// names the classes consistently.
type Subsystem int

const (
	// SubOther is unattributed traffic (metadata, klass segment, tooling).
	SubOther Subsystem = iota
	// SubAlloc is the allocation path: object zero+header persists, region
	// top publications, PLAB retire fills.
	SubAlloc
	// SubRefstore is the reference-store barrier: the field store itself
	// (flushes ride the owning transaction or FlushObject, attributed
	// where they are issued).
	SubRefstore
	// SubIndex is the durable index: link-and-persist publications, help
	// flushes, delete marks.
	SubIndex
	// SubGC is collector traffic: marking, summary, compaction moves and
	// reference fixes.
	SubGC
	// SubRedo is the redo log: finish-batch appends and commits.
	SubRedo
	// SubRecovery is crash recovery: redo replay, index recovery pruning,
	// shard reopen scans.
	SubRecovery
	// SubBlackbox is the NVM flight recorder: event-journal appends into
	// the per-heap ring region (one line write + flush per event, no
	// fence — appends ride the publication fence of the emitting site).
	SubBlackbox

	NumSubsystems int = iota
)

var subsystemNames = [...]string{"other", "alloc", "refstore", "index", "gc", "redo", "recovery", "blackbox"}

func (s Subsystem) String() string {
	if s >= 0 && int(s) < len(subsystemNames) {
		return subsystemNames[s]
	}
	return "invalid"
}

// LineSpan counts the cache lines covering [off, off+n) — the device's
// flush granularity, exported so owner-counted attribution matches what
// Flush will charge.
func LineSpan(off, n int) int {
	if n <= 0 {
		return 0
	}
	return (off+n-1)/LineSize - off/LineSize + 1
}
