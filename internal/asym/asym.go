// Package asym moves the cost of ordering off a word's one writer and
// onto the rare reader that needs it: asymmetric fences. It is how the
// safepoint's owner slots (internal/safepoint) and the single-writer
// counter cells (internal/nvm, internal/telemetry) are written.
//
// A word that only its owner writes does not need a read-modify-write,
// and on x86-TSO it does not need a fence either to be seen in order: a
// store can only be overtaken by the same thread's later loads, while it
// waits in the store buffer. sync/atomic's Store is an XCHG on amd64,
// which is implicitly locked and drains that buffer on every call. Store32
// and Store64 store with a plain MOV instead. For a counter that is the
// whole story: a reader that synchronised with the owner (a WaitGroup, a
// mutex, a stop) sees every count, and one that did not sees a recent
// one, as it would have anyway.
//
// For a Dekker handshake — the owner stores its flag and then loads the
// other side's; the other side stores its flag and then loads the
// owner's — the one reordering is exactly what breaks it, and Heavy is
// the other side's answer: membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)
// runs a full barrier on every CPU running a thread of this process, so
// once it returns, any owner store issued before it is visible, and any
// owner load issued after it sees what was stored before it. That is the
// argument liburcu's membarrier flavour and .NET's
// FlushProcessWriteBuffers make, and HotSpot's memory-serialization page
// made before them: the writer that stores often pays nothing, and the
// one that reads rarely pays ~0.5 µs.
//
// The fast path is chosen by the build and the host alone: it is on for
// linux/amd64 builds without -race once registering for membarrier at
// init succeeds. Everywhere else Store32 and Store64 are atomic stores
// and Heavy does nothing, which is the sequentially consistent protocol
// the callers were written against. amd64 only, because elsewhere a plain
// store is not ordered after the owner's earlier loads (an unpin could be
// seen before the interval's last read); and never under -race, whose
// detector would rightly report the plain store against the atomic loads.
package asym

// Fast reports whether Store32 and Store64 are plain stores in this
// process (and Heavy therefore a membarrier).
func Fast() bool { return fast }
