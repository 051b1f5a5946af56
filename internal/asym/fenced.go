//go:build !linux || !amd64 || race

package asym

import "sync/atomic"

// fast is false here: the stores are sync/atomic's, sequentially
// consistent, and need no barrier on the other side.
const fast = false

// Store32 stores v into *w with an atomic store.
func Store32(w *atomic.Uint32, v uint32) { w.Store(v) }

// Store64 stores v into *w with an atomic store.
func Store64(w *atomic.Uint64, v uint64) { w.Store(v) }

// Heavy does nothing: the owners' stores are atomic, so a sequentially
// consistent load on the other side is already enough.
func Heavy() {}
