//go:build !race

package asym

import (
	"sync/atomic"
	"syscall"
	"unsafe"
)

const (
	sysMembarrier = 324 // SYS_membarrier on linux/amd64

	cmdPrivateExpedited         = 1 << 3 // MEMBARRIER_CMD_PRIVATE_EXPEDITED
	cmdRegisterPrivateExpedited = 1 << 4 // MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED
)

// fast is set once, before any caller runs: the process registered for
// private expedited membarriers (Linux 4.14 and later, unless a seccomp
// filter refuses the call).
var fast = membarrier(cmdRegisterPrivateExpedited) == nil

// Store32 stores v into *w, a word only the caller writes. Readers load it
// with w.Load.
func Store32(w *atomic.Uint32, v uint32) {
	if !fast {
		store32(w, v)
		return
	}
	*(*uint32)(unsafe.Pointer(w)) = v
}

// Store64 stores v into *w, a word only the caller writes. Readers load it
// with w.Load.
func Store64(w *atomic.Uint64, v uint64) {
	if !fast {
		store64(w, v)
		return
	}
	*(*uint64)(unsafe.Pointer(w)) = v
}

// store32 and store64 are the fallbacks for a host that refused the
// registration, kept out of line so that the caller's own code holds only
// the plain store.
//
//go:noinline
func store32(w *atomic.Uint32, v uint32) { w.Store(v) }

//go:noinline
func store64(w *atomic.Uint64, v uint64) { w.Store(v) }

// Heavy is a full memory barrier on every CPU currently running a thread
// of this process.
func Heavy() {
	if !fast {
		return
	}
	if err := membarrier(cmdPrivateExpedited); err != nil {
		// Registration succeeded, so the kernel cannot refuse this; if it
		// did, every handshake built on Heavy would be unsound.
		panic("asym: membarrier: " + err.Error())
	}
}

func membarrier(cmd uintptr) error {
	if _, _, e := syscall.Syscall(sysMembarrier, cmd, 0, 0); e != 0 {
		return e
	}
	return nil
}
