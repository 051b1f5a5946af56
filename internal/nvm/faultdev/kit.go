package faultdev

import (
	"strings"

	"espresso/internal/nvm"
)

// This file is the shared crash-sweep kit. Before it existed, every
// crash suite (pheap, pgc, pindex, pshard) re-implemented the same
// dance: install a flush hook that panics at a chosen boundary, run the
// workload under an inline defer/recover that distinguishes the
// injected panic from a real one, clear the hook, take a crash image,
// reboot, verify. The kit owns the dance; suites own only the workload,
// the boundary schedule, and the verification.

// crashMarker is the distinguished prefix of an injected crash. It also
// survives conversion to an error by panic-containment layers (pshard
// wraps worker panics into per-shard errors), so IsCrashError can
// recognize an injected crash that crossed such a boundary.
const crashMarker = "faultdev: injected crash"

// Crash is the panic payload of an injected crash.
type Crash struct {
	Flush uint64 // the flush count at which the crash fired
}

func (c Crash) String() string {
	return crashMarker
}

// CrashAtFlush arms dev to crash (panic with Crash) when its running
// flush count reaches n. Replaces any previously armed crash.
func CrashAtFlush(dev *nvm.Device, n uint64) {
	dev.SetFlushHook(func(count uint64) {
		if count == n {
			panic(Crash{Flush: count})
		}
	})
}

// CrashIn arms dev to crash k flushes from now (k >= 1).
func CrashIn(dev *nvm.Device, k uint64) {
	CrashAtFlush(dev, dev.Stats().Flushes+k)
}

// CrashWhen arms dev to crash k flushes after cond first reports true.
// cond is evaluated once per flush until it fires; the crash then lands
// k flushes later (k = 0 crashes on the triggering flush itself). Use
// it to target a window that only opens mid-run, e.g. "8 flushes after
// the GC-active flag is set".
func CrashWhen(dev *nvm.Device, k uint64, cond func() bool) {
	var armedAt uint64
	dev.SetFlushHook(func(count uint64) {
		if armedAt == 0 {
			if !cond() {
				return
			}
			armedAt = count
		}
		if count >= armedAt+k {
			panic(Crash{Flush: count})
		}
	})
}

// CrashInsideFlush arms dev to crash inside the flush that takes its
// running flush count to n: of the lines that flush covers, only those
// keep selects (by position within the flush, 0 = its first line) are
// written back before the crash; the rest stay dirty. It is the boundary
// CrashAtFlush cannot reach — flushes of different lines issued before one
// fence persist in any order, so power can fail with any subset of one
// multi-line flush in the image — and is Tracked-mode only (a Direct
// device has no persisted view to tear). Replaces any armed crash and any
// installed flush fault; the fault it installs is spent once the crash
// has fired.
func CrashInsideFlush(dev *nvm.Device, n uint64, keep func(line int) bool) {
	dev.SetFlushFault(func(off, size int, count uint64) bool {
		if count != n {
			return false
		}
		// The kept lines go back one at a time through flushes of their
		// own (ordinals past n, which this hook and the crash below pass
		// over); the flush under test itself is then dropped whole.
		first := off / nvm.LineSize
		for l := first; l <= (off+size-1)/nvm.LineSize; l++ {
			if keep(l - first) {
				dev.Flush(l*nvm.LineSize, nvm.LineSize)
			}
		}
		return true
	})
	CrashAtFlush(dev, n)
}

// Run executes fn with a crash armed on dev, recovers an injected
// Crash, and disarms the hook before returning. crashed reports whether
// the injected crash fired — either as a recovered Crash panic or as an
// error fn returned after a containment layer converted the panic (see
// IsCrashError). Genuine panics propagate; genuine errors return as
// err with crashed == false.
func Run(dev *nvm.Device, fn func() error) (crashed bool, err error) {
	defer dev.SetFlushHook(nil)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(Crash); ok {
				crashed = true
				err = nil
				return
			}
			panic(r)
		}
	}()
	err = fn()
	if IsCrashError(err) {
		return true, nil
	}
	return false, err
}

// IsCrashError reports whether err carries an injected crash that was
// converted to an error by a panic-containment layer.
func IsCrashError(err error) bool {
	return err != nil && strings.Contains(err.Error(), crashMarker)
}

// SweepDoubling drives run at geometrically spaced crash boundaries
// k = 1, 2, 4, ... until a run completes without crashing, and returns
// the first error. run receives the boundary and reports whether the
// injected crash fired; its own arming (CrashIn/CrashAtFlush) decides
// what the boundary counts from. Geometric spacing keeps long workloads
// sweepable: every protocol window is crossed without visiting every
// flush.
func SweepDoubling(run func(k uint64) (crashed bool, err error)) error {
	for k := uint64(1); ; k *= 2 {
		crashed, err := run(k)
		if err != nil {
			return err
		}
		if !crashed {
			return nil
		}
	}
}
