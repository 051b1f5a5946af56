package faultdev

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"espresso/internal/nvm"
)

func trackedDev(t *testing.T, size int) *nvm.Device {
	t.Helper()
	return nvm.New(nvm.Config{Size: size, Mode: nvm.Tracked})
}

func TestBitFlipCorruptsBothViews(t *testing.T) {
	dev := trackedDev(t, 4096)
	dev.WriteU64(128, 0xAAAA)
	dev.Flush(128, 8)
	dev.Fence()
	in := Install(dev, Plan{Kind: BitFlip, Off: 128, Bit: 0})
	if got := dev.ReadU64(128); got != 0xAAAB {
		t.Fatalf("memory view after flip: %#x, want %#x", got, 0xAAAB)
	}
	img := dev.CrashImage(nvm.CrashFlushedOnly, 0)
	dev2 := nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked})
	if got := dev2.ReadU64(128); got != 0xAAAB {
		t.Fatalf("persisted view after flip: %#x, want %#x (rot must not be masked by a crash)", got, 0xAAAB)
	}
	if in.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", in.Fired())
	}
}

func TestReadErrorBudgetHeals(t *testing.T) {
	dev := trackedDev(t, 4096)
	dev.WriteU64(256, 42)
	in := Install(dev, Plan{Kind: ReadError, Off: 256, N: 8, Budget: 2})
	defer in.Remove()
	for i := 0; i < 2; i++ {
		err := nvm.CatchMedia(func() error {
			dev.ReadU64(256)
			return nil
		})
		var me *nvm.MediaError
		if !errors.As(err, &me) {
			t.Fatalf("read %d: err = %v, want *nvm.MediaError", i, err)
		}
	}
	if err := nvm.CatchMedia(func() error {
		if got := dev.ReadU64(256); got != 42 {
			return fmt.Errorf("healed read = %d, want 42", got)
		}
		return nil
	}); err != nil {
		t.Fatalf("after budget drained: %v", err)
	}
	if in.Fired() != 2 {
		t.Fatalf("Fired() = %d, want 2", in.Fired())
	}
	// Reads outside the planned range never fault.
	if got := dev.ReadU64(512); got != 0 {
		t.Fatalf("unrelated read = %d", got)
	}
}

func TestReadErrorZeroBudgetNeverHeals(t *testing.T) {
	dev := trackedDev(t, 4096)
	in := Install(dev, Plan{Kind: ReadError, Off: 0, N: 8})
	defer in.Remove()
	for i := 0; i < 5; i++ {
		if err := nvm.CatchMedia(func() error { dev.ReadU64(0); return nil }); err == nil {
			t.Fatalf("read %d succeeded; budget 0 must be hard rot", i)
		}
	}
}

func TestDroppedFlushByRange(t *testing.T) {
	dev := trackedDev(t, 4096)
	dev.WriteU64(0, 1)
	dev.Flush(0, 8)
	dev.Fence()
	before := dev.Stats()
	in := Install(dev, Plan{Kind: DroppedFlush, Off: 0, N: 8})
	dev.WriteU64(0, 2)
	dev.WriteU64(nvm.LineSize, 3)
	dev.Flush(0, 8)            // dropped: overlaps the plan range
	dev.Flush(nvm.LineSize, 8) // honest: outside it
	dev.Fence()
	in.Remove()
	delta := dev.Stats().Sub(before)
	if delta.Flushes != 2 || delta.FlushedLines != 2 {
		t.Fatalf("dropped flush altered accounting: %+v (must be invisible until crash)", delta)
	}
	img := nvm.FromImage(dev.CrashImage(nvm.CrashFlushedOnly, 0), nvm.Config{Mode: nvm.Tracked})
	if got := img.ReadU64(0); got != 1 {
		t.Fatalf("dropped line persisted %d, want old value 1", got)
	}
	if got := img.ReadU64(nvm.LineSize); got != 3 {
		t.Fatalf("honest line persisted %d, want 3", got)
	}
	if in.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", in.Fired())
	}
}

func TestDroppedFlushByIndex(t *testing.T) {
	dev := trackedDev(t, 4096)
	in := Install(dev, Plan{Kind: DroppedFlush, FlushIndex: 2})
	dev.WriteU64(0, 1)
	dev.Flush(0, 8) // 1st after install: honest
	dev.WriteU64(nvm.LineSize, 2)
	dev.Flush(nvm.LineSize, 8) // 2nd: dropped
	dev.Fence()
	in.Remove()
	img := nvm.FromImage(dev.CrashImage(nvm.CrashFlushedOnly, 0), nvm.Config{Mode: nvm.Tracked})
	if got := img.ReadU64(0); got != 1 {
		t.Fatalf("first flush persisted %d, want 1", got)
	}
	if got := img.ReadU64(nvm.LineSize); got != 0 {
		t.Fatalf("second (dropped) flush persisted %d, want 0", got)
	}
}

// TestDroppedFlushByIndexSweep drops each flush of a script in turn, on a
// device that has already flushed through an owner's view and through the
// device with no hook installed (so no flush ordinal was kept), and with
// the script itself alternating the two paths. FlushIndex k must drop the
// k-th flush after Install — the line it wrote back, and no other, is
// missing from the crash image — exactly as when every flush counted in
// one device-wide ordinal.
func TestDroppedFlushByIndexSweep(t *testing.T) {
	const script = 8
	for k := uint64(1); k <= script; k++ {
		dev := trackedDev(t, 4096)
		v := dev.NewView()
		for i := 0; i < 5; i++ {
			v.WriteU64(2048+i*8, 1)
			v.Flush(2048+i*8, 8)
			dev.Flush(3072, 8)
		}
		in := Install(dev, Plan{Kind: DroppedFlush, FlushIndex: k})
		for i := 0; i < script; i++ {
			off := i * nvm.LineSize
			if i%2 == 0 {
				v.WriteU64(off, uint64(i+1))
				v.Flush(off, 8)
			} else {
				dev.WriteU64(off, uint64(i+1))
				dev.Flush(off, 8)
			}
		}
		in.Remove()
		img := nvm.FromImage(dev.CrashImage(nvm.CrashFlushedOnly, 0), nvm.Config{Mode: nvm.Tracked})
		for i := 0; i < script; i++ {
			want := uint64(i + 1)
			if uint64(i+1) == k {
				want = 0
			}
			if got := img.ReadU64(i * nvm.LineSize); got != want {
				t.Fatalf("FlushIndex %d: line %d persisted %d, want %d", k, i, got, want)
			}
		}
		if in.Fired() != 1 {
			t.Fatalf("FlushIndex %d: Fired() = %d, want 1", k, in.Fired())
		}
	}
}

func TestTornLineCrashImage(t *testing.T) {
	dev := trackedDev(t, 4096)
	// Persist an old line, then overwrite it without flushing: the torn
	// image must splice Keep new bytes onto the old persisted remainder.
	for i := 0; i < nvm.LineSize; i += 8 {
		dev.WriteU64(i, 0x0101010101010101)
	}
	dev.FlushAll()
	for i := 0; i < nvm.LineSize; i += 8 {
		dev.WriteU64(i, 0x0202020202020202)
	}
	in := Install(dev, Plan{Kind: TornLine, Off: 0, Keep: 8})
	img := nvm.FromImage(in.CrashImage(nvm.CrashFlushedOnly, 0), nvm.Config{Mode: nvm.Tracked})
	if got := img.ReadU64(0); got != 0x0202020202020202 {
		t.Fatalf("kept prefix = %#x, want new bytes", got)
	}
	if got := img.ReadU64(8); got != 0x0101010101010101 {
		t.Fatalf("torn remainder = %#x, want old bytes", got)
	}
	if in.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", in.Fired())
	}
}

func TestPassthroughLeavesCountersIdentical(t *testing.T) {
	workload := func(hook bool) nvm.Stats {
		dev := trackedDev(t, 1<<16)
		if hook {
			defer Passthrough(dev).Remove()
		}
		for i := 0; i < 100; i++ {
			off := (i * 72) % (1<<16 - 8)
			dev.WriteU64(off, uint64(i))
			dev.Flush(off, 8)
			dev.ReadU64(off)
		}
		dev.Fence()
		return dev.Stats()
	}
	bare, hooked := workload(false), workload(true)
	if bare != hooked {
		t.Fatalf("passthrough hooks changed counters:\nbare   %+v\nhooked %+v", bare, hooked)
	}
}

func TestImageCorruptors(t *testing.T) {
	img := make([]byte, 4*nvm.LineSize)
	FlipBitInImage(img, 10, 3)
	if img[10] != 1<<3 {
		t.Fatalf("FlipBitInImage: byte = %#x", img[10])
	}
	a := make([]byte, 4*nvm.LineSize)
	b := make([]byte, 4*nvm.LineSize)
	CorruptLineInImage(a, nvm.LineSize+5, 7)
	CorruptLineInImage(b, nvm.LineSize+40, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("CorruptLineInImage is not deterministic per (line, seed)")
		}
	}
	for i := 0; i < nvm.LineSize; i++ {
		if a[i] != 0 || a[2*nvm.LineSize+i] != 0 {
			t.Fatal("CorruptLineInImage leaked outside its line")
		}
	}
}

func TestKitRunRecoversInjectedCrash(t *testing.T) {
	dev := trackedDev(t, 4096)
	CrashIn(dev, 2)
	crashed, err := Run(dev, func() error {
		for i := 0; i < 10; i++ {
			dev.WriteU64(0, uint64(i))
			dev.Flush(0, 8)
		}
		return nil
	})
	if err != nil || !crashed {
		t.Fatalf("crashed=%v err=%v, want crashed with nil error", crashed, err)
	}
	// The hook is disarmed: further flushes run clean.
	dev.Flush(0, 8)
}

func TestKitRunPassesThroughRealFailures(t *testing.T) {
	dev := trackedDev(t, 4096)
	CrashAtFlush(dev, 1000)
	crashed, err := Run(dev, func() error { return errors.New("real failure") })
	if crashed || err == nil {
		t.Fatalf("crashed=%v err=%v, want a real error with no crash", crashed, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("genuine panic was swallowed")
		}
	}()
	Run(dev, func() error { panic("genuine") })
}

func TestKitIsCrashError(t *testing.T) {
	if !IsCrashError(fmt.Errorf("shard 2: %v", Crash{Flush: 7})) {
		t.Fatal("converted crash not recognized")
	}
	if IsCrashError(errors.New("disk full")) {
		t.Fatal("ordinary error misread as injected crash")
	}
	if IsCrashError(nil) {
		t.Fatal("nil error misread as injected crash")
	}
}

func TestKitCrashWhen(t *testing.T) {
	dev := trackedDev(t, 4096)
	armed := false
	CrashWhen(dev, 2, func() bool { return armed })
	crashed, err := Run(dev, func() error {
		for i := 0; i < 5; i++ { // before the condition: no crash
			dev.Flush(0, 8)
		}
		armed = true
		for i := 0; i < 5; i++ {
			dev.Flush(0, 8)
		}
		return errors.New("ran past the armed crash")
	})
	if err != nil || !crashed {
		t.Fatalf("crashed=%v err=%v, want crash two flushes after arming", crashed, err)
	}
}

func TestKitSweepDoubling(t *testing.T) {
	var boundaries []uint64
	err := SweepDoubling(func(k uint64) (bool, error) {
		boundaries = append(boundaries, k)
		return k < 8, nil // crashes until the workload fits under k=8
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 2, 4, 8}
	if len(boundaries) != len(want) {
		t.Fatalf("visited %v, want %v", boundaries, want)
	}
	for i := range want {
		if boundaries[i] != want[i] {
			t.Fatalf("visited %v, want %v", boundaries, want)
		}
	}
	wantErr := errors.New("verify failed")
	if err := SweepDoubling(func(k uint64) (bool, error) { return false, wantErr }); err != wantErr {
		t.Fatalf("sweep error = %v, want passthrough", err)
	}
}

func TestKitCrashInsideFlush(t *testing.T) {
	dev := nvm.New(nvm.Config{Size: 16 * nvm.LineSize, Mode: nvm.Tracked})
	for l := 0; l < 8; l++ {
		dev.WriteU64(l*nvm.LineSize, uint64(100+l))
	}
	dev.Flush(0, nvm.LineSize) // flush 1: line 0, whole
	// Flush 2 covers lines 2..5 and is torn: only its lines 0 and 3 (device
	// lines 2 and 5) reach the persisted view.
	CrashInsideFlush(dev, dev.Stats().Flushes+1, func(line int) bool { return line == 0 || line == 3 })
	crashed, err := Run(dev, func() error {
		dev.Flush(2*nvm.LineSize, 4*nvm.LineSize)
		t.Error("the torn flush returned")
		return nil
	})
	if !crashed || err != nil {
		t.Fatalf("crashed = %v, err = %v", crashed, err)
	}
	img := dev.CrashImage(nvm.CrashFlushedOnly, 0)
	for l, want := range []uint64{100, 0, 102, 0, 0, 105, 0, 0} {
		if got := binary.LittleEndian.Uint64(img[l*nvm.LineSize:]); got != want {
			t.Errorf("line %d persisted %d, want %d", l, got, want)
		}
	}
	if got := dev.DirtyLines(); got != 5 {
		t.Errorf("%d lines still dirty, want 5 (1, 3, 4, 6, 7)", got)
	}
}
