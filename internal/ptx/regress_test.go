package ptx_test

import (
	"bytes"
	"errors"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pgc"
	"espresso/internal/pheap"
	"espresso/internal/ptx"
)

// boxHeap is a Tracked heap with a rooted one-long box holding 5, created
// behind garbage arrays of garbage bytes in total and a manager, so a
// collection slides both the log array and the box.
func boxHeap(t *testing.T, garbage int) (*pheap.Heap, *ptx.Manager) {
	t.Helper()
	h, err := pheap.Create(klass.NewRegistry(), pheap.Config{DataSize: 4 << 20, Mode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	for ; garbage > 0; garbage -= 1 << 10 {
		if _, err := h.Alloc(h.Registry().PrimArray(layout.FTLong), 125); err != nil {
			t.Fatal(err)
		}
	}
	m, err := ptx.NewManager(h)
	if err != nil {
		t.Fatal(err)
	}
	boxK, err := h.Registry().Define(klass.MustInstance("regress/Box", nil, klass.Field{Name: "v", Type: layout.FTLong}))
	if err != nil {
		t.Fatal(err)
	}
	box, err := h.Alloc(boxK, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(func(tx *ptx.Tx) error { return tx.WriteWord(box, layout.FieldOff(0), 5) }); err != nil {
		t.Fatal(err)
	}
	if err := h.SetRoot("box", box); err != nil {
		t.Fatal(err)
	}
	return h, m
}

// openTxImage writes 999 into h's box inside a transaction that never
// ends and returns the image of a crash that evicted every dirty line.
func openTxImage(t *testing.T, h *pheap.Heap, m *ptx.Manager) []byte {
	t.Helper()
	box, _ := h.GetRoot("box")
	if err := m.Begin().WriteWord(box, layout.FieldOff(0), 999); err != nil {
		t.Fatal(err)
	}
	return h.Device().CrashImage(nvm.CrashAllDirty, 0)
}

// TestLogFollowsTheCollector: a manager created before a collection moved
// its log array logs into the array's new place, not into the evacuated
// source — so the crashed transaction is rolled back, and recovery stores
// nowhere but in the relocated log and the box.
func TestLogFollowsTheCollector(t *testing.T) {
	h, m := boxHeap(t, 1<<20)
	before, _ := h.GetRoot(ptx.LogRootName)
	if _, err := pgc.Collect(h, pgc.NoRoots{}); err != nil {
		t.Fatal(err)
	}
	if after, _ := h.GetRoot(ptx.LogRootName); after == before {
		t.Fatalf("the collection left the log array at %#x; the test needs it moved", uint64(before))
	}
	dev := nvm.FromImage(openTxImage(t, h, m), nvm.Config{})
	re, err := pheap.Load(dev, klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	loaded := bytes.Clone(dev.View(0, dev.Size()))
	if _, err := ptx.NewManager(re); err != nil {
		t.Fatal(err)
	}
	box, _ := re.GetRoot("box")
	if got := re.GetWord(box, layout.FieldOff(0)); got != 5 {
		t.Fatalf("the box reads %d after recovery, want 5: the transaction was not rolled back", got)
	}
	lo, hi := logRange(re)
	word := re.OffOf(box) + layout.FieldOff(0)
	for off, b := range dev.View(0, dev.Size()) {
		if b != loaded[off] && (off < lo || off >= hi) && (off < word || off >= word+layout.WordSize) {
			t.Fatalf("recovery stored at device offset %d, outside the log [%d,%d) and the box word at %d", off, lo, hi, word)
		}
	}
}

// TestRecoveryAfterRebase: an image with an open transaction, loaded and
// moved to another base address before the manager attaches, is rolled
// back — the log names device offsets, which a rebase leaves alone.
func TestRecoveryAfterRebase(t *testing.T) {
	h, m := boxHeap(t, 0)
	re, err := pheap.Load(nvm.FromImage(openTxImage(t, h, m), nvm.Config{}), klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Rebase(re.Base() + 1<<32); err != nil {
		t.Fatal(err)
	}
	if _, err := ptx.NewManager(re); err != nil {
		t.Fatal(err)
	}
	box, _ := re.GetRoot("box")
	if got := re.GetWord(box, layout.FieldOff(0)); got != 5 {
		t.Fatalf("the box reads %d after rebase and recovery, want 5", got)
	}
}

// TestTxEndsOnce: the first Commit or Abort ends a transaction and
// releases the manager; a second of either does nothing — in particular
// it neither unlocks the manager again nor undoes what was committed —
// and a write to a finished transaction is refused.
func TestTxEndsOnce(t *testing.T) {
	h, m := boxHeap(t, 0)
	box, _ := h.GetRoot("box")
	value := func() uint64 { return h.GetWord(box, layout.FieldOff(0)) }

	tx := m.Begin()
	if err := tx.WriteWord(box, layout.FieldOff(0), 6); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	tx.Commit()
	tx.Abort()
	if value() != 6 {
		t.Fatalf("after commit, commit, abort: the box reads %d, want 6", value())
	}
	tx = m.Begin()
	if err := tx.WriteWord(box, layout.FieldOff(0), 7); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	tx.Abort()
	tx.Commit()
	if value() != 6 {
		t.Fatalf("after abort, abort, commit: the box reads %d, want 6", value())
	}
	for name, err := range map[string]error{
		"WriteWord":    tx.WriteWord(box, layout.FieldOff(0), 8),
		"WriteRefWord": tx.WriteRefWord(box, layout.FieldOff(0), layout.NullRef),
		"Declare":      tx.Declare(box, layout.FieldOff(0), layout.WordSize),
	} {
		if !errors.Is(err, ptx.ErrTxDone) {
			t.Errorf("%s on a finished transaction: %v, want ErrTxDone", name, err)
		}
	}
	// The lock is free, and the manager still takes transactions.
	if err := m.Run(func(tx *ptx.Tx) error { return tx.WriteWord(box, layout.FieldOff(0), 9) }); err != nil {
		t.Fatal(err)
	}
	if value() != 9 {
		t.Fatalf("the box reads %d, want 9", value())
	}
}

// TestPreviousFormatLog: a heap whose log array is in the format before
// this one (word 0 the idle flag, word 1 the entry count) is refused,
// idle or holding an open transaction, and its root is left as it was.
func TestPreviousFormatLog(t *testing.T) {
	for _, c := range []struct {
		name string
		flag uint64
	}{{"idle", 1}, {"active", 0}} {
		h, err := pheap.Create(klass.NewRegistry(), pheap.Config{DataSize: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		old, err := h.Alloc(h.Registry().PrimArray(layout.FTLong), 2+2*4096)
		if err != nil {
			t.Fatal(err)
		}
		h.SetWord(old, layout.ElemOff(layout.FTLong, 0), c.flag)
		h.SetWord(old, layout.ElemOff(layout.FTLong, 1), 1-c.flag) // an active log has an entry
		if err := h.SetRoot(ptx.LogRootName, old); err != nil {
			t.Fatal(err)
		}
		if _, err := ptx.NewManager(h); !errors.Is(err, ptx.ErrLogFormat) {
			t.Fatalf("%s log: NewManager = %v, want %v", c.name, err, ptx.ErrLogFormat)
		}
		if now, _ := h.GetRoot(ptx.LogRootName); now != old {
			t.Fatalf("%s log: the refused manager moved the root to %#x", c.name, uint64(now))
		}
	}
}
