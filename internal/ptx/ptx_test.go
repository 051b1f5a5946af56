package ptx

import (
	"errors"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
	"espresso/internal/pheap"
	"espresso/internal/undolog"
)

func setup(t *testing.T) (*pheap.Heap, *Manager, layout.Ref) {
	t.Helper()
	reg := klass.NewRegistry()
	h, err := pheap.Create(reg, pheap.Config{DataSize: 1 << 20, Mode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(h)
	if err != nil {
		t.Fatal(err)
	}
	box, _ := reg.Define(klass.MustInstance("Box", nil,
		klass.Field{Name: "a", Type: layout.FTLong},
		klass.Field{Name: "b", Type: layout.FTLong}))
	ref, err := h.Alloc(box, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The box's header, which Alloc left deferred, is settled here: a test
	// that counts a transaction's device operations sees the log's alone.
	h.PersistTops()
	return h, m, ref
}

func TestCommitPersists(t *testing.T) {
	h, m, ref := setup(t)
	err := m.Run(func(tx *Tx) error {
		if err := tx.WriteWord(ref, layout.FieldOff(0), 11); err != nil {
			return err
		}
		return tx.WriteWord(ref, layout.FieldOff(1), 22)
	})
	if err != nil {
		t.Fatal(err)
	}
	img := h.Device().CrashImage(nvm.CrashFlushedOnly, 0)
	re, err := pheap.Load(nvm.FromImage(img, nvm.Config{}), klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if re.GetWord(ref, layout.FieldOff(0)) != 11 || re.GetWord(ref, layout.FieldOff(1)) != 22 {
		t.Fatal("committed values lost after crash")
	}
}

func TestAbortRollsBack(t *testing.T) {
	_, m, ref := setup(t)
	m.Run(func(tx *Tx) error { return tx.WriteWord(ref, layout.FieldOff(0), 1) })
	err := m.Run(func(tx *Tx) error {
		tx.WriteWord(ref, layout.FieldOff(0), 999)
		return errors.New("boom")
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := m.h.GetWord(ref, layout.FieldOff(0)); got != 1 {
		t.Fatalf("abort left %d, want 1", got)
	}
}

func TestCrashMidTransactionRollsBackOnRecovery(t *testing.T) {
	h, m, ref := setup(t)
	m.Run(func(tx *Tx) error { return tx.WriteWord(ref, layout.FieldOff(0), 5) })

	// Open a transaction, write, and crash before commit at several flush
	// boundaries.
	for crashAt := uint64(1); crashAt <= 8; crashAt++ {
		faultdev.CrashIn(h.Device(), crashAt)
		crashed, err := faultdev.Run(h.Device(), func() error {
			tx := m.Begin()
			if err := tx.WriteWord(ref, layout.FieldOff(0), 777); err != nil {
				return err
			}
			if err := tx.WriteWord(ref, layout.FieldOff(1), 888); err != nil {
				return err
			}
			tx.Commit()
			return nil
		})
		if err != nil {
			t.Fatalf("crashAt=%d: %v", crashAt, err)
		}
		img := h.Device().CrashImage(nvm.CrashRandomEviction, int64(crashAt))
		re, err := pheap.Load(nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
		if err != nil {
			t.Fatalf("crashAt=%d: %v", crashAt, err)
		}
		m2, err := NewManager(re)
		if err != nil {
			t.Fatalf("crashAt=%d: recover: %v", crashAt, err)
		}
		a := re.GetWord(ref, layout.FieldOff(0))
		b := re.GetWord(ref, layout.FieldOff(1))
		committed := a == 777 && b == 888
		rolledBack := a == 5 && b == 0
		if !committed && !rolledBack {
			t.Fatalf("crashAt=%d: torn state a=%d b=%d", crashAt, a, b)
		}
		_ = m2
		// Reset for the next iteration: if the crash interrupted the live
		// transaction, roll it back and release its lock.
		if crashed {
			if err := m.recover(); err != nil {
				t.Fatal(err)
			}
			m.mu.Unlock()
		}
		m.Run(func(tx *Tx) error { return tx.WriteWord(ref, layout.FieldOff(0), 5) })
		m.Run(func(tx *Tx) error { return tx.WriteWord(ref, layout.FieldOff(1), 0) })
	}
}

func TestLogFullRejected(t *testing.T) {
	h, m, _ := setup(t)
	arr, err := h.Alloc(h.Registry().PrimArray(layout.FTLong), DefaultLogEntries+64)
	if err != nil {
		t.Fatal(err)
	}
	tx := m.Begin()
	defer tx.Abort()
	for i := 0; i < DefaultLogEntries+64 && err == nil; i++ {
		if err = tx.WriteWord(arr, layout.ElemOff(layout.FTLong, i), uint64(i)); i < DefaultLogEntries && err != nil {
			t.Fatalf("word %d of the %d the log has room for: %v", i, DefaultLogEntries, err)
		}
	}
	if !errors.Is(err, undolog.ErrFull) {
		t.Fatalf("overfull transaction: err = %v, want undolog.ErrFull", err)
	}
}

func TestManagerReattachesToExistingLog(t *testing.T) {
	h, _, _ := setup(t)
	// A second manager on the same heap must find the same log root.
	before, _ := h.GetRoot(LogRootName)
	if _, err := NewManager(h); err != nil {
		t.Fatal(err)
	}
	if ref, ok := h.GetRoot(LogRootName); !ok || ref != before {
		t.Fatal("manager did not reattach to the existing log")
	}
}

// TestWordLoggedOncePerTransaction: the first store into a word logs its
// before-image; every later store into it, and every store into a
// declared range after the first, is the store and nothing else.
func TestWordLoggedOncePerTransaction(t *testing.T) {
	h, m, ref := setup(t)
	tx := m.Begin()
	defer tx.Abort()
	store := func(field int) nvm.Stats {
		s0 := h.Device().Stats()
		if err := tx.WriteWord(ref, layout.FieldOff(field), 7); err != nil {
			t.Fatal(err)
		}
		return h.Device().Stats().Sub(s0)
	}
	if d := store(0); d.Flushes != 1 || d.Fences != 1 {
		t.Fatalf("first store into a word: %+v, want one log flush and fence", d)
	}
	if err := tx.Declare(ref, layout.FieldOff(0), 2*layout.WordSize); err != nil {
		t.Fatal(err)
	}
	if d := store(1); d.Flushes != 1 || d.Fences != 1 {
		t.Fatalf("first store into a declared range: %+v, want one log flush and fence", d)
	}
	for field := 0; field < 2; field++ {
		if d := store(field); d != (nvm.Stats{Writes: 1, BytesWritten: 8}) {
			t.Fatalf("store into the logged word %d: %+v, want the store alone", field, d)
		}
	}
}
