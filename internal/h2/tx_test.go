package h2

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"espresso/internal/nvm"
)

// smallDevice is a Tracked database device with room for exactly pages
// row pages.
func smallDevice(pages int) *nvm.Device {
	return nvm.New(nvm.Config{Size: pagesOff + pages*pageSize, Mode: nvm.Tracked})
}

// crashSweep crashes transactions on dev's database ahead of every flush
// they issue — when everything stored so far is still in the cache and
// any subset of it may have been evicted — and once more after they
// return, and reopens each image.
type crashSweep struct {
	t   *testing.T
	dev *nvm.Device
	// dump renders the state under test; put is a further write a recovered
	// database must accept and keep across another power loss.
	dump   func(db *DB) string
	put    func(db *DB) error
	images int
}

// reopen recovers img and holds it to one of the wanted states.
func (s *crashSweep) reopen(tag string, img []byte, want ...string) {
	s.t.Helper()
	s.images++
	db, err := Open(nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}))
	if err != nil {
		s.t.Fatalf("%s: reopen: %v", tag, err)
	}
	if got := s.dump(db); !slices.Contains(want, got) {
		s.t.Fatalf("%s: recovered\n %s\nwant one of\n %s", tag, got, strings.Join(want, "\n "))
	}
	if err := s.put(db); err != nil {
		s.t.Fatalf("%s: put after recovery: %v", tag, err)
	}
	again, err := Open(nvm.FromImage(db.Device().CrashImage(nvm.CrashFlushedOnly, 0), nvm.Config{}))
	if err != nil {
		s.t.Fatalf("%s: second reopen: %v", tag, err)
	}
	if got, want := s.dump(again), s.dump(db); got != want {
		s.t.Fatalf("%s: the recovered database did not keep a further put:\n %s\nwant\n %s", tag, got, want)
	}
}

// crash reopens what dev holds under every policy.
func (s *crashSweep) crash(tag string, dev *nvm.Device, want ...string) {
	s.t.Helper()
	for _, p := range []struct {
		name   string
		policy nvm.CrashPolicy
		seed   int64
	}{
		{"flushed-only", nvm.CrashFlushedOnly, 0}, {"all-dirty", nvm.CrashAllDirty, 0},
		{"evict-1", nvm.CrashRandomEviction, 1}, {"evict-2", nvm.CrashRandomEviction, 2}, {"evict-3", nvm.CrashRandomEviction, 3},
	} {
		s.reopen(tag+" "+p.name, dev.CrashImage(p.policy, p.seed), want...)
	}
}

// tx sweeps one transaction: run takes the live database from state pre to
// state post, and every image must recover to one or the other — after
// run returns, to post. A flush into the undo log (the seq word, a batch
// of records) is additionally cut mid-line.
func (s *crashSweep) tx(name, pre, post string, run func()) {
	s.t.Helper()
	// The fault hook runs ahead of each flush's writeback; it drops
	// nothing, it is the sweep's crash point.
	boundary := 0
	s.dev.SetFlushFault(func(off, n int, _ uint64) bool {
		boundary++
		tag := fmt.Sprintf("%s, before flush %d [%d,%d)", name, boundary, off, off+n)
		s.crash(tag, s.dev, pre, post)
		if off >= undoSeqOff && off < pagesOff {
			for _, keep := range []int{4, 8, 16, 24, 40} {
				s.reopen(fmt.Sprintf("%s torn at %d", tag, keep),
					s.dev.CrashImageTorn(nvm.CrashFlushedOnly, 0, off, keep), pre, post)
			}
		}
		return false
	})
	run()
	s.dev.SetFlushFault(nil)
	if boundary == 0 {
		s.t.Fatalf("%s: the transaction flushed nothing", name)
	}
	if n := s.dev.DirtyLines(); n != 0 {
		s.t.Fatalf("%s: %d lines still dirty after commit", name, n)
	}
	s.reopen(name+", committed", s.dev.CrashImage(nvm.CrashFlushedOnly, 0), post)
}

// refTable is the ModeRefs table of the reference-row sweeps.
const refTable = "t"

// refSweep is a sweep over refTable on dev: ScanRefs on every recovered
// image must equal the model before the transaction or after it.
func refSweep(t *testing.T, dev *nvm.Device) *crashSweep {
	return &crashSweep{t: t, dev: dev,
		dump: func(db *DB) string {
			m := map[int64]uint64{} // printed in key order
			if err := db.ScanRefs(refTable, func(pk int64, ref uint64) bool { m[pk] = ref; return true }); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(m)
		},
		put: func(db *DB) error { return db.PersistRef(refTable, 1<<40, 0xfeed) },
	}
}

// refOp is one operation of a reference-row transaction: a put, or with
// ref 0 a delete.
type refOp struct {
	pk  int64
	ref uint64
}

func refSpan(lo, hi int64, base uint64) []refOp {
	var ops []refOp
	for k := lo; k < hi; k++ {
		ops = append(ops, refOp{k, base + uint64(k)})
	}
	return ops
}

// refModelAfter is the model once ops have committed.
func refModelAfter(model map[int64]uint64, ops []refOp) map[int64]uint64 {
	after := map[int64]uint64{}
	maps.Copy(after, model)
	for _, o := range ops {
		if o.ref != 0 {
			after[o.pk] = o.ref
		} else {
			delete(after, o.pk)
		}
	}
	return after
}

// runRefOps runs ops inside tx.
func runRefOps(t *testing.T, tx *Tx, ops []refOp) {
	t.Helper()
	for _, o := range ops {
		if o.ref != 0 {
			if err := tx.PersistRef(refTable, o.pk, o.ref); err != nil {
				t.Fatalf("put %d: %v", o.pk, err)
			}
		} else if ok, err := tx.DeleteRef(refTable, o.pk); err != nil || !ok {
			t.Fatalf("delete %d: %v %v", o.pk, ok, err)
		}
	}
}

// TestCrashSweepRefTx sweeps five ModeRefs transactions.
func TestCrashSweepRefTx(t *testing.T) {
	dev := smallDevice(4)
	db, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRefTable(refTable); err != nil {
		t.Fatal(err)
	}
	s := refSweep(t, dev)
	model := map[int64]uint64{}
	for _, step := range []struct {
		name string
		ops  []refOp
	}{
		{"batch of 20", refSpan(0, 20, 0x1000)},
		{"one update", []refOp{{7, 0xbeef}}},
		{"one delete", []refOp{{3, 0}}},
		{"mixed", []refOp{{5, 0xaaaa}, {9, 0}, {100, 0xbbbb}, {100, 0xcccc}, {100, 0}}},
		{"batch of 300 across a page", refSpan(200, 500, 0x2000)},
	} {
		pre := fmt.Sprint(model)
		model = refModelAfter(model, step.ops)
		s.tx(step.name, pre, fmt.Sprint(model), func() {
			tx := db.Begin()
			runRefOps(t, tx, step.ops)
			tx.Commit()
		})
		if got := s.dump(db); got != fmt.Sprint(model) {
			t.Fatalf("%s: the live database disagrees with the model", step.name)
		}
	}
	t.Logf("%d crash images", s.images)
}

// TestCrashSweepRowTx is the same sweep over serialized rows, where an
// update may change a row's length and move it: one transaction that
// updates in place, updates to a longer and to a shorter value, inserts
// and deletes.
func TestCrashSweepRowTx(t *testing.T) {
	dev := smallDevice(4)
	db, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	exec := func(db *DB, text string, params ...Value) {
		t.Helper()
		if _, err := db.Exec(text, params...); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
	}
	exec(db, "CREATE TABLE t (id BIGINT PRIMARY KEY, v VARCHAR, n BIGINT)")
	for i := int64(0); i < 8; i++ {
		exec(db, "INSERT INTO t (id, v, n) VALUES (?, ?, ?)", IntV(i), StrV(fmt.Sprintf("value-%d", i)), IntV(i))
	}
	s := &crashSweep{t: t, dev: dev,
		dump: func(db *DB) string {
			rows, err := db.Query("SELECT * FROM t")
			if err != nil {
				t.Fatal(err)
			}
			var out []string
			for rows.Next() {
				out = append(out, fmt.Sprint(rows.Row()))
			}
			return strings.Join(out, " ")
		},
		put: func(db *DB) error {
			_, err := db.Exec("INSERT INTO t (id, v, n) VALUES (999, 'probe', 0)")
			return err
		},
	}
	pre := s.dump(db)
	const post = "[0 value-0 0] [1 value-1 100] [2 a considerably longer value 2] [3 v 3] [5 value-5 5] [6 value-6 6] [7 value-7 7] [8 fresh 8]"
	s.tx("row updates", pre, post, func() {
		tx := db.Begin()
		for _, stmt := range []string{
			"UPDATE t SET n = 100 WHERE id = 1",
			"UPDATE t SET v = 'a considerably longer value' WHERE id = 2",
			"UPDATE t SET v = 'v' WHERE id = 3",
			"DELETE FROM t WHERE id = 4",
			"INSERT INTO t (id, v, n) VALUES (8, 'fresh', 8)",
		} {
			if _, err := tx.Exec(stmt); err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
		}
		tx.Commit()
	})
	if got := s.dump(db); got != post {
		t.Fatalf("the live database reads\n %s\nwant\n %s", got, post)
	}
	t.Logf("%d crash images", s.images)
}

// TestRefUpdateDoesNotConsumePages: updating one reference row any number
// of times needs no more room than the row.
func TestRefUpdateDoesNotConsumePages(t *testing.T) {
	db, err := Open(smallDevice(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRefTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if err := db.PersistRef("t", 1, uint64(i)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	if ref, ok, err := db.GetRef("t", 1); err != nil || !ok || ref != 4999 {
		t.Fatalf("GetRef = %d %v %v", ref, ok, err)
	}
}

// TestEmptyTransactionCostsNothing: a transaction that stores nothing —
// none at all, or a delete that finds no row — issues no device operation,
// and a put of the row a key already has reads it and stops there.
func TestEmptyTransactionCostsNothing(t *testing.T) {
	db := testDB(t)
	if _, err := db.CreateRefTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := db.PersistRef("t", 1, 0xabc); err != nil {
		t.Fatal(err)
	}
	s0 := db.Device().Stats()
	db.Begin().Commit()
	if ok, err := db.DeleteRef("t", 2); ok || err != nil {
		t.Fatalf("DeleteRef of a missing key = %v, %v", ok, err)
	}
	if d := db.Device().Stats().Sub(s0); d != (nvm.Stats{}) {
		t.Fatalf("empty transactions cost the device %+v", d)
	}
	if err := db.PersistRef("t", 1, 0xabc); err != nil {
		t.Fatal(err)
	}
	if d := db.Device().Stats().Sub(s0); d.Writes != 0 || d.FlushedLines != 0 || d.Fences != 0 {
		t.Fatalf("putting the same row again cost the device %+v", d)
	}
}

// TestTxEndsOnce: the first Commit or Rollback ends a transaction and
// releases the database; a second of either does nothing — in particular
// it neither unlocks the database again nor undoes what was committed.
func TestTxEndsOnce(t *testing.T) {
	db := testDB(t)
	if _, err := db.CreateRefTable("t"); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.PersistRef("t", 1, 0xabc); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	tx.Commit()
	tx.Rollback()
	if ref, ok, err := db.GetRef("t", 1); err != nil || !ok || ref != 0xabc {
		t.Fatalf("after commit, commit, rollback: GetRef = %#x %v %v", ref, ok, err)
	}
	tx = db.Begin()
	if err := tx.PersistRef("t", 2, 0xdef); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	tx.Rollback()
	tx.Commit()
	if _, ok, err := db.GetRef("t", 2); ok || err != nil {
		t.Fatalf("after rollback, rollback, commit: key 2 present (%v, %v)", ok, err)
	}
	// The lock is free and the database still takes transactions.
	if err := db.PersistRef("t", 3, 0x123); err != nil {
		t.Fatal(err)
	}
}
