package h2

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"testing"

	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
	"espresso/internal/sql"
)

// heldWorld is a fresh database whose refTable holds keys 0..19, key k
// naming 0x1000+k — so a put of 0x10ff changes one byte of a row.
func heldWorld(t *testing.T) (*DB, map[int64]uint64) {
	t.Helper()
	db, err := Open(smallDevice(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRefTable(refTable); err != nil {
		t.Fatal(err)
	}
	ops := refSpan(0, 20, 0x1000)
	tx := db.Begin()
	runRefOps(t, tx, ops)
	tx.Commit()
	return db, refModelAfter(nil, ops)
}

// TestCrashSweepHeldStore sweeps the transactions that begin with a held
// store (storage.go's header): the ones that end log-free — a lone delete,
// a lone one-byte update, a lone delete rolled back — and the ones whose
// second operation settles the held store into the log. Each runs twice
// over: crashed ahead of every flush it issues, under flushed-only,
// all-dirty and random-eviction images (crashSweep.tx), and crashed inside
// each flush with every subset of the flush's first two lines written back
// (faultdev.CrashInsideFlush). Every image reads as the model before the
// transaction or after it.
//
// Two planted bugs each fail it, and are what it is for. hold performing
// its store when the operation is called, not at commit: in "held, then an
// insert" the store sits in the cache with no before-image behind it, and
// the all-dirty image ahead of the record's flush holds the delete alone;
// "held, then rollback" leaves it there with nothing to undo it. And an
// operation that skips settle ("held, then an insert", "held, then held"):
// Commit finds a held store and a log, issues the one and never retires
// the other, so the image ahead of the second flush already reads as
// neither state. TestCrashSweepRefTx's "mixed" step and TestCrashSweepRowTx
// fail on the first as well.
func TestCrashSweepHeldStore(t *testing.T) {
	images := 0
	for _, c := range []struct {
		name     string
		ops      []refOp
		rollback bool
		logFree  bool
	}{
		{"lone delete", []refOp{{3, 0}}, false, true},
		{"lone one-byte update", []refOp{{7, 0x10ff}}, false, true},
		{"held, then an insert", []refOp{{3, 0}, {100, 0xbbbb}}, false, false},
		{"held, then held", []refOp{{3, 0}, {9, 0}}, false, false},
		{"held update, then a put of its key", []refOp{{7, 0x10ff}, {7, 0xbeef}}, false, false},
		{"held, then rollback", []refOp{{3, 0}}, true, true},
		{"held, settled, then rollback", []refOp{{3, 0}, {9, 0}}, true, false},
	} {
		run := func(db *DB) {
			tx := db.Begin()
			runRefOps(t, tx, c.ops)
			if c.rollback {
				tx.Rollback()
			} else {
				tx.Commit()
			}
		}
		states := func(model map[int64]uint64) (pre, post string) {
			pre = fmt.Sprint(model)
			if c.rollback {
				return pre, pre
			}
			return pre, fmt.Sprint(refModelAfter(model, c.ops))
		}

		// Ahead of every flush, and after the last.
		db, model := heldWorld(t)
		dev := db.Device()
		s := refSweep(t, dev)
		pre, post := states(model)
		s0, seq0 := dev.Stats(), dev.ReadU64(undoSeqOff)
		if c.logFree && c.rollback {
			run(db) // no flush to crash ahead of
			s.crash(c.name+", rolled back", dev, pre)
		} else {
			s.tx(c.name, pre, post, func() { run(db) })
		}
		if got := s.dump(db); got != post {
			t.Fatalf("%s: the live database reads\n %s\nwant\n %s", c.name, got, post)
		}
		d, moved := dev.Stats().Sub(s0), dev.ReadU64(undoSeqOff) != seq0
		want := uint64(1)
		if c.rollback {
			want = 0
		}
		if c.logFree && (d.FlushedLines != want || d.Fences != want || d.Writes != want || moved) {
			t.Fatalf("%s: %d writes / %d lines / %d fences, seq moved: %v; want %d of each and no log", c.name, d.Writes, d.FlushedLines, d.Fences, moved, want)
		}
		if !c.logFree && !moved {
			t.Fatalf("%s: a transaction of two stores ended without the log", c.name)
		}
		images += s.images

		// Inside every flush.
		for k, crashed := uint64(1), true; crashed; k++ {
			for mask := 0; mask < 4; mask++ {
				db, model := heldWorld(t)
				dev := db.Device()
				s := refSweep(t, dev)
				pre, post := states(model)
				faultdev.CrashInsideFlush(dev, dev.Stats().Flushes+k, func(line int) bool { return mask&(1<<line) != 0 })
				var err error
				crashed, err = faultdev.Run(dev, func() error { run(db); return nil })
				dev.SetFlushFault(nil)
				if err != nil {
					t.Fatal(err)
				}
				if !crashed {
					break
				}
				s.crash(fmt.Sprintf("%s, inside flush %d, lines %02b kept", c.name, k, mask), dev, pre, post)
				images += s.images
			}
		}
	}
	t.Logf("%d crash images", images)
}

// TestHeldStoreReadYourWrites: until it commits, a held store exists only
// in the store's overlay, and everything the transaction reads goes
// through it.
func TestHeldStoreReadYourWrites(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("CREATE TABLE t (id BIGINT PRIMARY KEY, v VARCHAR, n BIGINT)"); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		if _, err := db.Exec("INSERT INTO t (id, v, n) VALUES (?, ?, ?)", IntV(i), StrV("v"), IntV(i)); err != nil {
			t.Fatal(err)
		}
	}
	scan := func(q interface {
		Query(string, ...Value) (*Rows, error)
	}, text string) string {
		t.Helper()
		rows, err := q.Query(text)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for rows.Next() {
			out = append(out, fmt.Sprint(rows.Row()))
		}
		return fmt.Sprint(out)
	}
	s0 := db.Device().Stats()

	tx := db.Begin()
	if n, err := tx.Exec("DELETE FROM t WHERE id = 2"); n != 1 || err != nil {
		t.Fatalf("delete: %d %v", n, err)
	}
	if got, want := scan(tx, "SELECT * FROM t"), "[[0 v 0] [1 v 1] [3 v 3]]"; got != want {
		t.Fatalf("after the held delete the transaction reads %s, want %s", got, want)
	}
	live := 0
	if err := db.store.forEach(func(rowID, []byte) error { live++; return nil }); err != nil || live != 1+3 {
		t.Fatalf("the store visits %d live records (%v), want the catalog row and 3", live, err)
	}
	tx.Rollback()
	if got, want := scan(db, "SELECT * FROM t"), "[[0 v 0] [1 v 1] [2 v 2] [3 v 3]]"; got != want {
		t.Fatalf("after rollback: %s, want %s", got, want)
	}

	tx = db.Begin()
	if n, err := tx.Exec("UPDATE t SET n = 100 WHERE id = 1"); n != 1 || err != nil {
		t.Fatalf("update: %d %v", n, err)
	}
	if got, want := scan(tx, "SELECT * FROM t WHERE n = 100"), "[[1 v 100]]"; got != want {
		t.Fatalf("after the held update the transaction reads %s, want %s", got, want)
	}
	if d := db.Device().Stats().Sub(s0); d.Writes != 0 || d.Flushes != 0 || d.Fences != 0 {
		t.Fatalf("held stores reached the device before commit: %+v", d)
	}
	tx.Commit()
	if got, want := scan(db, "SELECT * FROM t"), "[[0 v 0] [1 v 100] [2 v 2] [3 v 3]]"; got != want {
		t.Fatalf("after commit: %s, want %s", got, want)
	}

	// The reference path: a key deleted and put again in one transaction.
	if _, err := db.CreateRefTable("r"); err != nil {
		t.Fatal(err)
	}
	if err := db.PersistRef("r", 1, 0xabc); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	if ok, err := tx.DeleteRef("r", 1); !ok || err != nil {
		t.Fatalf("DeleteRef: %v %v", ok, err)
	}
	if err := tx.PersistRef("r", 1, 0xdef); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if ref, ok, err := db.GetRef("r", 1); err != nil || !ok || ref != 0xdef {
		t.Fatalf("after delete and put: GetRef = %#x %v %v", ref, ok, err)
	}
	tx = db.Begin()
	if ok, err := tx.DeleteRef("r", 1); !ok || err != nil {
		t.Fatalf("DeleteRef: %v %v", ok, err)
	}
	tx.Rollback()
	if ref, ok, err := db.GetRef("r", 1); err != nil || !ok || ref != 0xdef {
		t.Fatalf("after a delete rolled back: GetRef = %#x %v %v", ref, ok, err)
	}
}

// createThreeColumnRefTable declares name the way an older database
// declared every ModeRefs table: (id, obj, dirty).
func createThreeColumnRefTable(t *testing.T, db *DB, name string) {
	t.Helper()
	tx := db.Begin()
	if _, err := db.createTable(name, []sql.ColumnDef{
		{Name: "id", Type: sql.ColBigint, PrimaryKey: true},
		{Name: "obj", Type: sql.ColBigint},
		{Name: "dirty", Type: sql.ColBigint},
	}, ModeRefs); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
}

// TestUpdateAcrossWordsIsLogged: the 31-byte rows of a three-column
// reference table lie at every alignment, so of eight neighbours exactly
// one has its reference column on an aligned word. Replacing all eight
// bytes of the column is a held store there (1 line, 1 fence) and a logged
// update — record, data, seq — in the seven rows where the bytes straddle
// two words. (A two-column row is 22 bytes, so a table's rows share one
// parity and the geometry depends on where its first row lies.)
func TestUpdateAcrossWordsIsLogged(t *testing.T) {
	db := testDB(t)
	createThreeColumnRefTable(t, db, "t")
	for pk := int64(0); pk < 8; pk++ {
		if err := db.PersistRef("t", pk, 0x1111_1111_1111_1111); err != nil {
			t.Fatal(err)
		}
	}
	held, logged := 0, 0
	for pk := int64(0); pk < 8; pk++ {
		s0 := db.Device().Stats()
		if err := db.PersistRef("t", pk, 0x2222_2222_2222_2222); err != nil {
			t.Fatal(err)
		}
		switch d := db.Device().Stats().Sub(s0); {
		case d.FlushedLines == 1 && d.Fences == 1:
			held++
		case d.FlushedLines >= 3 && d.Fences == 3:
			logged++
		default:
			t.Fatalf("key %d: %d lines / %d fences", pk, d.FlushedLines, d.Fences)
		}
	}
	if held != 1 || logged != 7 {
		t.Fatalf("%d held and %d logged updates, want 1 and 7", held, logged)
	}
	if err := db.ScanRefs("t", func(pk int64, ref uint64) bool {
		if ref != 0x2222_2222_2222_2222 {
			t.Fatalf("key %d names %#x", pk, ref)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// TestOpensImagesOfTheLoggedOnlyStore: the held store changed no byte of
// the format, so images written by the store that logged every transaction
// (testdata, made at PR 23: keys 0..19 naming 0x1000+k, 3 deleted, 7
// updated) open unchanged — an idle one, and one cut with a logged delete,
// update and insert open, which rolls back as it always did.
func TestOpensImagesOfTheLoggedOnlyStore(t *testing.T) {
	want := refModelAfter(nil, append(refSpan(0, 20, 0x1000), refOp{3, 0}, refOp{7, 0xbeef}))
	for _, name := range loggedOnlyImages {
		refSweep(t, nil).reopen(name, loggedOnlyImage(t, name), fmt.Sprint(want))
	}
}

// loggedOnlyImages are the images TestOpensImagesOfTheLoggedOnlyStore
// opens; their refTable has the three columns (id, obj, dirty).
var loggedOnlyImages = []string{"h2_pr23_idle.img.gz", "h2_pr23_open.img.gz"}

// loggedOnlyImage reads one of loggedOnlyImages.
func loggedOnlyImage(t *testing.T, name string) []byte {
	t.Helper()
	gz, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	img, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestThreeColumnRefTablesTakeWrites: a reference table declared with the
// dirty column that rows no longer carry still takes every write. On the
// logged-only store's images, one transaction puts an existing key and a
// new one and deletes a third; all three read back, live and after a power
// loss, and the rows keep three columns, the third 0.
func TestThreeColumnRefTablesTakeWrites(t *testing.T) {
	for _, name := range loggedOnlyImages {
		db, err := Open(nvm.FromImage(loggedOnlyImage(t, name), nvm.Config{Mode: nvm.Tracked}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tbl, ok := db.TableByName(refTable); !ok || len(tbl.Columns) != 3 {
			t.Fatalf("%s: the image's reference table is not the three-column one", name)
		}
		tx := db.Begin()
		runRefOps(t, tx, []refOp{{7, 0xcafe}, {50, 0xf00d}, {5, 0}})
		tx.Commit()
		again, err := Open(nvm.FromImage(db.Device().CrashImage(nvm.CrashFlushedOnly, 0), nvm.Config{Mode: nvm.Tracked}))
		if err != nil {
			t.Fatalf("%s: reopen: %v", name, err)
		}
		for _, d := range []*DB{db, again} {
			for _, c := range []struct {
				pk  int64
				ref uint64
				ok  bool
			}{{7, 0xcafe, true}, {50, 0xf00d, true}, {5, 0, false}} {
				if ref, ok, err := d.GetRef(refTable, c.pk); err != nil || ok != c.ok || ref != c.ref {
					t.Fatalf("%s: key %d reads %#x %v %v, want %#x %v", name, c.pk, ref, ok, err, c.ref, c.ok)
				}
			}
			rows, err := d.Query("SELECT * FROM t WHERE id = 50")
			if err != nil {
				t.Fatal(err)
			}
			if !rows.Next() || fmt.Sprint(rows.Row()) != fmt.Sprint([]Value{IntV(50), RefV(0xf00d), IntV(0)}) {
				t.Fatalf("%s: the new row does not carry three columns", name)
			}
		}
	}
}
