package h2

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"espresso/internal/nvm"
)

func testDB(t testing.TB) *DB {
	t.Helper()
	db, err := New(16<<20, nvm.Tracked)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("CREATE TABLE person (id BIGINT PRIMARY KEY, name VARCHAR, score DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO person (id, name, score) VALUES (1, 'Jimmy', 9.5)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO person (id, name, score) VALUES (?, ?, ?)",
		IntV(2), StrV("Alice"), FloatV(7.25)); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query("SELECT name, score FROM person WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || !rows.Next() {
		t.Fatalf("rows = %d", rows.Len())
	}
	r := rows.Row()
	if r[0].S != "Alice" || r[1].F != 7.25 {
		t.Fatalf("row = %v", r)
	}
	all, err := db.Query("SELECT * FROM person")
	if err != nil || all.Len() != 2 {
		t.Fatalf("select * → %d rows, err %v", all.Len(), err)
	}
}

func TestUpdateDelete(t *testing.T) {
	db := testDB(t)
	db.Exec("CREATE TABLE t (id BIGINT PRIMARY KEY, v VARCHAR)")
	for i := 0; i < 10; i++ {
		if _, err := db.Exec("INSERT INTO t (id, v) VALUES (?, ?)", IntV(int64(i)), StrV(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	n, err := db.Exec("UPDATE t SET v = 'changed' WHERE id = 5")
	if err != nil || n != 1 {
		t.Fatalf("update n=%d err=%v", n, err)
	}
	rows, _ := db.Query("SELECT v FROM t WHERE id = 5")
	rows.Next()
	if rows.Row()[0].S != "changed" {
		t.Fatalf("update lost: %v", rows.Row())
	}
	n, err = db.Exec("DELETE FROM t WHERE id = 3")
	if err != nil || n != 1 {
		t.Fatalf("delete n=%d err=%v", n, err)
	}
	rows, _ = db.Query("SELECT * FROM t")
	if rows.Len() != 9 {
		t.Fatalf("rows after delete = %d", rows.Len())
	}
	// Secondary-column predicate (filtered scan).
	rows, err = db.Query("SELECT id FROM t WHERE v = 'changed'")
	if err != nil || rows.Len() != 1 {
		t.Fatalf("scan query: %d %v", rows.Len(), err)
	}
	rows.Next()
	if rows.Row()[0].I != 5 {
		t.Fatalf("scan found id %d", rows.Row()[0].I)
	}
}

func TestDuplicatePKRejected(t *testing.T) {
	db := testDB(t)
	db.Exec("CREATE TABLE t (id BIGINT PRIMARY KEY, v VARCHAR)")
	db.Exec("INSERT INTO t (id, v) VALUES (1, 'a')")
	if _, err := db.Exec("INSERT INTO t (id, v) VALUES (1, 'b')"); err == nil {
		t.Fatal("duplicate primary key accepted")
	}
}

func TestTransactionRollback(t *testing.T) {
	db := testDB(t)
	db.Exec("CREATE TABLE t (id BIGINT PRIMARY KEY, v VARCHAR)")
	db.Exec("INSERT INTO t (id, v) VALUES (1, 'keep')")
	tx := db.Begin()
	tx.Exec("INSERT INTO t (id, v) VALUES (2, 'discard')")
	tx.Exec("UPDATE t SET v = 'mutated' WHERE id = 1")
	tx.Rollback()
	rows, _ := db.Query("SELECT * FROM t")
	if rows.Len() != 1 {
		t.Fatalf("rollback left %d rows", rows.Len())
	}
	rows, _ = db.Query("SELECT v FROM t WHERE id = 1")
	rows.Next()
	if rows.Row()[0].S != "keep" {
		t.Fatalf("rollback did not restore: %v", rows.Row())
	}
}

func TestRecoveryAfterCrashMidTransaction(t *testing.T) {
	db := testDB(t)
	db.Exec("CREATE TABLE t (id BIGINT PRIMARY KEY, v VARCHAR)")
	db.Exec("INSERT INTO t (id, v) VALUES (1, 'committed')")
	// Open a transaction and crash before commit.
	tx := db.Begin()
	tx.Exec("INSERT INTO t (id, v) VALUES (2, 'uncommitted')")
	tx.Exec("UPDATE t SET v = 'dirty' WHERE id = 1")
	img := db.Device().CrashImage(nvm.CrashAllDirty, 0)
	// Abandon the transaction (simulated power loss) and reopen.
	db2, err := Open(nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db2.Query("SELECT v FROM t WHERE id = 1")
	if err != nil || rows.Len() != 1 {
		t.Fatalf("recovered rows: %d err=%v", rows.Len(), err)
	}
	rows.Next()
	if rows.Row()[0].S != "committed" {
		t.Fatalf("uncommitted update survived crash: %v", rows.Row())
	}
	if r, _ := db2.Query("SELECT * FROM t WHERE id = 2"); r.Len() != 0 {
		t.Fatal("uncommitted insert survived crash")
	}
	tx.Rollback() // release the abandoned lock for cleanliness
}

func TestCommittedDataSurvivesCrash(t *testing.T) {
	db := testDB(t)
	db.Exec("CREATE TABLE t (id BIGINT PRIMARY KEY, v VARCHAR)")
	for i := 0; i < 50; i++ {
		db.Exec("INSERT INTO t (id, v) VALUES (?, ?)", IntV(int64(i)), StrV(fmt.Sprintf("row%d", i)))
	}
	img := db.Device().CrashImage(nvm.CrashFlushedOnly, 7)
	db2, err := Open(nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db2.Query("SELECT * FROM t")
	if err != nil || rows.Len() != 50 {
		t.Fatalf("recovered %d rows, err=%v", rows.Len(), err)
	}
	rows, _ = db2.Query("SELECT v FROM t WHERE id = 33")
	rows.Next()
	if rows.Row()[0].S != "row33" {
		t.Fatalf("row 33 = %v", rows.Row())
	}
}

func TestRefTableFastPath(t *testing.T) {
	db := testDB(t)
	if _, err := db.CreateRefTable("objstore"); err != nil {
		t.Fatal(err)
	}
	if err := db.PersistRef("objstore", 10, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	ref, ok, err := db.GetRef("objstore", 10)
	if err != nil || !ok || ref != 0xdeadbeef {
		t.Fatalf("GetRef = %#x %v %v", ref, ok, err)
	}
	// Update through the same call.
	if err := db.PersistRef("objstore", 10, 0xcafe); err != nil {
		t.Fatal(err)
	}
	ref, _, _ = db.GetRef("objstore", 10)
	if ref != 0xcafe {
		t.Fatalf("updated ref = %#x", ref)
	}
	// Batch under one transaction.
	tx := db.Begin()
	for i := int64(0); i < 5; i++ {
		if err := tx.PersistRef("objstore", 100+i, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	count := 0
	db.ScanRefs("objstore", func(pk int64, ref uint64) bool { count++; return true })
	if count != 6 {
		t.Fatalf("scan count = %d", count)
	}
	ok, err = db.DeleteRef("objstore", 10)
	if err != nil || !ok {
		t.Fatalf("DeleteRef = %v %v", ok, err)
	}
}

func TestCatalogSurvivesReopen(t *testing.T) {
	db := testDB(t)
	db.Exec("CREATE TABLE a (id BIGINT PRIMARY KEY, x VARCHAR)")
	db.CreateRefTable("b")
	db.Device().FlushAll()
	img := db.Device().CrashImage(nvm.CrashFlushedOnly, 0)
	db2, err := Open(nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}))
	if err != nil {
		t.Fatal(err)
	}
	ta, ok := db2.TableByName("a")
	if !ok || ta.Mode != ModeRows || len(ta.Columns) != 2 {
		t.Fatalf("table a lost: %+v %v", ta, ok)
	}
	tb, ok := db2.TableByName("b")
	if !ok || tb.Mode != ModeRefs {
		t.Fatalf("table b lost: %+v %v", tb, ok)
	}
	// Inserting after reopen must not clash with catalog rows.
	if _, err := db2.Exec("INSERT INTO a (id, x) VALUES (1, 'post-reopen')"); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBTreeMatchesModel(t *testing.T) {
	f := func(ops []int16, seed int64) bool {
		bt := NewBTree()
		model := map[int64]uint64{}
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			k := int64(op % 512)
			switch rng.Intn(3) {
			case 0, 1:
				v := rng.Uint64()
				bt.Put(k, v)
				model[k] = v
			case 2:
				got := bt.Delete(k)
				_, want := model[k]
				if got != want {
					return false
				}
				delete(model, k)
			}
		}
		if bt.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := bt.Get(k)
			if !ok || got != v {
				return false
			}
		}
		// Scans see keys in order.
		prev := int64(-1 << 62)
		okScan := true
		n := 0
		bt.Scan(-1<<62, 1<<62, func(k int64, v uint64) bool {
			if k <= prev || model[k] != v {
				okScan = false
				return false
			}
			prev = k
			n++
			return true
		})
		return okScan && n == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeLargeSequential(t *testing.T) {
	bt := NewBTree()
	const n = 50000
	for i := 0; i < n; i++ {
		bt.Put(int64(i), uint64(i*3))
	}
	if bt.Len() != n {
		t.Fatalf("len = %d", bt.Len())
	}
	for i := 0; i < n; i += 997 {
		v, ok := bt.Get(int64(i))
		if !ok || v != uint64(i*3) {
			t.Fatalf("key %d = %d %v", i, v, ok)
		}
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	f := func(i int64, s string, fl float64) bool {
		vals := []Value{IntV(i), StrV(s), FloatV(fl), Null, RefV(uint64(i))}
		got, err := decodeRow(encodeRow(vals))
		if err != nil || len(got) != len(vals) {
			return false
		}
		for j := range vals {
			if !got[j].Equal(vals[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSQLErrors(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("SELECT syntax oops"); err == nil {
		t.Fatal("garbage SQL accepted")
	}
	if _, err := db.Exec("INSERT INTO missing (id) VALUES (1)"); err == nil {
		t.Fatal("insert into missing table accepted")
	}
	db.Exec("CREATE TABLE t (id BIGINT PRIMARY KEY, v VARCHAR)")
	if _, err := db.Exec("INSERT INTO t (id, bogus) VALUES (1, 'x')"); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := db.Exec("CREATE TABLE nopk (v VARCHAR)"); err == nil {
		t.Fatal("table without primary key accepted")
	}
}
