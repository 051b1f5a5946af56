package h2

import (
	"encoding/binary"
	"fmt"
	"sync"

	"espresso/internal/nvm"
	"espresso/internal/sql"
)

// StorageMode selects how a table stores rows (see the package comment).
type StorageMode uint8

const (
	// ModeRows serializes column values into the database's pages.
	ModeRows StorageMode = iota
	// ModeRefs stores a persistent-object reference per row; the values
	// live in PJH and belong to the PJO layer.
	ModeRefs
)

// Table is one table's metadata plus its primary-key index.
type Table struct {
	ID      uint16
	Name    string
	Columns []sql.ColumnDef
	PKIdx   int
	Mode    StorageMode
	index   *BTree
}

func (t *Table) colIndex(name string) (int, error) {
	for i, c := range t.Columns {
		if c.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("h2: table %s has no column %q", t.Name, name)
}

// DB is one embedded database instance.
type DB struct {
	mu      sync.Mutex
	dev     *nvm.Device
	store   *store
	tables  map[string]*Table
	byID    map[uint16]*Table
	nextTID uint16
}

// Open attaches to (or formats) a database on dev, rolling back any
// transaction that was active at the crash and rebuilding the catalog and
// every index from the row pages.
func Open(dev *nvm.Device) (*DB, error) {
	st, err := newStore(dev)
	if err != nil {
		return nil, err
	}
	db := &DB{
		dev:     dev,
		store:   st,
		tables:  make(map[string]*Table),
		byID:    make(map[uint16]*Table),
		nextTID: 1,
	}
	// Pass 1: catalog records (table id 0).
	err = db.store.forEach(func(id rowID, rec []byte) error {
		if binary.LittleEndian.Uint16(rec) != 0 {
			return nil
		}
		t, err := decodeCatalogRow(rec[2:])
		if err != nil {
			return err
		}
		t.index = NewBTree()
		db.tables[t.Name] = t
		db.byID[t.ID] = t
		if t.ID >= db.nextTID {
			db.nextTID = t.ID + 1
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Pass 2: data rows → indexes.
	err = db.store.forEach(func(id rowID, rec []byte) error {
		tid := binary.LittleEndian.Uint16(rec)
		if tid == 0 {
			return nil
		}
		t, ok := db.byID[tid]
		if !ok {
			return fmt.Errorf("h2: row for unknown table id %d", tid)
		}
		vals, err := decodeRow(rec[2:])
		if err != nil {
			return err
		}
		t.index.Put(vals[t.PKIdx].I, uint64(id))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

// New creates a database on a fresh device of the given size.
func New(size int, mode nvm.Mode) (*DB, error) {
	return Open(nvm.New(nvm.Config{Size: size, Mode: mode}))
}

// Device exposes the backing device (stats, crash images).
func (db *DB) Device() *nvm.Device { return db.dev }

// TableByName looks a table up.
func (db *DB) TableByName(name string) (*Table, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[name]
	return t, ok
}

func encodeCatalogRow(t *Table) []byte {
	vals := []Value{IntV(int64(t.ID)), StrV(t.Name), IntV(int64(t.PKIdx)), IntV(int64(t.Mode)), IntV(int64(len(t.Columns)))}
	for _, c := range t.Columns {
		pk := int64(0)
		if c.PrimaryKey {
			pk = 1
		}
		vals = append(vals, StrV(c.Name), IntV(int64(c.Type)), IntV(pk))
	}
	return encodeRow(vals)
}

func decodeCatalogRow(b []byte) (*Table, error) {
	vals, err := decodeRow(b)
	if err != nil {
		return nil, err
	}
	if len(vals) < 5 {
		return nil, fmt.Errorf("h2: corrupt catalog row")
	}
	t := &Table{
		ID:    uint16(vals[0].I),
		Name:  vals[1].S,
		PKIdx: int(vals[2].I),
		Mode:  StorageMode(vals[3].I),
	}
	n := int(vals[4].I)
	if len(vals) != 5+3*n {
		return nil, fmt.Errorf("h2: corrupt catalog columns")
	}
	for i := 0; i < n; i++ {
		t.Columns = append(t.Columns, sql.ColumnDef{
			Name:       vals[5+3*i].S,
			Type:       sql.ColumnType(vals[5+3*i+1].I),
			PrimaryKey: vals[5+3*i+2].I == 1,
		})
	}
	return t, nil
}

// createTable registers a table and persists its catalog row.
func (db *DB) createTable(name string, cols []sql.ColumnDef, mode StorageMode) (*Table, error) {
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("h2: table %s already exists", name)
	}
	pk := -1
	for i, c := range cols {
		if c.PrimaryKey {
			if pk >= 0 {
				return nil, fmt.Errorf("h2: table %s: multiple primary keys", name)
			}
			pk = i
		}
	}
	if pk < 0 {
		return nil, fmt.Errorf("h2: table %s needs a BIGINT primary key", name)
	}
	if cols[pk].Type != sql.ColBigint {
		return nil, fmt.Errorf("h2: table %s: primary key must be BIGINT", name)
	}
	t := &Table{ID: db.nextTID, Name: name, Columns: cols, PKIdx: pk, Mode: mode, index: NewBTree()}
	db.nextTID++
	// Catalog rows carry table id 0.
	if _, err := db.store.insert(encodeRecord(0, encodeCatalogRow(t))); err != nil {
		return nil, err
	}
	db.tables[name] = t
	db.byID[t.ID] = t
	return t, nil
}

// CreateRefTable creates a ModeRefs table for the PJO fast path: the
// schema is (id BIGINT PRIMARY KEY, obj REF), the index entry of one
// persistent object. Tables an older database declared with a third
// column, a dirty-field bitmap nothing read, open and take writes as
// before (PersistRef fills it with 0). Auto-commits.
func (db *DB) CreateRefTable(name string) (*Table, error) {
	tx := db.Begin()
	t, err := db.createTable(name, []sql.ColumnDef{
		{Name: "id", Type: sql.ColBigint, PrimaryKey: true},
		{Name: "obj", Type: sql.ColBigint},
	}, ModeRefs)
	if err != nil {
		tx.Rollback()
		return nil, err
	}
	tx.Commit()
	return t, nil
}

// --- Row mutations (shared by SQL execution and the fast path) ---

// encodeRecord prefixes a serialized row with the id of its table.
func encodeRecord(tid uint16, row []byte) []byte {
	rec := make([]byte, 2, 2+len(row))
	binary.LittleEndian.PutUint16(rec, tid)
	return append(rec, row...)
}

func (db *DB) insertRow(t *Table, vals []Value) error {
	pk := vals[t.PKIdx].I
	if _, dup := t.index.Get(pk); dup {
		return fmt.Errorf("h2: duplicate primary key %d in %s", pk, t.Name)
	}
	id, err := db.store.insert(encodeRecord(t.ID, encodeRow(vals)))
	if err != nil {
		return err
	}
	t.index.Put(pk, uint64(id))
	return nil
}

func (db *DB) deleteRow(t *Table, pk int64) (bool, error) {
	idU, ok := t.index.Get(pk)
	if !ok {
		return false, nil
	}
	if err := db.store.delete(rowID(idU)); err != nil {
		return false, err
	}
	t.index.Delete(pk)
	return true, nil
}

func (db *DB) updateRow(t *Table, pk int64, apply func(vals []Value) error) (bool, error) {
	idU, ok := t.index.Get(pk)
	if !ok {
		return false, nil
	}
	rec, err := db.store.read(rowID(idU))
	if err != nil {
		return false, err
	}
	vals, err := decodeRow(rec[2:])
	if err != nil {
		return false, err
	}
	if err := apply(vals); err != nil {
		return false, err
	}
	if vals[t.PKIdx].I != pk {
		return false, fmt.Errorf("h2: updating the primary key is not supported")
	}
	return true, db.replaceRow(t, pk, rowID(idU), vals)
}

// replaceRow stores vals over the row of pk at id. The row moves, and the
// index follows it, only when its encoding changes length.
func (db *DB) replaceRow(t *Table, pk int64, id rowID, vals []Value) error {
	moved, err := db.store.update(id, encodeRecord(t.ID, encodeRow(vals)))
	if err != nil {
		return err
	}
	if moved != id {
		t.index.Put(pk, uint64(moved))
	}
	return nil
}

func (db *DB) getRow(t *Table, pk int64) ([]Value, bool, error) {
	idU, ok := t.index.Get(pk)
	if !ok {
		return nil, false, nil
	}
	rec, err := db.store.read(rowID(idU))
	if err != nil {
		return nil, false, err
	}
	vals, err := decodeRow(rec[2:])
	return vals, true, err
}

// --- Transactions ---

// Tx is an open transaction. The database serializes transactions under
// one lock, as the paper's single-node H2 deployment effectively does.
// The first Commit or Rollback ends it; any later one does nothing.
type Tx struct {
	db   *DB
	done bool
}

// Begin opens a transaction. It costs the device nothing until the
// transaction first stores.
func (db *DB) Begin() *Tx {
	db.mu.Lock()
	return &Tx{db: db}
}

// Commit makes the transaction durable.
func (tx *Tx) Commit() {
	if tx.done {
		return
	}
	tx.done = true
	tx.db.store.commit()
	tx.db.mu.Unlock()
}

// Rollback undoes the transaction.
func (tx *Tx) Rollback() {
	if tx.done {
		return
	}
	tx.done = true
	if tx.db.store.rollback() {
		// Indexes may now disagree with the pages; rebuild them.
		tx.db.rebuildIndexes()
	}
	tx.db.mu.Unlock()
}

func (db *DB) rebuildIndexes() {
	for _, t := range db.tables {
		t.index = NewBTree()
	}
	db.store.fillPage = 0
	_ = db.store.forEach(func(id rowID, rec []byte) error {
		tid := binary.LittleEndian.Uint16(rec)
		if tid == 0 {
			return nil
		}
		if t, ok := db.byID[tid]; ok {
			vals, err := decodeRow(rec[2:])
			if err == nil {
				t.index.Put(vals[t.PKIdx].I, uint64(id))
			}
		}
		return nil
	})
}

// Exec runs a mutating statement inside the transaction.
func (tx *Tx) Exec(text string, params ...Value) (int, error) {
	return tx.db.execLocked(text, params)
}

// Query runs a SELECT inside the transaction.
func (tx *Tx) Query(text string, params ...Value) (*Rows, error) {
	return tx.db.queryLocked(text, params)
}

// Exec runs one auto-committed statement.
func (db *DB) Exec(text string, params ...Value) (int, error) {
	tx := db.Begin()
	n, err := db.execLocked(text, params)
	if err != nil {
		tx.Rollback()
		return n, err
	}
	tx.Commit()
	return n, nil
}

// Query runs one SELECT (no transaction needed: reads are stable under
// the global lock).
func (db *DB) Query(text string, params ...Value) (*Rows, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.queryLocked(text, params)
}
