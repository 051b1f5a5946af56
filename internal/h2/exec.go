package h2

import (
	"fmt"

	"espresso/internal/sql"
)

// SQL execution: bind parameters, plan (primary-key point access when the
// predicate allows, full scan otherwise), run against the store.

// Rows is a materialized result set with a JDBC-flavored cursor.
type Rows struct {
	Columns []string
	rows    [][]Value
	i       int
}

// Next advances the cursor, reporting whether a row is available.
func (r *Rows) Next() bool {
	if r.i >= len(r.rows) {
		return false
	}
	r.i++
	return true
}

// Row returns the current row's values.
func (r *Rows) Row() []Value { return r.rows[r.i-1] }

// Len reports the number of rows.
func (r *Rows) Len() int { return len(r.rows) }

func bindExpr(e sql.Expr, params []Value, nextParam *int) (Value, error) {
	switch {
	case e.Param:
		if *nextParam >= len(params) {
			return Null, fmt.Errorf("h2: not enough parameters")
		}
		v := params[*nextParam]
		*nextParam++
		return v, nil
	case e.IsInt:
		return IntV(e.Int), nil
	case e.IsStr:
		return StrV(e.Str), nil
	case e.IsReal:
		return FloatV(e.Real), nil
	default:
		return Null, nil
	}
}

// ExecStmt runs a pre-parsed mutating statement (prepared-statement path).
func (db *DB) ExecStmt(st sql.Statement, params ...Value) (int, error) {
	tx := db.Begin()
	n, err := db.execStmtLocked(st, params)
	if err != nil {
		tx.Rollback()
		return n, err
	}
	tx.Commit()
	return n, nil
}

// ExecStmt runs a pre-parsed statement inside the transaction.
func (tx *Tx) ExecStmt(st sql.Statement, params ...Value) (int, error) {
	return tx.db.execStmtLocked(st, params)
}

func (db *DB) execLocked(text string, params []Value) (int, error) {
	st, err := sql.Parse(text)
	if err != nil {
		return 0, err
	}
	return db.execStmtLocked(st, params)
}

func (db *DB) execStmtLocked(st sql.Statement, params []Value) (int, error) {
	switch s := st.(type) {
	case *sql.CreateTable:
		_, err := db.createTable(s.Table, s.Columns, ModeRows)
		return 0, err

	case *sql.Insert:
		t, ok := db.tables[s.Table]
		if !ok {
			return 0, fmt.Errorf("h2: no table %s", s.Table)
		}
		vals := make([]Value, len(t.Columns))
		for i := range vals {
			vals[i] = Null
		}
		nextParam := 0
		for i, col := range s.Columns {
			ci, err := t.colIndex(col)
			if err != nil {
				return 0, err
			}
			v, err := bindExpr(s.Values[i], params, &nextParam)
			if err != nil {
				return 0, err
			}
			vals[ci] = v
		}
		if vals[t.PKIdx].Kind != KInt {
			return 0, fmt.Errorf("h2: insert into %s without integer primary key", t.Name)
		}
		return 1, db.insertRow(t, vals)

	case *sql.Update:
		t, ok := db.tables[s.Table]
		if !ok {
			return 0, fmt.Errorf("h2: no table %s", s.Table)
		}
		nextParam := 0
		type setv struct {
			ci int
			v  Value
		}
		var sets []setv
		for _, a := range s.Set {
			ci, err := t.colIndex(a.Column)
			if err != nil {
				return 0, err
			}
			v, err := bindExpr(a.Value, params, &nextParam)
			if err != nil {
				return 0, err
			}
			sets = append(sets, setv{ci, v})
		}
		pks, err := db.planKeys(t, s.Where, params, &nextParam)
		if err != nil {
			return 0, err
		}
		n := 0
		for _, pk := range pks {
			ok, err := db.updateRow(t, pk, func(vals []Value) error {
				for _, sv := range sets {
					vals[sv.ci] = sv.v
				}
				return nil
			})
			if err != nil {
				return n, err
			}
			if ok {
				n++
			}
		}
		return n, nil

	case *sql.Delete:
		t, ok := db.tables[s.Table]
		if !ok {
			return 0, fmt.Errorf("h2: no table %s", s.Table)
		}
		nextParam := 0
		pks, err := db.planKeys(t, s.Where, params, &nextParam)
		if err != nil {
			return 0, err
		}
		n := 0
		for _, pk := range pks {
			ok, err := db.deleteRow(t, pk)
			if err != nil {
				return n, err
			}
			if ok {
				n++
			}
		}
		return n, nil

	default:
		return 0, fmt.Errorf("h2: statement is not executable with Exec")
	}
}

// planKeys resolves a WHERE clause to the list of primary keys to touch:
// a point lookup when the predicate is on the primary key, otherwise a
// filtered scan.
func (db *DB) planKeys(t *Table, where *sql.Cond, params []Value, nextParam *int) ([]int64, error) {
	if where == nil {
		var pks []int64
		t.index.Scan(-1<<63, 1<<63-1, func(k int64, _ uint64) bool {
			pks = append(pks, k)
			return true
		})
		return pks, nil
	}
	ci, err := t.colIndex(where.Column)
	if err != nil {
		return nil, err
	}
	v, err := bindExpr(where.Value, params, nextParam)
	if err != nil {
		return nil, err
	}
	if ci == t.PKIdx {
		if v.Kind != KInt {
			return nil, fmt.Errorf("h2: primary key predicate must be an integer")
		}
		if _, ok := t.index.Get(v.I); ok {
			return []int64{v.I}, nil
		}
		return nil, nil
	}
	// Secondary predicate: full scan with filter.
	var pks []int64
	var scanErr error
	t.index.Scan(-1<<63, 1<<63-1, func(k int64, id uint64) bool {
		rec, err := db.store.read(rowID(id))
		if err != nil {
			scanErr = err
			return false
		}
		vals, err := decodeRow(rec[2:])
		if err != nil {
			scanErr = err
			return false
		}
		if vals[ci].Equal(v) {
			pks = append(pks, k)
		}
		return true
	})
	return pks, scanErr
}

func (db *DB) queryLocked(text string, params []Value) (*Rows, error) {
	st, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	return db.queryStmtLocked(st, params)
}

// QueryStmt runs a pre-parsed SELECT.
func (db *DB) QueryStmt(st sql.Statement, params ...Value) (*Rows, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.queryStmtLocked(st, params)
}

func (db *DB) queryStmtLocked(st sql.Statement, params []Value) (*Rows, error) {
	s, ok := st.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("h2: Query requires a SELECT")
	}
	t, tok := db.tables[s.Table]
	if !tok {
		return nil, fmt.Errorf("h2: no table %s", s.Table)
	}
	nextParam := 0
	pks, err := db.planKeys(t, s.Where, params, &nextParam)
	if err != nil {
		return nil, err
	}
	var proj []int
	var names []string
	if s.Columns == nil {
		for i, c := range t.Columns {
			proj = append(proj, i)
			names = append(names, c.Name)
		}
	} else {
		for _, cn := range s.Columns {
			ci, err := t.colIndex(cn)
			if err != nil {
				return nil, err
			}
			proj = append(proj, ci)
			names = append(names, cn)
		}
	}
	out := &Rows{Columns: names}
	for _, pk := range pks {
		vals, ok, err := db.getRow(t, pk)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		row := make([]Value, len(proj))
		for i, ci := range proj {
			row[i] = vals[ci]
		}
		out.rows = append(out.rows, row)
	}
	return out, nil
}

// --- PJO fast path (DBPersistable shipping) ---

// PersistRef inserts or updates a ModeRefs row: the persistent-object
// reference stored for pk. No SQL is built or parsed. A row that already
// names ref is stored again unchanged, which costs the device nothing.
// Auto-commits; use Tx.PersistRef to batch several under one transaction.
func (db *DB) PersistRef(table string, pk int64, ref uint64) error {
	tx := db.Begin()
	if err := db.persistRefLocked(table, pk, ref); err != nil {
		tx.Rollback()
		return err
	}
	tx.Commit()
	return nil
}

// PersistRef is the transactional form of DB.PersistRef.
func (tx *Tx) PersistRef(table string, pk int64, ref uint64) error {
	return tx.db.persistRefLocked(table, pk, ref)
}

func (db *DB) persistRefLocked(table string, pk int64, ref uint64) error {
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("h2: no table %s", table)
	}
	if t.Mode != ModeRefs {
		return fmt.Errorf("h2: table %s does not store object references", table)
	}
	// The whole row is given: an existing one is replaced unread. A table
	// an older database declared with a third (dirty) column gets 0 there.
	vals := []Value{IntV(pk), RefV(ref), IntV(0)}[:len(t.Columns)]
	if id, exists := t.index.Get(pk); exists {
		return db.replaceRow(t, pk, rowID(id), vals)
	}
	return db.insertRow(t, vals)
}

// GetRef fetches the object reference stored for pk.
func (db *DB) GetRef(table string, pk int64) (uint64, bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[table]
	if !ok {
		return 0, false, fmt.Errorf("h2: no table %s", table)
	}
	vals, found, err := db.getRow(t, pk)
	if err != nil || !found {
		return 0, false, err
	}
	return uint64(vals[1].I), true, nil
}

// DeleteRef removes a ModeRefs row (auto-commit).
func (db *DB) DeleteRef(table string, pk int64) (bool, error) {
	tx := db.Begin()
	ok, err := tx.db.deleteRefLocked(table, pk)
	if err != nil {
		tx.Rollback()
		return ok, err
	}
	tx.Commit()
	return ok, nil
}

// DeleteRef is the transactional form of DB.DeleteRef.
func (tx *Tx) DeleteRef(table string, pk int64) (bool, error) {
	return tx.db.deleteRefLocked(table, pk)
}

func (db *DB) deleteRefLocked(table string, pk int64) (bool, error) {
	t, ok := db.tables[table]
	if !ok {
		return false, fmt.Errorf("h2: no table %s", table)
	}
	return db.deleteRow(t, pk)
}

// ScanRefs visits every (pk, ref) pair in a ModeRefs table.
func (db *DB) ScanRefs(table string, fn func(pk int64, ref uint64) bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("h2: no table %s", table)
	}
	var scanErr error
	t.index.Scan(-1<<63, 1<<63-1, func(k int64, id uint64) bool {
		vals, found, err := db.getRow(t, k)
		if err != nil {
			scanErr = err
			return false
		}
		if !found {
			return true
		}
		return fn(k, uint64(vals[1].I))
	})
	return scanErr
}
