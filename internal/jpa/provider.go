package jpa

import (
	"fmt"
	"strings"

	"espresso/internal/bench"
	"espresso/internal/h2"
	"espresso/internal/sql"
)

// Provider is the DataNucleus-style JPA implementation: managed entities
// are transformed into SQL statement *text* at commit, lexed/parsed/
// planned by the database, and executed against rows serialized into the
// database's own pages. The transformation work is the 41.9% bar of
// paper Figure 4; the SetProfile hook measures it on the real code path.
type Provider struct {
	db   *h2.DB
	prof bench.Profiler
	ctx  []*Entity // persistence context, in persist order
	inTx bool
}

// NewProvider wires a JPA provider to a database.
func NewProvider(db *h2.DB) *Provider { return &Provider{db: db} }

// SetProfile installs a phase recorder ("Transformation" vs "Database");
// nil removes it.
func (p *Provider) SetProfile(prof bench.Profiler) { p.prof = prof }

func (p *Provider) phase(name string) func() { return bench.Start(p.prof, name) }

// EnsureSchema creates the entity's table if missing.
func (p *Provider) EnsureSchema(def *EntityDef) error {
	if _, ok := p.db.TableByName(def.Table); ok {
		return nil
	}
	_, err := p.db.Exec(def.CreateTableSQL())
	return err
}

// Begin opens a transaction.
func (p *Provider) Begin() {
	p.ctx = p.ctx[:0]
	p.inTx = true
}

// Persist adds an entity to the persistence context. The real write
// happens at commit, as in Figure 3.
func (p *Provider) Persist(e *Entity) error {
	if !p.inTx {
		return fmt.Errorf("jpa: persist outside a transaction")
	}
	e.SM.State = StateManaged
	p.ctx = append(p.ctx, e)
	return nil
}

// Remove marks an entity for deletion at commit.
func (p *Provider) Remove(e *Entity) error {
	if !p.inTx {
		return fmt.Errorf("jpa: remove outside a transaction")
	}
	e.SM.State = StateRemoved
	p.ctx = append(p.ctx, e)
	return nil
}

// Find loads an entity by primary key: generate SELECT text, parse it,
// run it, and transform the row back into an entity.
func (p *Provider) Find(def *EntityDef, id int64) (*Entity, error) {
	stopT := p.phase("Transformation")
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, f := range def.AllFields() {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(f.Name)
	}
	fmt.Fprintf(&sb, " FROM %s WHERE id = %d", def.Table, id)
	st, err := sql.Parse(sb.String())
	stopT()
	if err != nil {
		return nil, err
	}
	stopD := p.phase("Database")
	rows, err := p.db.QueryStmt(st)
	stopD()
	if err != nil {
		return nil, err
	}
	if !rows.Next() {
		return nil, nil
	}
	stopT2 := p.phase("Transformation")
	e := rowToEntity(def, rows.Row())
	stopT2()
	return e, nil
}

func rowToEntity(def *EntityDef, row []h2.Value) *Entity {
	e := def.NewEntity(row[0].I)
	copy(e.vals, row)
	e.SM = StateManager{State: StateManaged}
	return e
}

// Commit transforms every dirty context entity into SQL and executes the
// batch atomically (paper Figure 1: Person p → INSERT INTO TABLE WHERE…).
func (p *Provider) Commit() error {
	if !p.inTx {
		return fmt.Errorf("jpa: commit outside a transaction")
	}
	type planned struct {
		st     sql.Statement
		params []h2.Value
	}
	var stmts []planned
	// Transformation: object state → SQL text → parsed statement.
	stopT := p.phase("Transformation")
	for _, e := range p.ctx {
		text, params := p.transform(e)
		if text == "" {
			continue
		}
		st, err := sql.Parse(text)
		if err != nil {
			stopT()
			return fmt.Errorf("jpa: generated SQL rejected: %w", err)
		}
		stmts = append(stmts, planned{st, params})
	}
	stopT()

	// Database: one backend transaction for the whole commit.
	stopD := p.phase("Database")
	tx := p.db.Begin()
	for _, pl := range stmts {
		if _, err := tx.ExecStmt(pl.st, pl.params...); err != nil {
			tx.Rollback()
			stopD()
			return err
		}
	}
	tx.Commit()
	stopD()

	for _, e := range p.ctx {
		if e.SM.State == StateManaged {
			e.SM.Dirty = 0
			e.SM.New = false
		}
	}
	p.ctx = p.ctx[:0]
	p.inTx = false
	return nil
}

// transform builds the SQL text for one entity — real string building, as
// a JPA provider does. Parameters are inlined as literals for strings to
// exercise quoting, and passed positionally for numerics.
func (p *Provider) transform(e *Entity) (string, []h2.Value) {
	def := e.Def
	switch {
	case e.SM.State == StateRemoved:
		return fmt.Sprintf("DELETE FROM %s WHERE id = %d", def.Table, e.ID()), nil
	case e.SM.New:
		var cols, vals strings.Builder
		var params []h2.Value
		for i, f := range def.AllFields() {
			if i > 0 {
				cols.WriteString(", ")
				vals.WriteString(", ")
			}
			cols.WriteString(f.Name)
			v := e.Value(i)
			if v.Kind == h2.KStr {
				vals.WriteString(sql.Quote(v.S))
			} else {
				vals.WriteString("?")
				params = append(params, v)
			}
		}
		return fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)", def.Table, cols.String(), vals.String()), params
	case e.SM.Dirty != 0:
		var set strings.Builder
		var params []h2.Value
		first := true
		for i, f := range def.AllFields() {
			if i == 0 || e.SM.Dirty&(1<<uint(i)) == 0 {
				continue
			}
			if !first {
				set.WriteString(", ")
			}
			first = false
			v := e.Value(i)
			if v.Kind == h2.KStr {
				fmt.Fprintf(&set, "%s = %s", f.Name, sql.Quote(v.S))
			} else {
				fmt.Fprintf(&set, "%s = ?", f.Name)
				params = append(params, v)
			}
		}
		if first {
			return "", nil
		}
		return fmt.Sprintf("UPDATE %s SET %s WHERE id = %d", def.Table, set.String(), e.ID()), params
	default:
		return "", nil
	}
}
