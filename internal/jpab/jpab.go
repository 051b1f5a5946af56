// Package jpab reproduces the JPA Performance Benchmark (JPAB) workloads
// of the paper's Table 2, driven against any jpa.EntityManager so the
// same code paths measure H2-JPA and H2-PJO:
//
//	BasicTest       basic user-defined classes
//	ExtTest         classes with inheritance relationships
//	CollectionTest  classes containing collection members
//	NodeTest        classes with foreign-key-like references
//
// Each test runs the four CRUD operations (retrieve, update, delete,
// create) over a population of entities, reporting throughput.
package jpab

import (
	"fmt"
	"time"

	"espresso/internal/h2"
	"espresso/internal/jpa"
)

// Entity definitions shared by the tests.
var (
	// Person is the paper's running example, extended with enough fields
	// to make row serialization meaningful.
	Person = jpa.MustEntityDef("Person", nil,
		jpa.FieldDef{Name: "firstName", Kind: jpa.FStr},
		jpa.FieldDef{Name: "lastName", Kind: jpa.FStr},
		jpa.FieldDef{Name: "email", Kind: jpa.FStr},
		jpa.FieldDef{Name: "score", Kind: jpa.FFloat},
	)
	// Employee extends Person (ExtTest).
	Employee = jpa.MustEntityDef("Employee", Person,
		jpa.FieldDef{Name: "salary", Kind: jpa.FInt},
		jpa.FieldDef{Name: "department", Kind: jpa.FStr},
	)
	// Album and Track model a collection member: an Album logically owns
	// Tracks, each Track row carrying the foreign key (CollectionTest).
	Album = jpa.MustEntityDef("Album", nil,
		jpa.FieldDef{Name: "title", Kind: jpa.FStr},
		jpa.FieldDef{Name: "trackCount", Kind: jpa.FInt},
	)
	Track = jpa.MustEntityDef("Track", nil,
		jpa.FieldDef{Name: "albumId", Kind: jpa.FInt},
		jpa.FieldDef{Name: "name", Kind: jpa.FStr},
	)
	// Node references another Node by id (NodeTest).
	Node = jpa.MustEntityDef("GraphNode", nil,
		jpa.FieldDef{Name: "nextId", Kind: jpa.FInt},
		jpa.FieldDef{Name: "label", Kind: jpa.FStr},
	)
)

// Field indices resolved once at load — the workload loops address
// fields by slot, like enhanced bytecode, instead of re-walking the
// name map on every access.
func fi(d *jpa.EntityDef, name string) int {
	i, ok := d.FieldIndex(name)
	if !ok {
		panic("jpab: " + d.Name + " has no field " + name)
	}
	return i
}

var (
	personFirstName = fi(Person, "firstName")
	personLastName  = fi(Person, "lastName")
	personEmail     = fi(Person, "email")
	personScore     = fi(Person, "score")
	employeeSalary  = fi(Employee, "salary")
	employeeDept    = fi(Employee, "department")
	albumTitle      = fi(Album, "title")
	albumTrackCount = fi(Album, "trackCount")
	trackAlbumID    = fi(Track, "albumId")
	trackName       = fi(Track, "name")
	nodeNextID      = fi(Node, "nextId")
	nodeLabel       = fi(Node, "label")
)

// Result is one test's throughput per phase, in operations per second
// (the y-axis of Figure 16).
type Result struct {
	Test      string
	Entities  int
	OpsPerSec map[string]float64 // by Phases' op names
}

// Test is one JPAB test case.
type Test struct {
	Name string
	// Defs lists the entity classes involved (schema setup).
	Defs []*jpa.EntityDef
	// MakeBatch persists one batch of entities with base id.
	MakeBatch func(em jpa.EntityManager, base int64, n int) error
	// Touch mutates one entity (the update operation).
	Touch func(em jpa.EntityManager, id int64) error
	// Fetch retrieves and reads one entity.
	Fetch func(em jpa.EntityManager, id int64) error
	// Drop removes one entity.
	Drop func(em jpa.EntityManager, id int64) error
}

func persistBatch(em jpa.EntityManager, mk func(id int64) *jpa.Entity, base int64, n int) error {
	em.Begin()
	for i := 0; i < n; i++ {
		if err := em.Persist(mk(base + int64(i))); err != nil {
			return err
		}
	}
	return em.Commit()
}

func fetchOne(em jpa.EntityManager, def *jpa.EntityDef, id int64, read func(e *jpa.Entity)) error {
	e, err := em.Find(def, id)
	if err != nil {
		return err
	}
	if e == nil {
		return fmt.Errorf("jpab: %s %d not found", def.Name, id)
	}
	read(e)
	return nil
}

func touchOne(em jpa.EntityManager, def *jpa.EntityDef, id int64, mutate func(e *jpa.Entity)) error {
	e, err := em.Find(def, id)
	if err != nil {
		return err
	}
	if e == nil {
		return fmt.Errorf("jpab: %s %d not found", def.Name, id)
	}
	em.Begin()
	mutate(e)
	if err := em.Persist(e); err != nil {
		return err
	}
	return em.Commit()
}

func dropOne(em jpa.EntityManager, def *jpa.EntityDef, id int64) error {
	e, err := em.Find(def, id)
	if err != nil {
		return err
	}
	if e == nil {
		return fmt.Errorf("jpab: %s %d not found", def.Name, id)
	}
	em.Begin()
	if err := em.Remove(e); err != nil {
		return err
	}
	return em.Commit()
}

// BasicTest exercises plain entities.
func BasicTest() *Test {
	return &Test{
		Name: "BasicTest",
		Defs: []*jpa.EntityDef{Person},
		MakeBatch: func(em jpa.EntityManager, base int64, n int) error {
			return persistBatch(em, func(id int64) *jpa.Entity {
				e := Person.NewEntity(id)
				e.SetValueAt(personFirstName, h2.StrV(fmt.Sprintf("First%d", id)))
				e.SetValueAt(personLastName, h2.StrV(fmt.Sprintf("Last%d", id)))
				e.SetValueAt(personEmail, h2.StrV(fmt.Sprintf("p%d@example.com", id)))
				e.SetValueAt(personScore, h2.FloatV(float64(id)*0.5))
				return e
			}, base, n)
		},
		Fetch: func(em jpa.EntityManager, id int64) error {
			return fetchOne(em, Person, id, func(e *jpa.Entity) {
				_ = e.Value(personFirstName)
				_ = e.Value(personScore)
			})
		},
		Touch: func(em jpa.EntityManager, id int64) error {
			return touchOne(em, Person, id, func(e *jpa.Entity) {
				e.SetValueAt(personScore, h2.FloatV(float64(id)+1.25))
			})
		},
		Drop: func(em jpa.EntityManager, id int64) error { return dropOne(em, Person, id) },
	}
}

// ExtTest exercises inheritance.
func ExtTest() *Test {
	return &Test{
		Name: "ExtTest",
		Defs: []*jpa.EntityDef{Employee},
		MakeBatch: func(em jpa.EntityManager, base int64, n int) error {
			return persistBatch(em, func(id int64) *jpa.Entity {
				e := Employee.NewEntity(id)
				e.SetValueAt(personFirstName, h2.StrV(fmt.Sprintf("First%d", id)))
				e.SetValueAt(personLastName, h2.StrV(fmt.Sprintf("Last%d", id)))
				e.SetValueAt(personEmail, h2.StrV(fmt.Sprintf("e%d@example.com", id)))
				e.SetValueAt(personScore, h2.FloatV(float64(id)))
				e.SetValueAt(employeeSalary, h2.IntV(40000+id))
				e.SetValueAt(employeeDept, h2.StrV("Systems"))
				return e
			}, base, n)
		},
		Fetch: func(em jpa.EntityManager, id int64) error {
			return fetchOne(em, Employee, id, func(e *jpa.Entity) {
				_ = e.Value(personFirstName) // inherited
				_ = e.Value(employeeSalary)  // own
			})
		},
		Touch: func(em jpa.EntityManager, id int64) error {
			return touchOne(em, Employee, id, func(e *jpa.Entity) {
				e.SetValueAt(employeeSalary, h2.IntV(50000+id))
			})
		},
		Drop: func(em jpa.EntityManager, id int64) error { return dropOne(em, Employee, id) },
	}
}

// tracksPerAlbum is the collection fan-out of CollectionTest.
const tracksPerAlbum = 4

// CollectionTest exercises collection members: each Album entity owns
// tracksPerAlbum Track entities.
func CollectionTest() *Test {
	trackID := func(album int64, i int) int64 { return album*tracksPerAlbum + int64(i) }
	return &Test{
		Name: "CollectionTest",
		Defs: []*jpa.EntityDef{Album, Track},
		MakeBatch: func(em jpa.EntityManager, base int64, n int) error {
			em.Begin()
			for i := 0; i < n; i++ {
				id := base + int64(i)
				a := Album.NewEntity(id)
				a.SetValueAt(albumTitle, h2.StrV(fmt.Sprintf("Album %d", id)))
				a.SetValueAt(albumTrackCount, h2.IntV(tracksPerAlbum))
				if err := em.Persist(a); err != nil {
					return err
				}
				for tk := 0; tk < tracksPerAlbum; tk++ {
					t := Track.NewEntity(trackID(id, tk))
					t.SetValueAt(trackAlbumID, h2.IntV(id))
					t.SetValueAt(trackName, h2.StrV(fmt.Sprintf("Track %d-%d", id, tk)))
					if err := em.Persist(t); err != nil {
						return err
					}
				}
			}
			return em.Commit()
		},
		Fetch: func(em jpa.EntityManager, id int64) error {
			if err := fetchOne(em, Album, id, func(e *jpa.Entity) { _ = e.Value(albumTitle) }); err != nil {
				return err
			}
			for tk := 0; tk < tracksPerAlbum; tk++ {
				if err := fetchOne(em, Track, trackID(id, tk), func(e *jpa.Entity) { _ = e.Value(trackName) }); err != nil {
					return err
				}
			}
			return nil
		},
		Touch: func(em jpa.EntityManager, id int64) error {
			return touchOne(em, Track, trackID(id, 0), func(e *jpa.Entity) {
				e.SetValueAt(trackName, h2.StrV(fmt.Sprintf("Track %d-0 (remastered)", id)))
			})
		},
		Drop: func(em jpa.EntityManager, id int64) error {
			for tk := 0; tk < tracksPerAlbum; tk++ {
				if err := dropOne(em, Track, trackID(id, tk)); err != nil {
					return err
				}
			}
			return dropOne(em, Album, id)
		},
	}
}

// NodeTest exercises foreign-key-like references: each node points at the
// next, and retrieval follows the reference.
func NodeTest() *Test {
	return &Test{
		Name: "NodeTest",
		Defs: []*jpa.EntityDef{Node},
		MakeBatch: func(em jpa.EntityManager, base int64, n int) error {
			return persistBatch(em, func(id int64) *jpa.Entity {
				e := Node.NewEntity(id)
				e.SetValueAt(nodeNextID, h2.IntV(id+1)) // chain
				e.SetValueAt(nodeLabel, h2.StrV(fmt.Sprintf("node-%d", id)))
				return e
			}, base, n)
		},
		Fetch: func(em jpa.EntityManager, id int64) error {
			return fetchOne(em, Node, id, func(e *jpa.Entity) {
				next := e.Value(nodeNextID).I
				// Follow the reference if the target exists (chain tail
				// points past the population).
				if tgt, err := em.Find(Node, next); err == nil && tgt != nil {
					_ = tgt.Value(nodeLabel)
				}
			})
		},
		Touch: func(em jpa.EntityManager, id int64) error {
			return touchOne(em, Node, id, func(e *jpa.Entity) {
				e.SetValueAt(nodeLabel, h2.StrV(fmt.Sprintf("node-%d'", id)))
			})
		},
		Drop: func(em jpa.EntityManager, id int64) error { return dropOne(em, Node, id) },
	}
}

// AllTests returns the Table 2 test matrix.
func AllTests() []*Test {
	return []*Test{BasicTest(), ExtTest(), CollectionTest(), NodeTest()}
}

// Phases walks a test's four phases over n entities on em — "create" in
// batches of batch, then "retrieve", "update" and "delete" one id at a
// time — after setting up the schema. Each phase is handed to around with
// its name, its operation count and the func that runs its loop, so the
// caller decides what to observe across it (a clock, a device's counters,
// a profile).
func Phases(t *Test, em jpa.EntityManager, n, batch int, around func(op string, ops int, run func() error) error) error {
	for _, def := range t.Defs {
		if err := em.EnsureSchema(def); err != nil {
			return err
		}
	}
	for _, p := range []struct {
		op   string
		step int
		body func(id int64) error
	}{
		{"create", batch, func(id int64) error { return t.MakeBatch(em, id, min(batch, n-int(id))) }},
		{"retrieve", 1, func(id int64) error { return t.Fetch(em, id) }},
		{"update", 1, func(id int64) error { return t.Touch(em, id) }},
		{"delete", 1, func(id int64) error { return t.Drop(em, id) }},
	} {
		err := around(p.op, n, func() error {
			for id := 0; id < n; id += p.step {
				if err := p.body(int64(id)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s %s: %w", t.Name, p.op, err)
		}
	}
	return nil
}

// Run executes a test against an EntityManager, reporting each phase's
// throughput.
func Run(t *Test, em jpa.EntityManager, n, batch int) (Result, error) {
	res := Result{Test: t.Name, Entities: n, OpsPerSec: map[string]float64{}}
	err := Phases(t, em, n, batch, func(op string, ops int, run func() error) error {
		start := time.Now()
		err := run()
		res.OpsPerSec[op] = float64(ops) / time.Since(start).Seconds()
		return err
	})
	return res, err
}
