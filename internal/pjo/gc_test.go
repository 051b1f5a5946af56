package pjo

import (
	"errors"
	"fmt"
	"testing"

	"espresso/internal/core"
	"espresso/internal/jpa"
	"espresso/internal/jpab"
)

// TestPersistentGCKeepsPJOEntities commits creates, updates and deletes
// through the PJO provider, asks for a persistent collection of its
// heap, commits more, and then finds every entity against an oracle.
// H2's rows are the only names of the DBPersistables, on another device,
// so a collection that freed them would let the later commits reuse
// their space: each entity would read another's fields. Until the
// collector traces those rows, the heap is refused with a
// *core.NamedElsewhereError and nothing is freed.
func TestPersistentGCKeepsPJOEntities(t *testing.T) {
	_, p := newProviders(t)
	def := jpab.Person
	if err := p.EnsureSchema(def); err != nil {
		t.Fatal(err)
	}
	oracle := map[int64]string{} // id → firstName; absent once deleted
	commit := func(what string, fn func() error) {
		t.Helper()
		p.Begin()
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if err := p.Commit(); err != nil {
			t.Fatalf("%s: commit: %v", what, err)
		}
	}
	create := func(id int64) {
		commit(fmt.Sprintf("create %d", id), func() error {
			e := def.NewEntity(id)
			e.SetStr("firstName", fmt.Sprintf("F%d", id))
			e.SetStr("lastName", fmt.Sprintf("L%d", id))
			e.SetStr("email", fmt.Sprintf("e%d@example.org", id))
			e.SetFloat("score", float64(id))
			oracle[id] = fmt.Sprintf("F%d", id)
			return p.Persist(e)
		})
	}
	found := func(id int64) *jpa.Entity {
		t.Helper()
		e, err := p.Find(def, id)
		if err != nil || e == nil {
			t.Fatalf("find %d: %v, %v", id, e, err)
		}
		return e
	}
	update := func(id int64) {
		e := found(id)
		commit(fmt.Sprintf("update %d", id), func() error {
			e.SetStr("firstName", fmt.Sprintf("U%d", id))
			oracle[id] = fmt.Sprintf("U%d", id)
			return p.Persist(e)
		})
	}
	remove := func(id int64) {
		e := found(id)
		commit(fmt.Sprintf("delete %d", id), func() error {
			delete(oracle, id)
			return p.Remove(e)
		})
	}

	for id := int64(1); id <= 200; id++ {
		create(id)
	}
	for id := int64(5); id <= 200; id += 5 {
		update(id)
	}
	for id := int64(7); id <= 200; id += 7 {
		remove(id)
	}
	var refused *core.NamedElsewhereError
	if _, err := p.rt.PersistentGC("pjo"); err != nil && !errors.As(err, &refused) {
		t.Fatal(err)
	}
	for id := int64(201); id <= 600; id++ {
		create(id)
	}
	for id := int64(3); id <= 600; id += 9 {
		if _, ok := oracle[id]; ok {
			update(id)
		}
	}

	wrong := 0
	for id := int64(1); id <= 600; id++ {
		e, err := p.Find(def, id)
		if err != nil {
			t.Fatalf("find %d: %v", id, err)
		}
		want, live := oracle[id]
		switch {
		case !live && e != nil:
			t.Errorf("entity %d found after its delete", id)
		case !live:
		case e == nil:
			t.Errorf("entity %d lost", id)
		case e.GetStr("firstName") != want || e.GetStr("lastName") != fmt.Sprintf("L%d", id) ||
			e.GetFloat("score") != float64(id):
			if wrong++; wrong <= 5 {
				t.Errorf("entity %d reads (%q, %q, %v), want (%q, %q, %d)", id,
					e.GetStr("firstName"), e.GetStr("lastName"), e.GetFloat("score"), want, fmt.Sprintf("L%d", id), id)
			}
		}
	}
	if wrong > 0 {
		t.Errorf("%d entities read fields that are not theirs", wrong)
	}
}
