package pjo

import (
	"testing"

	"espresso/internal/core"
	"espresso/internal/h2"
	"espresso/internal/jpa"
	"espresso/internal/jpab"
	"espresso/internal/nvm"
)

func newProviders(t testing.TB) (*jpa.Provider, *Provider) {
	t.Helper()
	dbJPA, err := h2.New(32<<20, nvm.Direct)
	if err != nil {
		t.Fatal(err)
	}
	dbPJO, err := h2.New(32<<20, nvm.Direct)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(core.Config{PJHDataSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.CreateHeap("pjo", 0); err != nil {
		t.Fatal(err)
	}
	return jpa.NewProvider(dbJPA), NewProvider(rt, dbPJO)
}

func crudSmoke(t *testing.T, em jpa.EntityManager) {
	t.Helper()
	def := jpab.Person
	if err := em.EnsureSchema(def); err != nil {
		t.Fatal(err)
	}
	em.Begin()
	e := def.NewEntity(1)
	e.SetStr("firstName", "Mingyu")
	e.SetStr("lastName", "Wu")
	e.SetStr("email", "mw@sjtu.edu.cn")
	e.SetFloat("score", 4.5)
	if err := em.Persist(e); err != nil {
		t.Fatal(err)
	}
	if err := em.Commit(); err != nil {
		t.Fatal(err)
	}

	got, err := em.Find(def, 1)
	if err != nil || got == nil {
		t.Fatalf("find: %v %v", got, err)
	}
	if got.GetStr("firstName") != "Mingyu" || got.GetFloat("score") != 4.5 {
		t.Fatalf("retrieved %q %v", got.GetStr("firstName"), got.GetFloat("score"))
	}

	em.Begin()
	got.SetFloat("score", 9.75)
	em.Persist(got)
	if err := em.Commit(); err != nil {
		t.Fatal(err)
	}
	again, _ := em.Find(def, 1)
	if again.GetFloat("score") != 9.75 {
		t.Fatalf("update lost: %v", again.GetFloat("score"))
	}

	if err := em.EnsureSchema(def); err != nil {
		t.Fatal(err)
	}
	em.Begin()
	if err := em.Remove(again); err != nil {
		t.Fatal(err)
	}
	if err := em.Commit(); err != nil {
		t.Fatal(err)
	}
	gone, err := em.Find(def, 1)
	if err != nil || gone != nil {
		t.Fatalf("remove failed: %v %v", gone, err)
	}
}

func TestCRUDOnBothProviders(t *testing.T) {
	jp, pj := newProviders(t)
	t.Run("JPA", func(t *testing.T) { crudSmoke(t, jp) })
	t.Run("PJO", func(t *testing.T) { crudSmoke(t, pj) })
}

// TestProvidersAgreeOnJPAB runs every JPAB test on both providers and
// checks they both complete and leave empty tables (all deletes applied).
func TestProvidersAgreeOnJPAB(t *testing.T) {
	for _, test := range jpab.AllTests() {
		test := test
		t.Run(test.Name, func(t *testing.T) {
			jp, pj := newProviders(t)
			rJPA, err := jpab.Run(test, jp, 40, 10)
			if err != nil {
				t.Fatalf("JPA: %v", err)
			}
			rPJO, err := jpab.Run(test, pj, 40, 10)
			if err != nil {
				t.Fatalf("PJO: %v", err)
			}
			for _, r := range []jpab.Result{rJPA, rPJO} {
				if len(r.OpsPerSec) != 4 {
					t.Fatalf("%s ran phases %v, want four", r.Test, r.OpsPerSec)
				}
				for op, v := range r.OpsPerSec {
					if v <= 0 {
						t.Fatalf("%s %s throughput = %v", r.Test, op, v)
					}
				}
			}
		})
	}
}

func TestDedupRedirectsReads(t *testing.T) {
	_, pj := newProviders(t)
	def := jpab.Person
	pj.EnsureSchema(def)
	pj.Begin()
	e := def.NewEntity(7)
	e.SetStr("firstName", "volatile-before-commit")
	e.SetFloat("score", 1.0)
	pj.Persist(e)
	if err := pj.Commit(); err != nil {
		t.Fatal(err)
	}
	if e.SM.PJORef == 0 {
		t.Fatal("commit did not record the persistent copy")
	}
	if e.SM.ReadThrough == nil {
		t.Fatal("dedup did not redirect the entity")
	}
	// Reads now come from NVM.
	if e.GetStr("firstName") != "volatile-before-commit" {
		t.Fatalf("read-through = %q", e.GetStr("firstName"))
	}
	// Copy-on-write: a post-dedup write must not touch the persistent
	// copy until commit.
	refBefore := e.SM.PJORef
	e.SetStr("firstName", "shadowed")
	if e.GetStr("firstName") != "shadowed" {
		t.Fatal("shadow write invisible")
	}
	fresh, _ := pj.Find(def, 7)
	if fresh.GetStr("firstName") != "volatile-before-commit" {
		t.Fatal("shadow write leaked into the persistent copy before commit")
	}
	pj.Begin()
	pj.Persist(e)
	if err := pj.Commit(); err != nil {
		t.Fatal(err)
	}
	if e.SM.PJORef != refBefore {
		t.Fatal("update should reuse the persistent copy")
	}
	fresh2, _ := pj.Find(def, 7)
	if fresh2.GetStr("firstName") != "shadowed" {
		t.Fatal("committed shadow not visible")
	}
}

func TestFieldTrackingShipsOnlyDirtyColumns(t *testing.T) {
	_, pj := newProviders(t)
	def := jpab.Person
	pj.EnsureSchema(def)
	pj.Begin()
	e := def.NewEntity(3)
	e.SetStr("firstName", "A")
	e.SetStr("lastName", "B")
	e.SetFloat("score", 2.0)
	pj.Persist(e)
	pj.Commit()

	statsBefore := pj.rt.ActiveHeap().Device().Stats()
	pj.Begin()
	e.SetFloat("score", 3.0) // one dirty field
	pj.Persist(e)
	if err := pj.Commit(); err != nil {
		t.Fatal(err)
	}
	oneField := pj.rt.ActiveHeap().Device().Stats().Sub(statsBefore).BytesWritten

	pj.FieldTracking = false
	statsBefore = pj.rt.ActiveHeap().Device().Stats()
	pj.Begin()
	e.SetFloat("score", 4.0)
	pj.Persist(e)
	if err := pj.Commit(); err != nil {
		t.Fatal(err)
	}
	allFields := pj.rt.ActiveHeap().Device().Stats().Sub(statsBefore).BytesWritten
	if oneField >= allFields {
		t.Fatalf("field tracking did not reduce NVM writes: %d vs %d", oneField, allFields)
	}
}

func TestPJODataSurvivesDatabaseCrash(t *testing.T) {
	// The backend's own logging plus PJH storage: after a crash image of
	// both devices, the committed entity is still retrievable.
	db, err := h2.New(16<<20, nvm.Tracked)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(core.Config{PJHDataSize: 8 << 20, NVMMode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	rt.CreateHeap("pjo", 0)
	pj := NewProvider(rt, db)
	def := jpab.Person
	pj.EnsureSchema(def)
	pj.Begin()
	e := def.NewEntity(11)
	e.SetStr("firstName", "durable")
	e.SetFloat("score", 6.5)
	pj.Persist(e)
	if err := pj.Commit(); err != nil {
		t.Fatal(err)
	}

	// Crash both devices; reload.
	dbImg := db.Device().CrashImage(nvm.CrashFlushedOnly, 1)
	heapImg := rt.ActiveHeap().Device().CrashImage(nvm.CrashFlushedOnly, 1)
	db2, err := h2.Open(nvm.FromImage(dbImg, nvm.Config{Mode: nvm.Tracked}))
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := core.NewRuntime(core.Config{NVMMode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt2.NameManager().Register("pjo", nvm.FromImage(heapImg, nvm.Config{Mode: nvm.Tracked})); err != nil {
		t.Fatal(err)
	}
	if _, err := rt2.LoadHeap("pjo"); err != nil {
		t.Fatal(err)
	}
	pj2 := NewProvider(rt2, db2)
	got, err := pj2.Find(def, 11)
	if err != nil || got == nil {
		t.Fatalf("find after crash: %v %v", got, err)
	}
	if got.GetStr("firstName") != "durable" || got.GetFloat("score") != 6.5 {
		t.Fatalf("recovered entity: %q %v", got.GetStr("firstName"), got.GetFloat("score"))
	}
}
