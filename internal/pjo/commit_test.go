package pjo

import (
	"fmt"
	"strings"
	"testing"

	"espresso/internal/core"
	"espresso/internal/h2"
	"espresso/internal/jpa"
	"espresso/internal/jpab"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
)

// sweepWorld is a PJO provider over two Tracked devices: the heap's and
// the database's.
type sweepWorld struct {
	rt   *core.Runtime
	heap *nvm.Device
	db   *h2.DB
	p    *Provider
}

func newSweepWorld(t *testing.T) *sweepWorld {
	t.Helper()
	db, err := h2.New(2<<20, nvm.Tracked)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(core.Config{PJHDataSize: 2 << 20, NVMMode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	h, err := rt.CreateHeap("pjo", 0)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProvider(rt, db)
	for _, def := range []*jpa.EntityDef{jpab.Person, jpab.Album, jpab.Track} {
		if err := p.EnsureSchema(def); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.mutator(); err != nil {
		t.Fatal(err)
	}
	return &sweepWorld{rt: rt, heap: h.Device(), db: db, p: p}
}

// commit persists ents in one transaction.
func (w *sweepWorld) commit(ents []*jpa.Entity) error {
	w.p.Begin()
	for _, e := range ents {
		if err := w.p.Persist(e); err != nil {
			return err
		}
	}
	return w.p.Commit()
}

// want is an entity as committed: its class, id and every field's value.
type want struct {
	def  *jpa.EntityDef
	id   int64
	vals []h2.Value
}

func wantsOf(ents []*jpa.Entity) []want {
	ws := make([]want, len(ents))
	for i, e := range ents {
		ws[i] = want{def: e.Def, id: e.ID(), vals: make([]h2.Value, len(e.Def.AllFields()))}
		for j := range ws[i].vals {
			ws[i].vals[j] = e.Value(j)
		}
	}
	return ws
}

// createStep is one create commit of the sweep; ents builds its entities
// afresh for each world that replays it.
type createStep struct {
	name string
	ents func() []*jpa.Entity
}

func persons(lo, n, pad int) func() []*jpa.Entity {
	return func() []*jpa.Entity {
		ents := make([]*jpa.Entity, n)
		for i := range ents {
			id := int64(lo + i)
			e := jpab.Person.NewEntity(id)
			e.SetStr("firstName", fmt.Sprintf("first-%d", id)+strings.Repeat("x", pad))
			e.SetStr("lastName", fmt.Sprintf("last-%d", id))
			e.SetStr("email", fmt.Sprintf("p%d@example.org", id))
			e.SetFloat("score", float64(id)+0.5)
			ents[i] = e
		}
		return ents
	}
}

// albums is a CollectionTest batch: n albums of four tracks each.
func albums(n int) func() []*jpa.Entity {
	return func() []*jpa.Entity {
		var ents []*jpa.Entity
		for id := int64(0); id < int64(n); id++ {
			a := jpab.Album.NewEntity(id)
			a.SetStr("title", fmt.Sprintf("Album %d", id))
			a.SetInt("trackCount", 4)
			ents = append(ents, a)
			for tk := int64(0); tk < 4; tk++ {
				tr := jpab.Track.NewEntity(4*id + tk)
				tr.SetInt("albumId", id)
				tr.SetStr("name", fmt.Sprintf("Track %d-%d", id, tk))
				ents = append(ents, tr)
			}
		}
		return ents
	}
}

// createSteps are the sweep's commits. The 50 Persons carry about 300 KB
// of strings, more than a PLAB holds, so that commit ships as several runs
// with a PLAB refill between them.
var createSteps = []createStep{
	{"1 Person", persons(0, 1, 0)},
	{"2 Persons", persons(1, 2, 0)},
	{"50 Persons across a PLAB", persons(100, 50, 6000)},
	{"a CollectionTest batch", albums(10)},
}

// reopen recovers both devices' images and holds them to the oracle: every
// entity of done reads back whole, and of step's either every one does or
// none is found.
func reopen(t *testing.T, tag string, heapImg, dbImg []byte, done, step []want) {
	t.Helper()
	rt, err := core.NewRuntime(core.Config{NVMMode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.NameManager().Register("pjo", nvm.FromImage(heapImg, nvm.Config{Mode: nvm.Tracked})); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.LoadHeap("pjo"); err != nil {
		t.Fatalf("%s: heap: %v", tag, err)
	}
	db, err := h2.Open(nvm.FromImage(dbImg, nvm.Config{Mode: nvm.Tracked}))
	if err != nil {
		t.Fatalf("%s: database: %v", tag, err)
	}
	p := NewProvider(rt, db)
	found := func(w want) bool {
		t.Helper()
		e, err := p.Find(w.def, w.id)
		if err != nil {
			t.Fatalf("%s: find %s %d: %v", tag, w.def.Name, w.id, err)
		}
		if e == nil {
			return false
		}
		for j, v := range w.vals {
			if got := e.Value(j); got != v {
				t.Fatalf("%s: %s %d reads %v in column %d, committed %v", tag, w.def.Name, w.id, got, j, v)
			}
		}
		return true
	}
	for _, w := range done {
		if !found(w) {
			t.Fatalf("%s: %s %d of an earlier commit is gone", tag, w.def.Name, w.id)
		}
	}
	n := 0
	for _, w := range step {
		if found(w) {
			n++
		}
	}
	if n != 0 && n != len(step) {
		t.Fatalf("%s: %d of the commit's %d entities are found", tag, n, len(step))
	}
}

// crashPolicies are the images the sweep takes at each crash point.
var crashPolicies = []struct {
	name   string
	policy nvm.CrashPolicy
	seed   int64
}{
	{"flushed-only", nvm.CrashFlushedOnly, 0}, {"all-dirty", nvm.CrashAllDirty, 0},
	{"evict-1", nvm.CrashRandomEviction, 1}, {"evict-2", nvm.CrashRandomEviction, 2},
}

// crashBoth reopens both devices under every policy.
func crashBoth(t *testing.T, tag string, w *sweepWorld, done, step []want) int {
	t.Helper()
	for _, c := range crashPolicies {
		reopen(t, tag+" "+c.name, w.heap.CrashImage(c.policy, c.seed), w.db.Device().CrashImage(c.policy, c.seed), done, step)
	}
	return len(crashPolicies)
}

// TestCrashSweepPJOCreateRun crashes PJO create commits — one Person, two,
// fifty whose strings outgrow the PLAB (so the commit ships as several
// allocation runs), and a CollectionTest batch of albums and their tracks
// — after every flush of either device, one crash counter running across
// the heap and the database, and inside every multi-line flush of the
// heap (faultdev.CrashInsideFlush, a subset of the flush's lines written
// back). Each crash image of both devices is reopened (LoadHeap, h2.Open)
// and every entity of the commit looked up: either all of them read back
// with every field, or none is found; earlier commits always read back.
//
// The fault it is for: the database learning a reference before the run
// naming it is persisted. With the run's flush and fence moved behind the
// database's commit, the flushed-only image after the commit's last
// database flush finds the rows and reads their string columns as NULL.
func TestCrashSweepPJOCreateRun(t *testing.T) {
	images := 0
	var done []want
	live := newSweepWorld(t)
	for si, step := range createSteps {
		ents := step.ents()
		wants := wantsOf(ents)

		// After every flush of either device, and before the first.
		images += crashBoth(t, step.name+", before the commit", live, done, wants)
		boundary := 0
		after := func(uint64) {
			boundary++
			images += crashBoth(t, fmt.Sprintf("%s, after flush %d", step.name, boundary), live, done, wants)
		}
		live.heap.SetFlushHook(after)
		live.db.Device().SetFlushHook(after)
		a0, h0 := live.p.m.AllocStats(), live.heap.Stats()
		err := live.commit(ents)
		live.heap.SetFlushHook(nil)
		live.db.Device().SetFlushHook(nil)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if si == 2 {
			if live.p.m.AllocStats().Dispenses == a0.Dispenses || live.heap.Stats().Sub(h0).Fences < 2 {
				t.Fatalf("%s: the commit did not cross a PLAB", step.name)
			}
		}
		images += crashBoth(t, step.name+", committed", live, done, wants)

		// Inside every flush of the heap, in a world that replays the
		// earlier commits.
		for k, crashed := uint64(1), true; crashed; k++ {
			for _, keep := range []struct {
				name string
				keep func(line int) bool
			}{
				{"none", func(int) bool { return false }},
				{"the first line", func(l int) bool { return l == 0 }},
				{"all but the first", func(l int) bool { return l != 0 }},
				{"every other line", func(l int) bool { return l%2 == 1 }},
			} {
				w := newSweepWorld(t)
				for _, earlier := range createSteps[:si] {
					if err := w.commit(earlier.ents()); err != nil {
						t.Fatal(err)
					}
				}
				faultdev.CrashInsideFlush(w.heap, w.heap.Stats().Flushes+k, keep.keep)
				crashed, err = faultdev.Run(w.heap, func() error { return w.commit(step.ents()) })
				w.heap.SetFlushFault(nil)
				if err != nil {
					t.Fatal(err)
				}
				if !crashed {
					break
				}
				images += crashBoth(t, fmt.Sprintf("%s, inside heap flush %d, %s kept", step.name, k, keep.name), w, done, wants)
			}
		}
		done = append(done, wants...)
	}
	t.Logf("%d crash images", images)
}

// TestCommitPersistCost pins what a PJO commit costs the devices. A
// 50-Person create fences the heap once per allocation run and flushes no
// heap line twice; an update that keeps its reference costs the database
// nothing at all; and 500 entities committed in batches of 50 leave the
// heap using the bytes they use committed one per transaction.
func TestCommitPersistCost(t *testing.T) {
	t.Run("create", func(t *testing.T) {
		w := newSweepWorld(t)
		if err := w.commit(persons(0, 1, 0)()); err != nil { // a PLAB, outside the window
			t.Fatal(err)
		}
		flushed := map[int]int{}
		w.heap.SetFlushFault(func(off, n int, _ uint64) bool {
			for l := off / nvm.LineSize; l <= (off+n-1)/nvm.LineSize; l++ {
				flushed[l]++
			}
			return false
		})
		a0, s0 := w.p.m.AllocStats(), w.heap.Stats()
		if err := w.commit(persons(1, 50, 0)()); err != nil {
			t.Fatal(err)
		}
		w.heap.SetFlushFault(nil)
		d := w.heap.Stats().Sub(s0)
		// No refill inside the window: one run, one fence.
		if dispenses := w.p.m.AllocStats().Dispenses - a0.Dispenses; dispenses != 0 || d.Fences != 1 {
			t.Fatalf("a 50-Person create: %d heap fences, %d PLAB refills; want 1 fence, the commit's one run", d.Fences, dispenses)
		}
		for l, n := range flushed {
			if n > 1 {
				t.Fatalf("a 50-Person create flushed heap line %d %d times", l, n)
			}
		}
	})

	t.Run("update keeping its reference", func(t *testing.T) {
		w := newSweepWorld(t)
		if err := w.commit(persons(0, 1, 0)()); err != nil {
			t.Fatal(err)
		}
		e, err := w.p.Find(jpab.Person, 0)
		if err != nil || e == nil {
			t.Fatalf("find: %v %v", e, err)
		}
		e.SetFloat("score", 99.5)
		s0, h0 := w.db.Device().Stats(), w.heap.Stats()
		if err := w.commit([]*jpa.Entity{e}); err != nil {
			t.Fatal(err)
		}
		if d := w.db.Device().Stats().Sub(s0); d.Writes != 0 || d.FlushedLines != 0 || d.Fences != 0 {
			t.Fatalf("the update cost the database %d writes / %d lines / %d fences, want none", d.Writes, d.FlushedLines, d.Fences)
		}
		if d := w.heap.Stats().Sub(h0); d.FlushedLines != 1 || d.Fences != 1 {
			t.Fatalf("the update cost the heap %d lines / %d fences, want 1 / 1", d.FlushedLines, d.Fences)
		}
		if again, err := w.p.Find(jpab.Person, 0); err != nil || again == nil || again.GetFloat("score") != 99.5 {
			t.Fatalf("the update is not visible: %v %v", again, err)
		}
	})

	t.Run("batches use the heap as single commits do", func(t *testing.T) {
		// About 550 KB of strings: both sides cross PLABs.
		used := func(batch int) int {
			w := newSweepWorld(t)
			all := persons(0, 500, 1000)()
			for lo := 0; lo < len(all); lo += batch {
				if err := w.commit(all[lo : lo+batch]); err != nil {
					t.Fatal(err)
				}
			}
			return w.rt.ActiveHeap().UsedBytes()
		}
		if batched, single := used(50), used(1); batched != single {
			t.Fatalf("500 entities use %d heap bytes committed 50 at a time, %d one at a time", batched, single)
		}
	})
}
