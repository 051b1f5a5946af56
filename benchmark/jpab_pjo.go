package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"espresso"
	"espresso/internal/bench"
	"espresso/internal/h2"
	"espresso/internal/jpa"
	"espresso/internal/jpab"
	"espresso/internal/nvm"
	"espresso/internal/pjo"
)

// jpab_pjo: the paper's Figure 16 path — the four JPAB tests (BasicTest,
// ExtTest, CollectionTest, NodeTest) against the PJO provider over H2,
// each test creating jpabEntities entities in batches, then retrieving,
// updating and deleting every one of them in a seeded order. The provider
// and ptx are serial by design, so a client is a whole stack — its own
// heap, database and provider — and the 2c pass is two stacks that share
// nothing but the host; ops_per_s is the sum of their rates. It is the
// only workload that exercises pjo, h2, sql and ptx, and it must not move
// when the index or shard layers change. The H2-JPA foil is not run.
//
// The benchmark drives the jpab.Test closures itself instead of calling
// jpab.Run, so that every call can be timed, ordered by the seed, and
// checked: after each phase the entities are read back and one field is
// compared with what the phase must have left there.
const (
	jpabEntities  = 6000
	jpabBatch     = 50
	jpabStackSize = 32 << 20
	pjoHeapName   = "pjo"
)

func pjoDBPath(dir string) string { return filepath.Join(dir, "h2.db") }

// jpabCheck knows one field of a test's entity and what it holds after
// create and after update.
type jpabCheck struct {
	test    *jpab.Test
	def     *jpa.EntityDef
	perRoot int // entities of def per test entity (CollectionTest: tracks per album)
	id      func(root int64) int64
	created func(e *jpa.Entity, id int64) bool
	updated func(e *jpa.Entity, id int64) bool
}

func jpabChecks() []jpabCheck {
	same := func(id int64) int64 { return id }
	return []jpabCheck{
		{jpab.BasicTest(), jpab.Person, 1, same,
			func(e *jpa.Entity, id int64) bool { return e.GetFloat("score") == float64(id)*0.5 },
			func(e *jpa.Entity, id int64) bool { return e.GetFloat("score") == float64(id)+1.25 }},
		{jpab.ExtTest(), jpab.Employee, 1, same,
			func(e *jpa.Entity, id int64) bool { return e.GetInt("salary") == 40000+id },
			func(e *jpa.Entity, id int64) bool { return e.GetInt("salary") == 50000+id }},
		{jpab.CollectionTest(), jpab.Track, 4, func(album int64) int64 { return album * 4 },
			func(e *jpa.Entity, id int64) bool { return e.GetStr("name") == fmt.Sprintf("Track %d-0", id/4) },
			func(e *jpa.Entity, id int64) bool {
				return e.GetStr("name") == fmt.Sprintf("Track %d-0 (remastered)", id/4)
			}},
		{jpab.NodeTest(), jpab.Node, 1, same,
			func(e *jpa.Entity, id int64) bool { return e.GetStr("label") == fmt.Sprintf("node-%d", id) },
			func(e *jpa.Entity, id int64) bool { return e.GetStr("label") == fmt.Sprintf("node-%d'", id) }},
	}
}

// pjoStack is one fresh provider over a fresh heap and database.
type pjoStack struct {
	rt *espresso.Runtime
	db *h2.DB
	em *pjo.Provider
	// prefaulted is how long touching both devices' pages took (see prefault).
	prefaulted time.Duration
}

func openPJOStack(dir string, size int) (*pjoStack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rt, err := espresso.Open(espresso.Options{HeapDir: dir})
	if err != nil {
		return nil, err
	}
	if err := rt.CreateHeap(pjoHeapName, size); err != nil {
		return nil, err
	}
	db, err := h2.New(size, nvm.Direct)
	if err != nil {
		return nil, err
	}
	h, _ := rt.Heap(pjoHeapName)
	return &pjoStack{rt: rt, db: db, em: pjo.NewProvider(rt.Runtime, db), prefaulted: prefault(h.Device(), db.Device())}, nil
}

func (s *pjoStack) devStats() nvm.Stats {
	h, _ := s.rt.Heap(pjoHeapName)
	return h.Device().Stats().Add(s.db.Device().Stats())
}

// jpabRep is what one repetition (four tests on one stack) measured.
type jpabRep struct {
	ops     int
	wall    time.Duration
	lat     []int64
	dev     nvm.Stats
	h2Lines uint64
	payload int                      // user bytes of every entity created
	phase   map[string]time.Duration // create/retrieve/update/delete wall
}

// payloadBytes is the user data of one entity: 8 bytes for the id and per
// numeric field, the string length per string field.
func payloadBytes(e *jpa.Entity) int {
	n := 0
	for _, f := range e.Def.AllFields() {
		if f.Kind == jpa.FStr {
			n += len(e.GetStr(f.Name))
		} else {
			n += 8
		}
	}
	return n
}

// runJPABRep runs the four tests on s in a seeded entity order. A solo
// client collects the Go garbage of the phase before (entities, strings,
// the verification reads) ahead of each timed phase, so every phase starts
// from the same collector state, as each pass of the other workloads does;
// with two clients a forced collection would land in the other's phase.
func runJPABRep(s *pjoStack, t *tally, seed int64, n int, solo, broken bool) (jpabRep, error) {
	rep := jpabRep{phase: map[string]time.Duration{}}
	dev0, h20 := s.devStats(), s.db.Device().Stats()
	settle := func() {
		if solo {
			runtime.GC()
		}
	}
	timed := func(phase string, per int, fn func() error) error {
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		rep.phase[phase] += d
		rep.wall += d
		rep.ops += per
		rep.lat = append(rep.lat, int64(d)/int64(per))
		t.attempted += int64(per)
		if err != nil {
			t.fail("%s: %v", phase, err)
		}
		return err
	}
	for ti, c := range jpabChecks() {
		for _, def := range c.test.Defs {
			if err := s.em.EnsureSchema(def); err != nil {
				return rep, err
			}
		}
		order := rand.New(rand.NewSource(subSeed(seed, ti))).Perm(n)
		verify := func(tag string, ok func(e *jpa.Entity, id int64) bool) {
			for _, root := range order {
				id := c.id(int64(root))
				t.attempted++
				e, err := s.em.Find(c.def, id)
				switch {
				case err != nil:
					t.fail("%s %s %d: %v", c.test.Name, tag, id, err)
				case ok == nil && e != nil:
					t.fail("%s %s: deleted %s %d still present", c.test.Name, tag, c.def.Name, id)
				case ok != nil && e == nil:
					t.fail("%s %s: acknowledged %s %d missing", c.test.Name, tag, c.def.Name, id)
				case ok != nil && !ok(e, id) != broken:
					t.fail("%s %s: %s %d holds the wrong value", c.test.Name, tag, c.def.Name, id)
				case ok != nil && tag == "create":
					rep.payload += payloadBytes(e) * c.perRoot
				}
			}
		}
		settle()
		for base := 0; base < n; base += jpabBatch {
			sz := min(jpabBatch, n-base)
			if err := timed("create", sz, func() error { return c.test.MakeBatch(s.em, int64(base), sz) }); err != nil {
				return rep, err
			}
		}
		verify("create", c.created)
		settle()
		for _, id := range order {
			timed("retrieve", 1, func() error { return c.test.Fetch(s.em, int64(id)) })
		}
		settle()
		for _, id := range order {
			timed("update", 1, func() error { return c.test.Touch(s.em, int64(id)) })
		}
		verify("update", c.updated)
		settle()
		for _, id := range order {
			timed("delete", 1, func() error { return c.test.Drop(s.em, int64(id)) })
		}
		verify("delete", nil)
	}
	rep.dev = s.devStats().Sub(dev0)
	rep.h2Lines = s.db.Device().Stats().Sub(h20).FlushedLines
	return rep, nil
}

// pjoCheckPerson finds Person id through em and checks the score
// BasicTest gave it.
func pjoCheckPerson(em *pjo.Provider, id int64) error {
	e, err := em.Find(jpab.Person, id)
	if err != nil {
		return err
	}
	if e == nil {
		return fmt.Errorf("person %d missing", id)
	}
	if got, want := e.GetFloat("score"), float64(id)*0.5; got != want {
		return fmt.Errorf("person %d score %v, oracle %v", id, got, want)
	}
	return nil
}

func runJPABPJO(cfg config, r *report) error {
	n := max(cfg.ops(jpabEntities*4)/4, 2*jpabBatch)
	size := cfg.size(jpabStackSize)
	sr := series{}
	var solo *pjoStack // the last repetition's 1c stack, kept for the restart phase
	var soloDir, lastDir string
	var soloRep jpabRep
	var prof *bench.Breakdown
	rep := func(i int, timed bool) error {
		dir, err := os.MkdirTemp(cfg.outDir, "heaps-pjo-")
		if err != nil {
			return err
		}
		if lastDir != "" {
			os.RemoveAll(lastDir)
		}
		lastDir = dir
		solo = nil
		runtime.GC() // the previous repetition's stacks are garbage now
		start := time.Now()
		var stacks [1 + clients2c]*pjoStack
		for k := range stacks {
			if stacks[k], err = openPJOStack(filepath.Join(dir, fmt.Sprint(k)), size); err != nil {
				return err
			}
		}
		setup := time.Since(start)
		for _, s := range stacks {
			setup -= s.prefaulted
		}
		solo, soloDir = stacks[0], filepath.Join(dir, "0")
		if cfg.trace {
			prof = bench.NewBreakdown()
			solo.em.SetProfile(prof)
		}
		// 1c pass: one stack. 2c pass: two stacks side by side.
		res, err := runJPABRep(solo, &r.tally, subSeed(cfg.seed, i, 1), n, true, cfg.breakOracle)
		if err != nil {
			return err
		}
		soloRep = res
		var pair [clients2c]jpabRep
		var tallies [clients2c]tally
		errs := make(chan error, clients2c)
		for c := range pair {
			go func(c int) {
				var err error
				pair[c], err = runJPABRep(stacks[1+c], &tallies[c], subSeed(cfg.seed, i, 2, c), n, false, cfg.breakOracle)
				errs <- err
			}(c)
		}
		for range pair {
			if e := <-errs; e != nil {
				err = e
			}
		}
		if err != nil {
			return err
		}
		if !timed {
			return nil
		}
		rate2, lat2 := 0.0, []int64(nil)
		for c := range pair {
			r.tally.merge(&tallies[c])
			rate2 += float64(pair[c].ops) / pair[c].wall.Seconds()
			lat2 = append(lat2, pair[c].lat...)
		}
		h, _ := solo.rt.Heap(pjoHeapName)
		sr.add("setup_s", setup.Seconds())
		sr.add("ops_per_s_1c", float64(res.ops)/res.wall.Seconds())
		sr.add("ops_per_s", rate2)
		sr.add("op_p50_ns", quantileNs(lat2, 0.50))
		sr.add("op_p99_ns", quantileNs(lat2, 0.99))
		sr.add("device_ns_per_op", float64(res.dev.FlushedLines)*modeledLineNs/float64(res.ops))
		sr.add("space_amp", float64(h.UsedBytes())/float64(res.payload))
		sr.add("latency_samples", float64(len(lat2)))
		for _, p := range []string{"create", "retrieve", "update", "delete"} {
			// Each phase handles n entities per test, four tests.
			sr.add("pjo."+p+"_ops_per_s", float64(4*n)/res.phase[p].Seconds())
		}
		sr.add("pjo.h2_flushed_lines_per_op", float64(res.h2Lines)/float64(res.ops))
		return nil
	}
	defer func() { os.RemoveAll(lastDir) }()
	if !cfg.quick {
		if err := rep(0, false); err != nil { // untimed warm-up
			return err
		}
	}
	reps, err := cfg.repeatTimed(r, func(i int) error { return rep(i+1, true) })
	if err != nil {
		return err
	}
	if cfg.trace {
		return traceJPABPJO(cfg, r, sr, prof, soloRep)
	}
	r.reportSeries(sr, reps)
	r.info["entities_per_test"] = n
	r.info["ops_per_rep_and_client"] = soloRep.ops

	// Restart: repopulate BasicTest on the last solo stack (the tests end
	// by deleting everything), save both devices, and find one person from
	// the files alone.
	if err := jpab.BasicTest().MakeBatch(solo.em, 0, n); err != nil {
		return fmt.Errorf("restart population: %w", err)
	}
	if err := solo.rt.SyncHeap(pjoHeapName); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	if err := solo.db.Device().Save(pjoDBPath(soloDir)); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	id := int64(splitmix(uint64(cfg.seed)) % uint64(n))
	rs := measureRestart(&r.tally, func(*restartSplit) error { return restartPJO(soloDir, id) })
	reportRestart(r, rs)
	return nil
}
