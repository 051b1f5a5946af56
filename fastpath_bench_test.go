// Microbenchmarks of the public facade that no contract row has the shape
// of (internal/experiments' BenchmarkContract times the rows): the
// reference-store barrier, the mutator access paths and the index facades
// at one and more CPUs, and one PJO commit. Each reports accounted device
// traffic per op next to wall time, since device ops are what NVM
// hardware charges for.
package espresso_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"espresso"
	"espresso/internal/h2"
	"espresso/internal/jpab"
	"espresso/internal/nvm"
	"espresso/internal/pjo"
)

func benchRT(b *testing.B) (*espresso.Runtime, *nvm.Device) {
	b.Helper()
	rt, err := espresso.Open(espresso.Options{DefaultHeapSize: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.CreateHeap("bench", 0); err != nil {
		b.Fatal(err)
	}
	h, _ := rt.Heap("bench")
	return rt, h.Device()
}

// BenchmarkSetRefFast measures the reference-store write barrier: named
// vs resolved-handle stores, and resolved stores routed through a
// Mutator, which owe the remembered set nothing when the value is
// persistent (no shared lock, no shared cache line). The parallel variant runs one Mutator per goroutine — the lock-free hot
// path the refstore experiment gates in CI. Every variant must cost
// exactly one device write per store.
func BenchmarkSetRefFast(b *testing.B) {
	rt, dev := benchRT(b)
	node := espresso.MustClass("bench/RefNode", nil,
		espresso.RefTo("next", "bench/RefNode"), espresso.Long("v"))
	nextF := rt.MustResolveField(node, "next")
	a, err := rt.PNew(node)
	if err != nil {
		b.Fatal(err)
	}
	target, err := rt.PNew(node)
	if err != nil {
		b.Fatal(err)
	}

	report := func(b *testing.B, s0 nvm.Stats) {
		d := dev.Stats().Sub(s0)
		b.ReportMetric(float64(d.Writes)/float64(b.N), "devwrites/op")
	}

	b.Run("named-set-ref", func(b *testing.B) {
		s0 := dev.Stats()
		for i := 0; i < b.N; i++ {
			if err := rt.SetRef(a, "next", target); err != nil {
				b.Fatal(err)
			}
		}
		report(b, s0)
	})
	b.Run("resolved-set-ref", func(b *testing.B) {
		s0 := dev.Stats()
		for i := 0; i < b.N; i++ {
			if err := rt.SetRefFast(a, nextF, target); err != nil {
				b.Fatal(err)
			}
		}
		report(b, s0)
	})
	b.Run("mutator-set-ref", func(b *testing.B) {
		m, err := rt.NewMutator()
		if err != nil {
			b.Fatal(err)
		}
		defer m.Release()
		s0 := dev.Stats()
		for i := 0; i < b.N; i++ {
			if err := m.SetRefFast(a, nextF, target); err != nil {
				b.Fatal(err)
			}
		}
		report(b, s0)
	})
	b.Run("mutator-set-ref-parallel", func(b *testing.B) {
		s0 := dev.Stats()
		b.RunParallel(func(pb *testing.PB) {
			m, err := rt.NewMutator()
			if err != nil {
				b.Error(err)
				return
			}
			defer m.Release()
			// Each goroutine stores into its own object: disjoint slots,
			// disjoint lines — the contention-free shape.
			own, err := m.PNew(node, 0)
			if err != nil {
				b.Error(err)
				return
			}
			for pb.Next() {
				if err := m.SetRefFast(own, nextF, target); err != nil {
					b.Error(err)
					return
				}
			}
		})
		report(b, s0)
	})
}

// BenchmarkMutatorAccessParallel is the scaling check for the mutator
// access path: one Mutator per goroutine, each on its own 64-node chain,
// so nothing the program itself shares is touched — whatever one
// goroutine's accessor costs at -cpu 2 beyond what it costs at -cpu 1
// is the runtime's own bookkeeping (safepoint pin, device accounting)
// bouncing a cache line. Read it at -cpu 1,2: ns/op should halve. walk
// sums what it reads in a per-goroutine accumulator, published once when
// the goroutine ends, so the benchmark itself shares no line either.
func BenchmarkMutatorAccessParallel(b *testing.B) {
	rt, dev := benchRT(b)
	node := espresso.MustClass("bench/AccessNode", nil,
		espresso.Long("v"), espresso.RefTo("next", "bench/AccessNode"))
	vF := rt.MustResolveField(node, "v")
	nextF := rt.MustResolveField(node, "next")
	const chain = 64

	// run hands every goroutine a Mutator, the head of a private chain and
	// a private accumulator, and times op(m, node, i, &acc) per iteration.
	var sink atomic.Int64
	run := func(b *testing.B, op func(m *espresso.Mutator, n espresso.Ref, i int, acc *int64) espresso.Ref) {
		s0 := dev.Stats()
		b.RunParallel(func(pb *testing.PB) {
			m, err := rt.NewMutator()
			if err != nil {
				b.Error(err)
				return
			}
			defer m.Release()
			var head espresso.Ref
			for i := 0; i < chain; i++ {
				n, err := m.PNew(node, 0)
				if err != nil {
					b.Error(err)
					return
				}
				m.SetLongFast(n, vF, int64(i))
				if err := m.SetRefFast(n, nextF, head); err != nil {
					b.Error(err)
					return
				}
				head = n
			}
			n, acc := head, int64(0)
			for i := 0; pb.Next(); i++ {
				if n = op(m, n, i, &acc); n == 0 {
					n = head
				}
			}
			sink.Add(acc)
		})
		d := dev.Stats().Sub(s0)
		b.ReportMetric(float64(d.Reads+d.Writes)/float64(b.N), "devops/op")
	}

	b.Run("walk", func(b *testing.B) { // GetLongFast + GetRefFast per node
		run(b, func(m *espresso.Mutator, n espresso.Ref, _ int, acc *int64) espresso.Ref {
			*acc += m.GetLongFast(n, vF)
			return m.GetRefFast(n, nextF)
		})
	})
	b.Run("set-long", func(b *testing.B) {
		run(b, func(m *espresso.Mutator, n espresso.Ref, i int, _ *int64) espresso.Ref {
			m.SetLongFast(n, vF, int64(i))
			return n
		})
	})
	b.Run("set-ref", func(b *testing.B) {
		run(b, func(m *espresso.Mutator, n espresso.Ref, _ int, _ *int64) espresso.Ref {
			if err := m.SetRefFast(n, nextF, n); err != nil {
				b.Error(err)
			}
			return n
		})
	})
}

// BenchmarkGetRootParallel is the same check for Table 1's getRoot: one
// Mutator per goroutine, each looking up a root of its own inside Do, the
// way every gc_churn op re-fetches its directory. A name the table's slot
// index knows costs no lock and one device read counted in the mutator's
// own view, so nothing shared is written; devreads/op reports the read
// (plus each goroutine's set-up, amortized).
func BenchmarkGetRootParallel(b *testing.B) {
	rt, dev := benchRT(b)
	node := espresso.MustClass("bench/RootNode", nil, espresso.Long("v"))
	var lane atomic.Int64
	s0 := dev.Stats()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		m, err := rt.NewMutator()
		if err != nil {
			b.Error(err)
			return
		}
		defer m.Release()
		name := fmt.Sprintf("bench/root%d", lane.Add(1))
		ref, err := m.PNew(node, 0)
		if err == nil {
			err = m.SetRoot(name, ref)
		}
		if err != nil {
			b.Error(err)
			return
		}
		lookup := func() {
			if got, ok := m.GetRoot(name); !ok || got != ref {
				b.Errorf("GetRoot(%s) = %#x, %v", name, uint64(got), ok)
			}
		}
		for pb.Next() {
			m.Do(lookup)
		}
	})
	d := dev.Stats().Sub(s0)
	b.ReportMetric(float64(d.Reads)/float64(b.N), "devreads/op")
}

// BenchmarkPMapGetParallel is the same check for the index read path:
// every goroutine looks up its own keys (one residue class each) of one
// shared PMap through pooled contexts that pin their own safepoint slot
// and rest between ops in a ctx-pool slot the goroutine's stack picks, so
// two clients seldom write one line. hot re-reads keys whose hints are in
// place — three device loads a get where the key owns its hint slot, the
// chain walk for the few that share one; cold bumps the heap's layout
// epoch at the end of every lap, so each get is the first touch of its
// key in a new epoch and walks its bucket's chain (four nodes at this
// load). Both report devreads/op; read them at -cpu 1,2.
func BenchmarkPMapGetParallel(b *testing.B) {
	for _, cold := range []bool{false, true} {
		name := "hot"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			rt, dev := benchRT(b)
			pm, err := rt.OpenPMap("bench", "bench/map", espresso.PMapOptions{InitialBuckets: 1024})
			if err != nil {
				b.Fatal(err)
			}
			const keys = 1 << 14
			for k := int64(0); k < keys; k++ {
				if err := pm.Put(k, 0); err != nil {
					b.Fatal(err)
				}
			}
			for k := int64(0); k < keys; k++ {
				pm.Get(k) // keys that lost their slot to a later insert take it back
			}
			h, _ := rt.Heap("bench")
			lanes := int64(runtime.GOMAXPROCS(0))
			var lane atomic.Int64
			s0 := dev.Stats()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				first := lane.Add(1) - 1
				k := first
				for pb.Next() {
					if k += lanes; k >= keys {
						k = first
						if cold {
							h.BumpLayoutEpoch()
						}
					}
					if _, ok := pm.Get(k); !ok {
						b.Errorf("key %d missing", k)
						return
					}
				}
			})
			d := dev.Stats().Sub(s0)
			b.ReportMetric(float64(d.Reads)/float64(b.N), "devreads/op")
		})
	}
}

// BenchmarkShardedPMapPutParallel is the check for the write path through
// the facade: a put of a key not yet present (box and node one allocation
// run) and an update of a resident key (the box alone), every goroutine
// on keys of its own. devlines/op and devfences/op are what the put
// protocol costs the device — 3 / 2 and 2 / 2 plus the odd late sentinel
// splice, PLAB refill and straddling box. ns/op at -cpu 2 should be about
// half of -cpu 1: two clients borrow from and return to two ctx-pool slots.
func BenchmarkShardedPMapPutParallel(b *testing.B) {
	for _, update := range []bool{false, true} {
		name := "fresh"
		if update {
			name = "update"
		}
		b.Run(name, func(b *testing.B) {
			rt, err := espresso.Open(espresso.Options{})
			if err != nil {
				b.Fatal(err)
			}
			m, err := rt.OpenSharded("bench", espresso.ShardedPMapOptions{
				Shards: 4, ShardDataSize: 256 << 20,
				// A fixed table, spliced by the resident keys below, so the
				// window holds puts and not table growth.
				Index: espresso.PMapOptions{InitialBuckets: 4096, MaxLoadFactor: 1 << 20}})
			if err != nil {
				b.Fatal(err)
			}
			const resident = 1 << 16
			for k := int64(0); k < resident; k++ {
				if err := m.Put(k, k); err != nil {
					b.Fatal(err)
				}
			}
			devStats := func() (s nvm.Stats) {
				for i := 0; i < m.NumShards(); i++ {
					s = s.Add(m.Set().Shard(i).Heap().Device().Stats())
				}
				return s
			}
			lanes := int64(runtime.GOMAXPROCS(0))
			var lane atomic.Int64
			s0 := devStats()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				first := lane.Add(1) - 1
				k := first
				for pb.Next() {
					k += lanes
					key := resident + k // never seen before
					if update {
						key = k % resident
					}
					if err := m.Put(key, k); err != nil {
						b.Error(err)
						return
					}
				}
			})
			d := devStats().Sub(s0)
			b.ReportMetric(float64(d.FlushedLines)/float64(b.N), "devlines/op")
			b.ReportMetric(float64(d.Fences)/float64(b.N), "devfences/op")
		})
	}
}

// BenchmarkPJOCommit is one PJO transaction over H2 per iteration — the
// Figure 16 path — on a JPAB Person (three strings and a score): create
// persists a fresh entity, update changes its score, delete removes it.
// devlines/op and devfences/op sum the two devices under the provider. By
// protocol the database's share of a logged transaction is one log line,
// its distinct dirty lines and the seq line behind three fences (record,
// data, commit) — create 5–6 / 3: row, slot and page header are three
// places — and of a transaction that is one store inside one aligned word,
// that store's line and fence and no log: delete 1 / 1 (the slot's length);
// an update stores the row it already has (its DBPersistable did not move),
// which costs the database nothing. The heap's is one flush and one fence
// per allocation run: create ~3 / 1 for the one run of three strings and
// the image-initialized DBPersistable; update 1 / 1, the line of the image
// that holds the new score; delete nothing. So update is 1 / 1 in all.
//
// At most pjoResident entities are alive at once, so any b.N fits the
// heap and the database: the loop runs in rounds of at most pjoResident
// ops, each on a fresh runtime, database and provider built with the
// timer stopped (H2 reuses no deleted row's pages, so a round cannot
// follow another on the same database). Only the rounds' own ops are
// counted. Up to pjoResident iterations (CI's 200000x) it is one round.
func BenchmarkPJOCommit(b *testing.B) {
	const pjoResident = 200_000
	test := jpab.BasicTest()
	for _, phase := range []string{"create", "update", "delete"} {
		b.Run(phase, func(b *testing.B) {
			b.StopTimer()
			var d nvm.Stats
			for done := 0; done < b.N; {
				n := min(pjoResident, b.N-done)
				rt, heap := benchRT(b)
				db, err := h2.New(64<<20, nvm.Direct)
				if err != nil {
					b.Fatal(err)
				}
				em := pjo.NewProvider(rt.Runtime, db)
				if err := em.EnsureSchema(jpab.Person); err != nil {
					b.Fatal(err)
				}
				op := map[string]func(id int64) error{
					"create": func(id int64) error { return test.MakeBatch(em, id, 1) },
					"update": func(id int64) error { return test.Touch(em, id) },
					"delete": func(id int64) error { return test.Drop(em, id) },
				}[phase]
				// update and delete need one entity per iteration: the
				// second Touch of an entity stores the score it already
				// has, which costs neither device anything.
				if phase != "create" {
					if err := test.MakeBatch(em, 0, n); err != nil {
						b.Fatal(err)
					}
				}
				s0 := heap.Stats().Add(db.Device().Stats())
				b.StartTimer()
				for i := 0; i < n; i++ {
					if err := op(int64(i)); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				d = d.Add(heap.Stats().Add(db.Device().Stats()).Sub(s0))
				rt.Close()
				done += n
			}
			b.ReportMetric(float64(d.FlushedLines)/float64(b.N), "devlines/op")
			b.ReportMetric(float64(d.Fences)/float64(b.N), "devfences/op")
		})
	}
}
