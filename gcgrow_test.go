package espresso

import "testing"

// Repeated collections of a live, growing map: six rounds of mixed
// puts/deletes over a 50 000-key space, each followed by a full
// verification and a persistent collection. The bucket table passes the
// humongous threshold (128 KB at 16 384 buckets) along the way, so the
// collections cross a table that starts as a regular object and ends as a
// pinned humongous one, with dead tables of both kinds behind it.
const (
	gcGrowRounds = 6
	gcGrowOps    = 40_000
	gcGrowKeys   = 50_000
)

// putBoxedLong boxes val in a fresh, persisted one-long object of class
// box and puts it under key.
func putBoxedLong(rt *Runtime, m *PMap, box *Class, fV FieldRef, key, val int64) error {
	b, err := rt.PNew(box)
	if err != nil {
		return err
	}
	rt.SetLongFast(b, fV, val)
	if err := rt.FlushObject(b); err != nil {
		return err
	}
	return m.Put(key, b)
}

// gcGrowRound plays round r through put/del and keeps the oracle.
func gcGrowRound(t *testing.T, r int, oracle map[int64]int64, put func(key, val int64) error, del func(key int64)) {
	t.Helper()
	for k := 0; k < gcGrowOps; k++ {
		key := int64((k*7919 + r) % gcGrowKeys)
		if k%5 == 4 {
			del(key)
			delete(oracle, key)
			continue
		}
		val := int64(r)<<32 | int64(k)
		if err := put(key, val); err != nil {
			t.Fatalf("round %d: put %d: %v", r, key, err)
		}
		oracle[key] = val
	}
}

func TestPMapRepeatedGCWhileGrowing(t *testing.T) {
	rt, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateHeap("kv", 64<<20); err != nil {
		t.Fatal(err)
	}
	m, err := rt.OpenPMap("kv", "grow", PMapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	box := MustClass("gcgrow/Box", nil, Long("v"))
	fV := rt.MustResolveField(box, "v")
	oracle := map[int64]int64{}
	for r := 0; r < gcGrowRounds; r++ {
		gcGrowRound(t, r, oracle, func(key, val int64) error {
			return putBoxedLong(rt, m, box, fV, key, val)
		}, func(key int64) { m.Delete(key) })
		verify := func(when string) {
			if m.Len() != len(oracle) {
				t.Fatalf("round %d %s: Len = %d, oracle has %d", r, when, m.Len(), len(oracle))
			}
			for key := int64(0); key < gcGrowKeys; key++ {
				want, live := oracle[key]
				ref, ok := m.Get(key)
				if ok != live {
					t.Fatalf("round %d %s: key %d present = %v, oracle says %v", r, when, key, ok, live)
				}
				if ok {
					if got := rt.GetLongFast(ref, fV); got != want {
						t.Fatalf("round %d %s: key %d = %#x, want %#x", r, when, key, got, want)
					}
				}
			}
		}
		verify("before GC")
		if _, err := rt.PersistentGC("kv"); err != nil {
			t.Fatalf("round %d: PersistentGC: %v", r, err)
		}
		verify("after GC")
	}
}

func TestShardedPMapRepeatedGCWhileGrowing(t *testing.T) {
	rt, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.OpenSharded("grow", ShardedPMapOptions{Shards: 2, ShardDataSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	oracle := map[int64]int64{}
	for r := 0; r < gcGrowRounds; r++ {
		gcGrowRound(t, r, oracle, m.Put, func(key int64) { m.Delete(key) })
		verify := func(when string) {
			for key := int64(0); key < gcGrowKeys; key++ {
				want, live := oracle[key]
				got, ok := m.Get(key)
				if ok != live || (ok && got != want) {
					t.Fatalf("round %d %s: key %d = (%#x, %v), want (%#x, %v)", r, when, key, got, ok, want, live)
				}
			}
		}
		verify("before GC")
		if _, err := m.GC(); err != nil {
			t.Fatalf("round %d: GC: %v", r, err)
		}
		verify("after GC")
	}
}
