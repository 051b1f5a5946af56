package main

import (
	"fmt"
	"runtime"
	"time"

	"espresso"
	"espresso/internal/h2"
	"espresso/internal/klass"
	"espresso/internal/nvm"
	"espresso/internal/pgc"
	"espresso/internal/pheap"
	"espresso/internal/pindex"
	"espresso/internal/pjo"
)

// Restart phases ride on every workload: after the timed passes the
// workload syncs its heaps to a HeapDir, then a fresh espresso.Open loads
// the heap, opens whatever the workload serves from it, and performs the
// first successful read — restartWarmups untimed rounds, then the timed
// ones. restart_ms is the lower quartile of the timed rounds.
//
// The rounds run inside the benchmark process, and the warm-up rounds are
// there so that the timed ones recycle the memory and re-read the file
// pages the earlier ones left behind. In this sandbox (a microVM) memory
// the guest touches for the first time, and file pages just written, cost
// seconds that belong to the host: the same round of kv_put took 4.3 s,
// 2.1 s and 1.1 s as three successive fresh processes, and 2.9 s, 1.1 s
// and 0.42 s in one. What repeats — and what a change to nvm.LoadFile,
// pheap.Load or pindex recovery moves — is the warm round.

// restartSplit is what a round may report about its inside, for the traced
// run's per-layer metrics.
type restartSplit struct {
	RecoverSlowestMs, RecoverSumMs          float64 // kv_put: pshard.RecoveryStats
	ImageReadMs, HeapLoadMs, IndexRecoverMs float64 // restartLayers
	RecoverReadsPerKey                      float64
}

// restartResult is one timed round.
type restartResult struct {
	Ms float64
	restartSplit
}

const (
	restartWarmups   = 2
	restartMinRounds = 5
	restartMaxRounds = 40
	restartMinTime   = time.Second
)

// measureRestart runs round — one open-to-first-read, checked against the
// oracle — restartWarmups times untimed, then timed: at least
// restartMinRounds times and for at least restartMinTime, so that a 30 ms
// reload of a small heap is sampled as thoroughly as a 400 ms one. A
// failing round is counted in the tally.
func measureRestart(t *tally, round func(split *restartSplit) error) []restartResult {
	var out []restartResult
	var spent time.Duration
	for i := -restartWarmups; i < restartMaxRounds && (i < restartMinRounds || spent < restartMinTime); i++ {
		runtime.GC() // the previous round's runtime and images are garbage now
		var res restartResult
		start := time.Now()
		err := round(&res.restartSplit)
		d := time.Since(start)
		res.Ms = ms(d)
		t.attempted++
		if err != nil {
			t.fail("restart: %v", err)
		}
		if i >= 0 {
			out = append(out, res)
			spent += d
		}
	}
	return out
}

// reportRestart reduces the timed rounds to restart_ms, their lower
// quartile: a round copies a whole image twice, and on a shared host
// whatever else runs only ever adds to that, so the low side of the
// distribution is the steady part of it. Reported, not gated (metrics.go).
func reportRestart(r *report, rs []restartResult) {
	var v []float64
	for _, x := range rs {
		v = append(v, x.Ms)
	}
	r.ungated["restart_ms"] = quantile(v, 0.25)
	r.info["restart_rounds"] = len(rs)
}

func restartKVGet(dir string, key, want int64, entries int) error {
	rt, err := espresso.Open(espresso.Options{HeapDir: dir})
	if err != nil {
		return err
	}
	if err := rt.LoadHeap(kvGetHeapName); err != nil {
		return err
	}
	m, err := rt.OpenPMap(kvGetHeapName, kvGetMapName, espresso.PMapOptions{})
	if err != nil {
		return err
	}
	ref, ok := m.Get(key)
	if !ok {
		return fmt.Errorf("key %d absent", key)
	}
	if got := rt.GetLongFast(ref, rt.MustResolveField(boxClass, "v")); got != want {
		return fmt.Errorf("key %d value %d, oracle %d", key, got, want)
	}
	if m.Len() != entries {
		return fmt.Errorf("%d entries, want %d", m.Len(), entries)
	}
	return nil
}

// restartKVPut reopens the sharded set (parallel per-shard recovery) and
// reads key.
func restartKVPut(dir string, key, want int64, entries int, split *restartSplit) error {
	rt, err := espresso.Open(espresso.Options{HeapDir: dir})
	if err != nil {
		return err
	}
	s, err := rt.OpenSharded(kvPutBase, espresso.ShardedPMapOptions{})
	if err != nil {
		return err
	}
	defer s.Close()
	got, ok := s.Get(key)
	if !ok || got != want {
		return fmt.Errorf("key %d = (%d, %v), oracle %d", key, got, ok, want)
	}
	if s.Len() != entries {
		return fmt.Errorf("%d entries, want %d", s.Len(), entries)
	}
	for i := 0; i < s.NumShards(); i++ {
		w := float64(s.Set().Shard(i).Recovery().WallNS) / 1e6
		split.RecoverSumMs += w
		split.RecoverSlowestMs = max(split.RecoverSlowestMs, w)
	}
	return nil
}

// restartGraph reloads an object-graph heap and reads the value of the
// first node of client 0's list.
func restartGraph(dir string, list int, want int64) error {
	rt, err := espresso.Open(espresso.Options{HeapDir: dir})
	if err != nil {
		return err
	}
	if err := rt.LoadHeap(graphHeapName); err != nil {
		return err
	}
	g := resolveGraph(rt)
	root, ok := rt.GetRoot(graphRootName(0))
	if !ok {
		return fmt.Errorf("root %q lost", graphRootName(0))
	}
	head, err := rt.GetElem(root, list)
	if err != nil {
		return err
	}
	if got := rt.GetLongFast(head, g.fVal); got != want {
		return fmt.Errorf("list %d head value %d, oracle %d", list, got, want)
	}
	return nil
}

// restartPJO reopens the database device and the entity heap, and finds
// one entity through a fresh provider.
func restartPJO(dir string, id int64) error {
	rt, err := espresso.Open(espresso.Options{HeapDir: dir})
	if err != nil {
		return err
	}
	if err := rt.LoadHeap(pjoHeapName); err != nil {
		return err
	}
	dev, err := nvm.LoadFile(pjoDBPath(dir), nvm.Config{})
	if err != nil {
		return err
	}
	db, err := h2.Open(dev)
	if err != nil {
		return err
	}
	return pjoCheckPerson(pjo.NewProvider(rt.Runtime, db), id)
}

// restartLayers is a restart of one map-bearing heap image done by hand,
// one layer at a time, so each step can be timed: image read (nvm), heap
// load (pheap), collection recovery (pgc), index recovery (pindex).
func restartLayers(imagePath, mapName string, entries int, res *restartSplit) error {
	t0 := time.Now()
	dev, err := nvm.LoadFile(imagePath, nvm.Config{})
	if err != nil {
		return err
	}
	t1 := time.Now()
	h, err := pheap.Load(dev, klass.NewRegistry())
	if err != nil {
		return err
	}
	if _, _, err := pgc.RecoverIfNeeded(h); err != nil {
		return err
	}
	t2 := time.Now()
	before := dev.Stats()
	ix, err := pindex.Open(h, pindex.NoPin{}, mapName, pindex.Options{})
	if err != nil {
		return err
	}
	t3 := time.Now()
	res.ImageReadMs, res.HeapLoadMs, res.IndexRecoverMs = ms(t1.Sub(t0)), ms(t2.Sub(t1)), ms(t3.Sub(t2))
	res.RecoverReadsPerKey = float64(dev.Stats().Sub(before).Reads) / float64(max(ix.LastRecovery().Entries, 1))
	if ix.Len() != entries {
		return fmt.Errorf("%d entries, want %d", ix.Len(), entries)
	}
	return nil
}
