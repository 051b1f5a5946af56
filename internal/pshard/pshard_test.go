package pshard

import (
	"bytes"
	"fmt"
	"testing"

	"espresso/internal/nvm"
	"espresso/internal/pindex"
)

// setNames lists every device name a set of n shards registers.
func setNames(base string, n int) []string {
	names := []string{ManifestName(base)}
	for i := 0; i < n; i++ {
		names = append(names, ShardHeapName(base, i))
	}
	return names
}

// images snapshots every device of the set as a power-loss image
// (flushed lines only — the adversarial policy).
func images(t *testing.T, store *MemStore, base string, n int) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, name := range setNames(base, n) {
		d, err := store.Open(name)
		if err != nil {
			t.Fatalf("open %q: %v", name, err)
		}
		out[name] = d.CrashImage(nvm.CrashFlushedOnly, 0)
	}
	return out
}

// storeFrom builds a fresh store whose devices reboot from the images.
func storeFrom(t *testing.T, imgs map[string][]byte) *MemStore {
	t.Helper()
	ns := NewMemStore()
	for name, img := range imgs {
		cp := make([]byte, len(img))
		copy(cp, img)
		if err := ns.Register(name, nvm.FromImage(cp, nvm.Config{Mode: nvm.Tracked})); err != nil {
			t.Fatal(err)
		}
	}
	return ns
}

// verifySet checks the set holds exactly model.
func verifySet(t *testing.T, tag string, set *Set, model map[int64]int64) {
	t.Helper()
	if got := set.Len(); got != len(model) {
		t.Fatalf("%s: Len = %d, want %d", tag, got, len(model))
	}
	c := set.NewCtx()
	defer c.Release()
	for k, v := range model {
		got, ok := c.Get(k)
		if !ok || got != v {
			t.Fatalf("%s: key %d = (%d, %v), want %d", tag, k, got, ok, v)
		}
	}
	seen := 0
	c.Scan(func(k, v int64) bool {
		seen++
		if want, ok := model[k]; !ok || want != v {
			t.Errorf("%s: scan saw %d=%d, model says (%d, %v)", tag, k, v, want, ok)
		}
		return true
	})
	if seen != len(model) {
		t.Fatalf("%s: scan visited %d entries, want %d", tag, seen, len(model))
	}
}

func testOptions(shards int) Options {
	return Options{Shards: shards, ShardDataSize: 2 << 20, Mode: nvm.Tracked}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{Shards: 4, ShardDataSize: 8 << 20, Bounds: EqualBounds(4)}
	dev := nvm.New(nvm.Config{Size: ManifestDeviceSize, Mode: nvm.Tracked})
	if IsManifest(dev) {
		t.Fatal("zero device recognized as manifest")
	}
	if err := WriteManifest(dev, m); err != nil {
		t.Fatal(err)
	}
	if !IsManifest(dev) {
		t.Fatal("written manifest not recognized")
	}
	// The crash rule: everything WriteManifest wrote must be persisted —
	// the rebooted image must decode identically.
	re := nvm.FromImage(dev.CrashImage(nvm.CrashFlushedOnly, 0), nvm.Config{Mode: nvm.Tracked})
	got, err := ReadManifest(re)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards != m.Shards || got.ShardDataSize != m.ShardDataSize || len(got.Bounds) != 4 {
		t.Fatalf("round trip mangled manifest: %+v", got)
	}
	for i := range m.Bounds {
		if got.Bounds[i] != m.Bounds[i] {
			t.Fatalf("bound %d: %d != %d", i, got.Bounds[i], m.Bounds[i])
		}
	}
}

func TestManifestRejectsBadBounds(t *testing.T) {
	dev := nvm.New(nvm.Config{Size: ManifestDeviceSize, Mode: nvm.Tracked})
	bad := []*Manifest{
		{Shards: 2, ShardDataSize: 1 << 20, Bounds: []uint64{1, 100}}, // first bound must be 0
		{Shards: 2, ShardDataSize: 1 << 20, Bounds: []uint64{0, 0}},   // not increasing
		{Shards: 3, ShardDataSize: 1 << 20, Bounds: []uint64{0, 5}},   // wrong count
		{Shards: 0, ShardDataSize: 1 << 20, Bounds: nil},              // no shards
		{Shards: MaxShards + 1, ShardDataSize: 1 << 20, Bounds: nil},  // too many
	}
	for i, m := range bad {
		if err := WriteManifest(dev, m); err == nil {
			t.Errorf("case %d: bad manifest %+v accepted", i, m)
		}
	}
}

func TestRoutingSpreadsAndIsStable(t *testing.T) {
	m := &Manifest{Shards: 4, ShardDataSize: 1 << 20, Bounds: EqualBounds(4)}
	perShard := make([]int, 4)
	for k := int64(0); k < 4096; k++ {
		i := m.ShardOf(k)
		if i < 0 || i >= 4 {
			t.Fatalf("key %d routed to shard %d", k, i)
		}
		if j := m.ShardOf(k); j != i {
			t.Fatalf("key %d routed to %d then %d", k, i, j)
		}
		perShard[i]++
	}
	for i, n := range perShard {
		if n == 0 {
			t.Fatalf("shard %d got no keys out of 4096 (spread %v)", i, perShard)
		}
	}
}

func TestCreatePutReopen(t *testing.T) {
	store := NewMemStore()
	set, err := OpenSet(store, "kv", testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	gen0 := set.Manifest().Generation
	model := make(map[int64]int64)
	c := set.NewCtx()
	for k := int64(0); k < 500; k++ {
		if err := c.Put(k, k*10); err != nil {
			t.Fatal(err)
		}
		model[k] = k * 10
	}
	for k := int64(0); k < 500; k += 5 {
		if !c.Delete(k) {
			t.Fatalf("delete %d: not present", k)
		}
		delete(model, k)
	}
	c.Release()
	verifySet(t, "live", set, model)

	// Reboot: only flushed state survives; every committed mapping must.
	store2 := storeFrom(t, images(t, store, "kv", 4))
	set2, err := OpenSet(store2, "kv", Options{Mode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	if set2.NumShards() != 4 {
		t.Fatalf("reopened with %d shards", set2.NumShards())
	}
	if g := set2.Manifest().Generation; g != gen0+1 {
		t.Fatalf("generation %d after reopen, want %d", g, gen0+1)
	}
	for i := 0; i < 4; i++ {
		if set2.Shard(i).Recovery().Created {
			t.Fatalf("shard %d reported Created on reopen", i)
		}
	}
	verifySet(t, "reopened", set2, model)

	// Routing must agree across the reboot (same persisted bounds).
	for k := int64(0); k < 500; k++ {
		if set.ShardOf(k) != set2.ShardOf(k) {
			t.Fatalf("key %d routed to %d before, %d after", k, set.ShardOf(k), set2.ShardOf(k))
		}
	}
}

func TestManifestOnlyStoreRecreatesShards(t *testing.T) {
	// A crash after the manifest was persisted but before any shard was
	// registered: the manifest-first rule says this must open as an empty
	// set with every shard recreated.
	store := NewMemStore()
	mani := &Manifest{Shards: 3, ShardDataSize: 1 << 20, Bounds: EqualBounds(3)}
	dev := nvm.New(nvm.Config{Size: ManifestDeviceSize, Mode: nvm.Tracked})
	if err := WriteManifest(dev, mani); err != nil {
		t.Fatal(err)
	}
	if err := store.Register(ManifestName("kv"), dev); err != nil {
		t.Fatal(err)
	}
	set, err := OpenSet(store, "kv", Options{Mode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	if set.NumShards() != 3 {
		t.Fatalf("NumShards = %d, want 3 (from manifest)", set.NumShards())
	}
	for i := 0; i < 3; i++ {
		if !set.Shard(i).Recovery().Created {
			t.Fatalf("shard %d not recreated", i)
		}
	}
	if set.Len() != 0 {
		t.Fatalf("Len = %d on recreated set", set.Len())
	}
	c := set.NewCtx()
	defer c.Release()
	if err := c.Put(7, 70); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Get(7); !ok || v != 70 {
		t.Fatalf("put/get on recreated set: (%d, %v)", v, ok)
	}
}

func TestPartiallyCreatedSetTolerated(t *testing.T) {
	// A crash midway through set creation: manifest plus a strict subset
	// of the shard images. The missing shards are recreated empty; the
	// present ones keep their committed data.
	store := NewMemStore()
	set, err := OpenSet(store, "kv", testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[int64]int64)
	c := set.NewCtx()
	for k := int64(0); k < 400; k++ {
		if err := c.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
		model[k] = k + 1
	}
	c.Release()

	imgs := images(t, store, "kv", 4)
	surviving := map[int]bool{0: true, 2: true}
	partial := make(map[string][]byte)
	partial[ManifestName("kv")] = imgs[ManifestName("kv")]
	for i := range surviving {
		partial[ShardHeapName("kv", i)] = imgs[ShardHeapName("kv", i)]
	}
	set2, err := OpenSet(storeFrom(t, partial), "kv", Options{Mode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int64]int64)
	for k, v := range model {
		if surviving[set.ShardOf(k)] {
			want[k] = v
		}
	}
	for i := 0; i < 4; i++ {
		if got := set2.Shard(i).Recovery().Created; got == surviving[i] {
			t.Fatalf("shard %d: Created = %v, surviving = %v", i, got, surviving[i])
		}
	}
	verifySet(t, "partial", set2, want)
}

func TestGCShardStaggersAndPreserves(t *testing.T) {
	store := NewMemStore()
	set, err := OpenSet(store, "kv", testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[int64]int64)
	c := set.NewCtx()
	for k := int64(0); k < 600; k++ {
		if err := c.Put(k, k*3); err != nil {
			t.Fatal(err)
		}
		model[k] = k * 3
	}
	// Garbage: overwrite half the values (dead boxes), delete a slice.
	for k := int64(0); k < 300; k++ {
		if err := c.Put(k, k*7); err != nil {
			t.Fatal(err)
		}
		model[k] = k * 7
	}
	for k := int64(300); k < 350; k++ {
		c.Delete(k)
		delete(model, k)
	}
	c.Release()

	// Collect one shard at a time; siblings' devices must see zero
	// traffic — the no-shared-fence property, observed at the device.
	for i := 0; i < set.NumShards(); i++ {
		var before []nvm.Stats
		for j := 0; j < set.NumShards(); j++ {
			before = append(before, set.Shard(j).Heap().Device().Stats())
		}
		if _, err := set.GCShard(i); err != nil {
			t.Fatalf("GCShard(%d): %v", i, err)
		}
		for j := 0; j < set.NumShards(); j++ {
			delta := set.Shard(j).Heap().Device().Stats().Sub(before[j])
			if j != i && (delta.Writes != 0 || delta.Flushes != 0) {
				t.Fatalf("collecting shard %d touched shard %d's device: %+v", i, j, delta)
			}
		}
	}
	verifySet(t, "post-gc", set, model)

	// And the collected state is the durable one.
	set2, err := OpenSet(storeFrom(t, images(t, store, "kv", 4)), "kv", Options{Mode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	verifySet(t, "post-gc-reboot", set2, model)
}

func TestRecoveryWorkerCountByteIdentical(t *testing.T) {
	imgs, _, _ := buildCrashedScenario(t)
	var ref map[string][]byte
	for _, workers := range []int{1, 2, 4} {
		store := storeFrom(t, imgs)
		set, err := OpenSet(store, "kv", Options{Mode: nvm.Tracked, RecoveryWorkers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := images(t, store, "kv", set.NumShards())
		if ref == nil {
			ref = got
			continue
		}
		for name, img := range got {
			if !bytes.Equal(img, ref[name]) {
				t.Fatalf("workers=%d: device %q diverged from workers=1 image", workers, name)
			}
		}
	}
}

// TestPutDeviceCost pins what a put costs the device on a quiet set: one
// ctx, every bucket spliced, no table growth, PLAB attached. A fresh key
// is one allocation run (box and node under one flush) and the link — 3
// lines, 2 fences. An update is the box alone and the value slot — 2
// lines and 2 fences, plus a line when the 32-byte box straddles two. A
// delete of a present key is its mark alone — 1 line, 1 fence: the
// unlink is lazy (pindex) — and of an absent key nothing.
func TestPutDeviceCost(t *testing.T) {
	opts := testOptions(1)
	opts.Index = pindex.Options{InitialBuckets: 8, MaxLoadFactor: 1 << 30}
	set, err := OpenSet(NewMemStore(), "cost", opts)
	if err != nil {
		t.Fatal(err)
	}
	h := set.Shard(0).Heap()
	c := set.NewCtx()
	defer c.Release()
	const warm, measured = 256, 64
	var dev0 nvm.Stats
	var ctx0 int
	for k := int64(0); k < warm; k++ {
		if err := c.Put(k, k); err != nil {
			t.Fatal(err)
		}
		if k == 0 { // the box klass's record went in with the first put
			dev0, ctx0 = h.Device().Stats(), c.ShardFlushedLines(0)
		}
	}
	put := func(k, v int64) nvm.Stats {
		before := h.Device().Stats()
		if err := c.Put(k, v); err != nil {
			t.Fatal(err)
		}
		return h.Device().Stats().Sub(before)
	}
	for k := int64(warm); k < warm+measured; k++ {
		if d := put(k, k); d.FlushedLines != 3 || d.Fences != 2 {
			t.Fatalf("fresh key %d: %d lines / %d fences, want 3 / 2", k, d.FlushedLines, d.Fences)
		}
	}
	for k := int64(0); k < measured; k++ {
		d := put(k, -k)
		box, ok := c.subs[0].Get(k) // nothing collects this set, so no pin
		if !ok {
			t.Fatalf("key %d lost", k)
		}
		want := uint64(1 + nvm.LineSpan(h.OffOf(box), set.Shard(0).boxK.SizeOf(0)))
		if d.FlushedLines != want || want > 3 || d.Fences != 2 {
			t.Fatalf("update of key %d: %d lines / %d fences, want %d / 2", k, d.FlushedLines, d.Fences, want)
		}
	}
	del := func(k int64, want bool) nvm.Stats {
		before := h.Device().Stats()
		if got := c.Delete(k); got != want {
			t.Fatalf("Delete(%d) = %v, want %v", k, got, want)
		}
		return h.Device().Stats().Sub(before)
	}
	for k := int64(0); k < measured; k++ {
		if d := del(k, true); d.FlushedLines != 1 || d.Fences != 1 {
			t.Fatalf("delete of present key %d: %d lines / %d fences, want 1 / 1", k, d.FlushedLines, d.Fences)
		}
		if d := del(k, false); d.FlushedLines != 0 || d.Fences != 0 {
			t.Fatalf("delete of absent key %d: %d lines / %d fences, want 0 / 0", k, d.FlushedLines, d.Fences)
		}
	}
	// The ctx was the only thing flushing, so its own tally — index stats
	// plus allocator stats, no separate box bookkeeping — is the device's.
	if got, want := c.ShardFlushedLines(0)-ctx0, int(h.Device().Stats().FlushedLines-dev0.FlushedLines); got != want {
		t.Fatalf("ShardFlushedLines = %d, the device counted %d", got, want)
	}
}

func TestOpenSetRejectsBadShardCount(t *testing.T) {
	for _, n := range []int{-1, MaxShards + 1} {
		if _, err := OpenSet(NewMemStore(), "kv", Options{Shards: n}); err == nil {
			t.Errorf("shard count %d accepted", n)
		}
	}
}

func TestLastRecoveryExposed(t *testing.T) {
	// Shard recovery stats flow out through Shard.Recovery: a rebooted
	// set must report device traffic for each recovered shard.
	store := NewMemStore()
	set, err := OpenSet(store, "kv", testOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	c := set.NewCtx()
	for k := int64(0); k < 200; k++ {
		if err := c.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	c.Release()
	set2, err := OpenSet(storeFrom(t, images(t, store, "kv", 2)), "kv", Options{Mode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rec := set2.Shard(i).Recovery()
		if rec.Created {
			t.Fatalf("shard %d recreated instead of recovered", i)
		}
		if rec.Dev.Reads == 0 {
			t.Fatalf("shard %d recovery reported no device reads: %+v", i, rec)
		}
		if rec.Index.Entries == 0 {
			t.Fatalf("shard %d index recovery saw no entries", i)
		}
	}
}

func TestSetNamesAreValidHeapNames(t *testing.T) {
	// DirStore routes these through namemgr, which enforces its name
	// regex; the derived names must pass for any legal base.
	for _, base := range []string{"kv", "a", "my-set.v2"} {
		for _, n := range setNames(base, 3) {
			if len(n) == 0 || len(n) > 128 {
				t.Fatalf("derived name %q out of range", n)
			}
		}
	}
	if got := ShardHeapName("kv", 7); got != "kv-s7" {
		t.Fatalf("ShardHeapName = %q", got)
	}
	if got := ManifestName("kv"); got != "kv-manifest" {
		t.Fatalf("ManifestName = %q", got)
	}
}

func ExampleSet() {
	store := NewMemStore()
	set, _ := OpenSet(store, "sessions", Options{Shards: 2, ShardDataSize: 1 << 20})
	c := set.NewCtx()
	defer c.Release()
	_ = c.Put(42, 1000)
	v, ok := c.Get(42)
	fmt.Println(v, ok, set.NumShards())
	// Output: 1000 true 2
}
