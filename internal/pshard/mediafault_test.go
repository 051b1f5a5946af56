package pshard

import (
	"errors"
	"slices"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
	"espresso/internal/pgc"
	"espresso/internal/pheap"
	"espresso/internal/pindex"
)

// The media-fault matrix: every fault class the simulator models (bit
// flip, torn line, transient read error, dropped flush) against every
// checksummed structure a set depends on (shard 0's GC-phase word, redo
// batch and frontier region top; the manifest), each cell checked against
// the committed key set. A cell's outcome is one of:
//
//   - salvage: a degraded open detects the damage and amputates — never
//     fabricates — its way back to serving, and Scrub flags the image;
//   - quarantine: shard 0 fails to open, the healthy shards serve every
//     key, and a retry heals it once the transient fault has passed;
//   - fatal: the set cannot open at all — the manifest is the routing
//     spine and stays load-bearing in every mode;
//   - reopen: the transient manifest fault fails one open, the next
//     succeeds;
//   - clean: the fault is indistinguishable from a valid earlier state by
//     design (value and checksum share one line, so a dropped writeback is
//     an ordinary crash): Scrub passes the image and a strict open serves
//     the exact committed set.

const faultBase = "faults"

// faultIndex pins the bucket table (MaxBuckets == InitialBuckets), so the
// index spine stays in shard 0's first data region and a frontier-region
// amputation loses data, never the spine.
var faultIndex = pindex.Options{InitialBuckets: 8192, MaxBuckets: 8192, MaxLoadFactor: 8}

type faultCell struct {
	structure string
	kind      faultdev.Kind
	expect    string
	lost      int // salvage: the shard-0 keys the amputation loses
}

var faultMatrix = []faultCell{
	{"gc-phase", faultdev.BitFlip, "salvage", 0},
	{"gc-phase", faultdev.TornLine, "salvage", 0},
	{"gc-phase", faultdev.ReadError, "quarantine", 0},
	{"gc-phase", faultdev.DroppedFlush, "clean", 0},

	{"redo", faultdev.BitFlip, "salvage", 0},
	{"redo", faultdev.TornLine, "salvage", 0},
	{"redo", faultdev.ReadError, "quarantine", 0},
	{"redo", faultdev.DroppedFlush, "salvage", 0},

	{"region-top", faultdev.BitFlip, "salvage", 7162},
	{"region-top", faultdev.TornLine, "salvage", 7162},
	{"region-top", faultdev.ReadError, "quarantine", 0},
	{"region-top", faultdev.DroppedFlush, "clean", 0},

	{"manifest", faultdev.BitFlip, "fatal", 0},
	{"manifest", faultdev.TornLine, "fatal", 0},
	{"manifest", faultdev.ReadError, "reopen", 0},
	{"manifest", faultdev.DroppedFlush, "fatal", 0},
}

// faultFixture is the committed state every cell starts from: the
// power-loss images of a 3-shard set, its key model, and the offsets of
// the fault targets inside shard 0's image.
type faultFixture struct {
	imgs                           map[string][]byte
	model                          map[int64]int64
	gcPhase, gcPhaseSum, redo, top int // top: the frontier region's top line
}

func buildFaultFixture(t *testing.T) *faultFixture {
	t.Helper()
	// Floored, not scaled: the region-top cells need shard 0 to span at
	// least two data regions, so the frontier region holds data.
	const n = 24000
	store := NewMemStore()
	set, err := OpenSet(store, faultBase, Options{Shards: 3, ShardDataSize: 4 << 20, Mode: nvm.Tracked, Index: faultIndex})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	fx := &faultFixture{model: make(map[int64]int64, n)}
	c := set.NewCtx()
	put := func(k, v int64) {
		if err := c.Put(k, v); err != nil {
			t.Fatal(err)
		}
		fx.model[k] = v
	}
	for k := int64(1); k <= n; k++ {
		put(k, k*7+11)
	}
	for k := int64(5); k <= n; k += 10 {
		c.Delete(k)
		delete(fx.model, k)
	}
	for k := int64(3); k <= n; k += 7 {
		if _, ok := fx.model[k]; ok {
			put(k, k*13+5)
		}
	}
	c.Release()
	fx.imgs = images(t, store, faultBase, 3)

	h, err := pheap.Load(nvm.FromImage(fx.shard0(), nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
	if err != nil {
		t.Fatalf("shard 0's image does not load: %v", err)
	}
	// The reserved GC-phase word and its same-line checksum sit at fixed
	// offsets of heap format 6's metadata block; the word must read idle.
	fx.gcPhase, fx.gcPhaseSum, fx.redo = 208, 232, h.Geo().RedoOff
	frontier := -1
	for r := 0; r < h.Geo().DataRegions(); r++ {
		if h.RegionTop(r) > 1 { // a committed top, not untouched or a humongous interior
			frontier = r
		}
	}
	if frontier < 1 {
		t.Fatalf("shard 0 spans %d data region(s); the frontier must lie past region 0", frontier+1)
	}
	fx.top = h.RegionTopMetaOff(frontier)
	return fx
}

// shard0 is a fresh copy of shard 0's committed image.
func (fx *faultFixture) shard0() []byte {
	return append([]byte(nil), fx.imgs[ShardHeapName(faultBase, 0)]...)
}

// replay loads shard 0's image, runs op on it with flushes matching plan
// dropped, and returns the power-loss image after it.
func (fx *faultFixture) replay(t *testing.T, plan *faultdev.Plan, op func(h *pheap.Heap) error) []byte {
	t.Helper()
	dev := nvm.FromImage(fx.shard0(), nvm.Config{Mode: nvm.Tracked})
	h, err := pheap.Load(dev, klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		in := faultdev.Install(dev, *plan)
		err = op(h)
		in.Remove()
	} else {
		err = op(h)
	}
	if err != nil {
		t.Fatal(err)
	}
	return dev.CrashImage(nvm.CrashFlushedOnly, 0)
}

// redoPending is shard 0 with a committed, unapplied redo batch of six
// no-op entries (each republishes the frontier top it already has); drop
// loses the flush of the batch's second line, so the persisted batch fails
// its checksum while its commit record stands.
func (fx *faultFixture) redoPending(t *testing.T, drop bool) []byte {
	var plan *faultdev.Plan
	if drop {
		plan = &faultdev.Plan{Kind: faultdev.DroppedFlush, Off: fx.redo + nvm.LineSize, N: nvm.LineSize}
	}
	return fx.replay(t, plan, func(h *pheap.Heap) error {
		e := pheap.RedoEntry{Off: fx.top, Val: h.Device().ReadU64(fx.top)}
		h.RedoCommit([]pheap.RedoEntry{e, e, e, e, e, e})
		return nil
	})
}

// damage returns the cell's images — one of them damaged at rest — or,
// for a read-error cell, the intact images and the plan to arm on target.
func (fx *faultFixture) damage(t *testing.T, c faultCell) (imgs map[string][]byte, read *faultdev.Plan, target string) {
	imgs, target = copyImages(fx.imgs), ShardHeapName(faultBase, 0)
	if c.structure == "manifest" {
		target = ManifestName(faultBase)
	}
	img := imgs[target]
	readAt := func(off, n int) { read = &faultdev.Plan{Kind: faultdev.ReadError, Off: off, N: n, Budget: 1} }
	switch c.structure + "/" + c.kind.String() {
	case "gc-phase/bit-flip":
		faultdev.FlipBitInImage(img, fx.gcPhase, 0)
	case "gc-phase/torn-line": // the word's newest value persisted, its same-line checksum did not
		for i := 0; i < 8; i++ {
			img[fx.gcPhaseSum+i] ^= 0xA5
		}
	case "gc-phase/read-error":
		readAt(fx.gcPhase, 8)
	case "gc-phase/dropped-flush": // a whole collection, every phase-word writeback lost
		img = fx.replay(t, &faultdev.Plan{Kind: faultdev.DroppedFlush, Off: fx.gcPhase, N: 8}, func(h *pheap.Heap) error {
			_, err := pgc.Collect(h, pgc.NoRoots{})
			return err
		})
	case "redo/bit-flip":
		img = fx.redoPending(t, false)
		faultdev.FlipBitInImage(img, fx.redo+24, 3) // the first entry's value word
	case "redo/torn-line":
		img = fx.redoPending(t, false)
		faultdev.CorruptLineInImage(img, fx.redo, 99)
	case "redo/read-error":
		readAt(fx.redo, 8)
	case "redo/dropped-flush":
		img = fx.redoPending(t, true)
	case "region-top/bit-flip":
		faultdev.FlipBitInImage(img, fx.top, 2)
	case "region-top/torn-line":
		faultdev.CorruptLineInImage(img, fx.top, 7)
	case "region-top/read-error":
		readAt(fx.top, 16)
	case "region-top/dropped-flush": // the writeback of a republication of the same top
		img = fx.replay(t, &faultdev.Plan{Kind: faultdev.DroppedFlush, Off: fx.top, N: 16}, func(h *pheap.Heap) error {
			h.RedoCommit([]pheap.RedoEntry{{Off: fx.top, Val: h.Device().ReadU64(fx.top)}})
			h.RedoApply()
			return nil
		})
	case "manifest/bit-flip":
		faultdev.FlipBitInImage(img, ManifestBoundsOff+8, 4) // bounds[1]
	case "manifest/torn-line":
		faultdev.CorruptLineInImage(img, ManifestBoundsOff, 5)
	case "manifest/read-error":
		readAt(ManifestStateOff, 8)
	case "manifest/dropped-flush": // a rewrite whose checksum line never persists
		m, err := ReadManifest(nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}))
		if err != nil {
			t.Fatal(err)
		}
		dev := nvm.New(nvm.Config{Size: ManifestDeviceSize, Mode: nvm.Tracked})
		in := faultdev.Install(dev, faultdev.Plan{Kind: faultdev.DroppedFlush, Off: ManifestSumOff, N: 8})
		err = WriteManifest(dev, m)
		in.Remove()
		if err != nil {
			t.Fatal(err)
		}
		img = dev.CrashImage(nvm.CrashFlushedOnly, 0)
	}
	imgs[target] = img
	return imgs, read, target
}

// TestMediaFaultMatrix runs every cell of faultMatrix and holds it to its
// outcome.
func TestMediaFaultMatrix(t *testing.T) {
	fx := buildFaultFixture(t)
	for _, c := range faultMatrix {
		t.Run(c.structure+"/"+c.kind.String(), func(t *testing.T) { fx.check(t, c) })
	}
}

func (fx *faultFixture) check(t *testing.T, c faultCell) {
	imgs, read, target := fx.damage(t, c)
	if read == nil && c.structure != "manifest" {
		rep, err := pheap.Scrub(nvm.FromImage(imgs[target], nvm.Config{Mode: nvm.Tracked}))
		if err != nil {
			t.Fatalf("scrub: the image became unreadable: %v", err)
		}
		if rep.Corrupt() != (c.expect == "salvage") {
			t.Fatalf("scrub detected %v, outcome %s (findings %v)", rep.Corrupt(), c.expect, rep.Findings)
		}
	}
	store := storeFrom(t, imgs)
	var in *faultdev.Injector
	if read != nil {
		dev, err := store.Open(target)
		if err != nil {
			t.Fatal(err)
		}
		in = faultdev.Install(dev, *read)
		defer in.Remove()
	}
	open := func(degraded bool) (set *Set, err error) {
		err = nvm.CatchMedia(func() error {
			set, err = OpenSet(store, faultBase, Options{Mode: nvm.Tracked, Index: faultIndex, Degraded: degraded, DisableRetryLoop: true})
			return err
		})
		return set, err
	}
	mustOpen := func(degraded bool) *Set {
		set, err := open(degraded)
		if err != nil {
			t.Fatalf("open (degraded %v): %v", degraded, err)
		}
		t.Cleanup(set.Close)
		return set
	}
	switch c.expect {
	case "clean":
		verifySet(t, "strict open", mustOpen(false), fx.model)
	case "salvage":
		fx.checkSalvaged(t, c, mustOpen(true))
	case "quarantine":
		set := mustOpen(true)
		fx.checkFenced(t, set)
		if healed := set.RetryQuarantined(); !slices.Equal(healed, []int{0}) {
			t.Fatalf("RetryQuarantined healed %v, want [0] (cause %v)", healed, set.QuarantineCause(0))
		}
		if in.Fired() != 1 {
			t.Fatalf("%d read errors delivered, want 1", in.Fired())
		}
		verifySet(t, "after the retry", set, fx.model)
	case "fatal":
		for i := 1; i <= 2; i++ {
			if set, err := open(true); err == nil {
				set.Close()
				t.Fatalf("open %d succeeded; the manifest must stay load-bearing", i)
			}
		}
	case "reopen":
		if set, err := open(true); err == nil {
			set.Close()
			t.Fatal("the first open with a failing manifest read succeeded")
		}
		set := mustOpen(true)
		if in.Fired() != 1 {
			t.Fatalf("%d read errors delivered, want 1", in.Fired())
		}
		verifySet(t, "reopened", set, fx.model)
	default:
		t.Fatalf("unknown outcome %q", c.expect)
	}
}

// checkSalvaged holds a set whose shard 0 reopened through salvage:
// every healthy-shard key serves exactly, exactly c.lost shard-0 keys read
// as absent, nothing anywhere is fabricated, and the salvage report names
// the cell's structure and no other.
func (fx *faultFixture) checkSalvaged(t *testing.T, c faultCell, set *Set) {
	if q := set.Quarantined(); len(q) != 0 {
		t.Fatalf("unexpected quarantine of shards %v", q)
	}
	ctx := set.NewCtx()
	defer ctx.Release()
	lost := 0
	for k, v := range fx.model {
		got, ok, err := ctx.Lookup(k)
		switch {
		case err != nil:
			t.Fatalf("lookup %d: %v", k, err)
		case !ok && set.ShardOf(k) != 0:
			t.Fatalf("healthy-shard key %d lost to a shard-0 fault", k)
		case !ok:
			lost++
		case got != v:
			t.Fatalf("key %d: fabricated value %d, want %d", k, got, v)
		}
	}
	if lost != c.lost {
		t.Fatalf("salvage lost %d keys, want %d", lost, c.lost)
	}
	seen := 0
	ctx.Scan(func(k, v int64) bool {
		if want, ok := fx.model[k]; !ok || want != v {
			t.Errorf("scan fabricated %d = %d", k, v)
		}
		seen++
		return true
	})
	if seen != len(fx.model)-lost {
		t.Fatalf("scan saw %d entries, want %d", seen, len(fx.model)-lost)
	}
	s := set.Shard(0).Recovery().Salvage
	if s == nil {
		t.Fatal("shard 0 reopened without a salvage report")
	}
	got := [3]bool{s.GCPhaseRepaired, s.RedoDiscarded, len(s.RegionsLost) > 0}
	want := [3]bool{c.structure == "gc-phase", c.structure == "redo", c.structure == "region-top"}
	if got != want {
		t.Fatalf("salvage report %v; want only the %s repair", s, c.structure)
	}
}

// checkFenced holds the fence: exactly shard 0 is quarantined, with a
// cause; every shard-0 key fails with ErrShardQuarantined and every
// healthy key serves exactly.
func (fx *faultFixture) checkFenced(t *testing.T, set *Set) {
	if q := set.Quarantined(); !slices.Equal(q, []int{0}) || set.QuarantineCause(0) == nil {
		t.Fatalf("quarantined shards %v (cause %v), want [0] with a cause", q, set.QuarantineCause(0))
	}
	ctx := set.NewCtx()
	defer ctx.Release()
	for k, v := range fx.model {
		got, ok, err := ctx.Lookup(k)
		if set.ShardOf(k) == 0 {
			if !errors.Is(err, ErrShardQuarantined) {
				t.Fatalf("key %d on the quarantined shard: (%d, %v, %v), want ErrShardQuarantined", k, got, ok, err)
			}
		} else if err != nil || !ok || got != v {
			t.Fatalf("healthy key %d: (%d, %v, %v), want %d", k, got, ok, err, v)
		}
	}
}
