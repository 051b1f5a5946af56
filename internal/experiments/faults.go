package experiments

// The faults experiment is the robustness contract, run as a matrix:
// every fault class the simulator models (bit flip, torn line,
// transient read error, dropped flush) against every checksummed
// metadata structure (GC-phase word, redo batch, region-top line,
// shard manifest), each cell verified against a DRAM oracle of the
// committed key set. The contract per cell is fixed in the table
// below — detected-and-salvaged, detected-and-quarantined, fatal, or
// crash-equivalent — and the experiment hard-fails (returns an error)
// the moment any cell deviates: a fault that should be caught and
// isn't, a salvage that fabricates a key, a quarantine that leaks into
// a healthy shard's serving, or a retry that fails to restore the
// exact committed set.
//
// Two companion series ride along:
//
//   - "degraded": the end-to-end fence-and-serve scenario — a transient
//     read error with a finite budget quarantines one shard at open,
//     healthy shards serve the whole time, and the background backoff
//     loop reopens the shard once the budget exhausts, after which the
//     set must equal the oracle exactly.
//   - "overhead": the zero-cost contract for the fault hooks — with
//     faultdev.Passthrough installed on every shard device, a fixed
//     single-goroutine workload must leave every device counter
//     bit-identical to an unhooked run.

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"espresso/internal/klass"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
	"espresso/internal/pgc"
	"espresso/internal/pheap"
	"espresso/internal/pindex"
	"espresso/internal/pshard"
)

// FaultsRow is one JSON row of the faults experiment: a matrix cell, the
// degraded-serving scenario, or an overhead measurement. The dev_*
// fields (overhead series only) are device costs; like every other
// field they are held to BENCH_faults.json exactly.
type FaultsRow struct {
	Series string `json:"series"` // matrix | degraded | overhead
	Op     string `json:"op"`     // matrix: structure/fault; overhead: workload variant

	// Matrix + degraded fields.
	Expect         string `json:"expect,omitempty"` // salvage | quarantine | fatal | reopen | clean
	Detected       bool   `json:"detected"`
	Quarantined    bool   `json:"quarantined"`
	Healed         bool   `json:"healed"`
	KeysLost       int    `json:"keys_lost"`
	KeysServed     int    `json:"keys_served_degraded"`
	RecoveredExact bool   `json:"recovered_exact"`
	RetryFaults    int    `json:"retry_faults,omitempty"` // injected faults delivered before healing

	// Overhead fields.
	Ops                  int     `json:"ops,omitempty"`
	DevWritesPerOp       float64 `json:"dev_writes_per_op,omitempty"`
	DevFlushedLinesPerOp float64 `json:"dev_flushed_lines_per_op,omitempty"`
	DevFencesPerOp       float64 `json:"dev_fences_per_op,omitempty"`
	HooksIdentical       bool    `json:"hooks_identical,omitempty"`
}

// faultsIndexOpts is the per-shard index sizing the fixture uses.
// MaxBuckets == InitialBuckets pins the bucket table: it never grows, so
// the index spine (header, bucket array, head sentinel) stays in the
// shard's first data region and a frontier-region quarantine amputates
// data, never the spine.
func faultsIndexOpts() pindex.Options {
	return pindex.Options{InitialBuckets: 8192, MaxBuckets: 8192, MaxLoadFactor: 8}
}

// faultsFixture is the golden committed state every cell starts from:
// crash images of a 3-shard set plus the DRAM oracle of its exact
// committed keys, and the device offsets of the fault targets inside
// shard 0's image.
type faultsFixture struct {
	oracle  map[int64]int64
	shardOf map[int64]int
	healthy int // oracle keys owned by shards other than 0

	manifest []byte
	shards   [][]byte

	// Shard-0 fault targets.
	gcPhaseOff    int
	globalTSOff   int
	gcPhaseSumOff int
	redoOff       int
	frontier      int    // highest data region with a committed top
	topOff        int    // its region-top line offset
	topVal        uint64 // its committed top word
}

func cloneImg(b []byte) []byte { return append([]byte(nil), b...) }

const faultsBase = "faults"

// buildFaultsFixture commits a deterministic population into a fresh
// 3-shard set and snapshots its crash images. The population is floored
// (not scaled down) because the region-top cells need shard 0 to span
// several data regions: the corrupted frontier region must hold data,
// not the index spine.
func buildFaultsFixture(s Scale) (*faultsFixture, error) {
	n := s.div(36000)
	if n < 24000 {
		n = 24000
	}
	store := pshard.NewMemStore()
	set, err := pshard.OpenSet(store, faultsBase, pshard.Options{
		Shards:        3,
		ShardDataSize: 4 << 20,
		Mode:          nvm.Tracked,
		Index:         faultsIndexOpts(),
	})
	if err != nil {
		return nil, err
	}
	defer set.Close()

	fx := &faultsFixture{
		oracle:  make(map[int64]int64, n),
		shardOf: make(map[int64]int, n),
	}
	ctx := set.NewCtx()
	for k := int64(1); k <= int64(n); k++ {
		if err := ctx.Put(k, k*7+11); err != nil {
			return nil, err
		}
		fx.oracle[k] = k*7 + 11
	}
	for k := int64(5); k <= int64(n); k += 10 {
		ctx.Delete(k)
		delete(fx.oracle, k)
	}
	for k := int64(3); k <= int64(n); k += 7 {
		if _, ok := fx.oracle[k]; ok {
			if err := ctx.Put(k, k*13+5); err != nil {
				return nil, err
			}
			fx.oracle[k] = k*13 + 5
		}
	}
	ctx.Release()
	for k := range fx.oracle {
		sh := set.ShardOf(k)
		fx.shardOf[k] = sh
		if sh != 0 {
			fx.healthy++
		}
	}

	// Golden crash images: the committed (durably flushed) state only.
	maniDev, err := store.Open(pshard.ManifestName(faultsBase))
	if err != nil {
		return nil, err
	}
	fx.manifest = maniDev.CrashImage(nvm.CrashFlushedOnly, 0)
	fx.shards = make([][]byte, set.NumShards())
	for i := 0; i < set.NumShards(); i++ {
		dev, err := store.Open(pshard.ShardHeapName(faultsBase, i))
		if err != nil {
			return nil, err
		}
		fx.shards[i] = dev.CrashImage(nvm.CrashFlushedOnly, 0)
	}

	// Fault-target offsets, from a throwaway strict load of shard 0.
	dev := nvm.FromImage(cloneImg(fx.shards[0]), nvm.Config{Mode: nvm.Tracked})
	h, err := pheap.Load(dev, klass.NewRegistry())
	if err != nil {
		return nil, fmt.Errorf("faults: golden shard 0 image does not load: %w", err)
	}
	fx.gcPhaseOff = h.GCPhaseMetaOff()
	fx.globalTSOff = h.GlobalTSMetaOff()
	fx.gcPhaseSumOff = h.GCPhaseSumMetaOff()
	geo := h.Geo()
	fx.redoOff = geo.RedoOff
	fx.frontier = -1
	for r := 0; r < geo.DataRegions(); r++ {
		if h.RegionTop(r) > 1 { // committed top, not untouched/humongous-interior
			fx.frontier = r
		}
	}
	if fx.frontier < 1 {
		return nil, fmt.Errorf("faults: population spans %d data region(s); need the frontier past region 0", fx.frontier+1)
	}
	fx.topOff = h.RegionTopMetaOff(fx.frontier)
	golden := nvm.FromImage(fx.shards[0], nvm.Config{Mode: nvm.Tracked})
	fx.topVal = golden.ReadU64(fx.topOff)
	return fx, nil
}

// makeStore registers per-cell copies of the images as fresh devices and
// returns the shard-0 and manifest devices for injector installs.
func (fx *faultsFixture) makeStore(man []byte, shard0 []byte) (*pshard.MemStore, *nvm.Device, *nvm.Device, error) {
	store := pshard.NewMemStore()
	maniDev := nvm.FromImage(cloneImg(man), nvm.Config{Mode: nvm.Tracked})
	if err := store.Register(pshard.ManifestName(faultsBase), maniDev); err != nil {
		return nil, nil, nil, err
	}
	var dev0 *nvm.Device
	for i, img := range fx.shards {
		src := img
		if i == 0 {
			src = shard0
		}
		dev := nvm.FromImage(cloneImg(src), nvm.Config{Mode: nvm.Tracked})
		if i == 0 {
			dev0 = dev
		}
		if err := store.Register(pshard.ShardHeapName(faultsBase, i), dev); err != nil {
			return nil, nil, nil, err
		}
	}
	return store, dev0, maniDev, nil
}

func (fx *faultsFixture) openDegraded(store *pshard.MemStore) (*pshard.Set, error) {
	return pshard.OpenSet(store, faultsBase, pshard.Options{
		Mode:             nvm.Tracked,
		Index:            faultsIndexOpts(),
		Degraded:         true,
		DisableRetryLoop: true,
	})
}

// imgRedoPending re-creates shard 0's image with a committed, unapplied
// redo batch of six no-op entries (each republishes the frontier top it
// already has). When drop is set, the flush covering the batch's second
// cache line of entries is silently dropped, so the persisted batch
// fails its checksum while its commit record stands — the
// dropped-writeback detection case.
func (fx *faultsFixture) imgRedoPending(drop bool) ([]byte, error) {
	dev := nvm.FromImage(cloneImg(fx.shards[0]), nvm.Config{Mode: nvm.Tracked})
	h, err := pheap.Load(dev, klass.NewRegistry())
	if err != nil {
		return nil, err
	}
	entries := make([]pheap.RedoEntry, 6)
	for i := range entries {
		entries[i] = pheap.RedoEntry{Off: fx.topOff, Val: fx.topVal}
	}
	var in *faultdev.Injector
	if drop {
		in = faultdev.Install(dev, faultdev.Plan{
			Kind: faultdev.DroppedFlush,
			Off:  fx.redoOff + nvm.LineSize,
			N:    nvm.LineSize,
		})
	}
	h.RedoCommit(entries)
	if in != nil {
		in.Remove()
	}
	return dev.CrashImage(nvm.CrashFlushedOnly, 0), nil
}

// imgGCPhaseDroppedFlush runs a full collection of shard 0 with every
// flush of the GC-phase word silently dropped, then crashes. The phase
// word's checksum shares its cache line, so a dropped line writeback
// leaves the old (word, sum) pair — a valid earlier state, handled as
// crash consistency rather than corruption.
func (fx *faultsFixture) imgGCPhaseDroppedFlush() ([]byte, error) {
	dev := nvm.FromImage(cloneImg(fx.shards[0]), nvm.Config{Mode: nvm.Tracked})
	h, err := pheap.Load(dev, klass.NewRegistry())
	if err != nil {
		return nil, err
	}
	in := faultdev.Install(dev, faultdev.Plan{Kind: faultdev.DroppedFlush, Off: fx.gcPhaseOff, N: 8})
	_, err = pgc.Collect(h, pgc.NoRoots{})
	in.Remove()
	if err != nil {
		return nil, err
	}
	return dev.CrashImage(nvm.CrashFlushedOnly, 0), nil
}

// imgTopDroppedFlush drops the writeback of a frontier-top
// republication (a redo batch rewriting the same top). Value and
// checksum ride one line, so the persisted pair stays the old —
// identical — one: crash-equivalent by construction.
func (fx *faultsFixture) imgTopDroppedFlush() ([]byte, error) {
	dev := nvm.FromImage(cloneImg(fx.shards[0]), nvm.Config{Mode: nvm.Tracked})
	h, err := pheap.Load(dev, klass.NewRegistry())
	if err != nil {
		return nil, err
	}
	in := faultdev.Install(dev, faultdev.Plan{Kind: faultdev.DroppedFlush, Off: fx.topOff, N: 16})
	h.RedoCommit([]pheap.RedoEntry{{Off: fx.topOff, Val: fx.topVal}})
	h.RedoApply()
	in.Remove()
	return dev.CrashImage(nvm.CrashFlushedOnly, 0), nil
}

// imgManifestDroppedFlush rewrites the manifest with the checksum
// word's flush dropped: header and bounds persist, the sum line never
// does, and the next open must reject the manifest.
func (fx *faultsFixture) imgManifestDroppedFlush() ([]byte, error) {
	src := nvm.FromImage(cloneImg(fx.manifest), nvm.Config{Mode: nvm.Tracked})
	m, err := pshard.ReadManifest(src)
	if err != nil {
		return nil, err
	}
	dev := nvm.New(nvm.Config{Size: pshard.ManifestDeviceSize, Mode: nvm.Tracked})
	in := faultdev.Install(dev, faultdev.Plan{Kind: faultdev.DroppedFlush, Off: pshard.ManifestSumOff, N: 8})
	err = pshard.WriteManifest(dev, m)
	in.Remove()
	if err != nil {
		return nil, err
	}
	return dev.CrashImage(nvm.CrashFlushedOnly, 0), nil
}

// verifyExact checks the set serves the oracle exactly: every oracle key
// present with its exact value, and a full scan surfaces nothing else.
func (fx *faultsFixture) verifyExact(set *pshard.Set) error {
	ctx := set.NewCtx()
	defer ctx.Release()
	for k, v := range fx.oracle {
		got, ok, err := ctx.Lookup(k)
		if err != nil {
			return fmt.Errorf("lookup %d: %v", k, err)
		}
		if !ok || got != v {
			return fmt.Errorf("key %d: got (%d,%v), want %d", k, got, ok, v)
		}
	}
	return fx.scanAgainstOracle(ctx, len(fx.oracle))
}

// scanAgainstOracle walks the whole set asserting never-fabricate:
// every scanned entry must exist in the oracle with its exact value.
// wantSeen < 0 skips the completeness check (amputation may have lost
// entries); otherwise the scan must yield exactly wantSeen entries.
func (fx *faultsFixture) scanAgainstOracle(ctx *pshard.Ctx, wantSeen int) error {
	seen := 0
	var bad error
	ctx.Scan(func(k, v int64) bool {
		want, ok := fx.oracle[k]
		if !ok {
			bad = fmt.Errorf("scan fabricated key %d (value %d)", k, v)
			return false
		}
		if v != want {
			bad = fmt.Errorf("scan key %d: fabricated value %d, want %d", k, v, want)
			return false
		}
		seen++
		return true
	})
	if bad != nil {
		return bad
	}
	if wantSeen >= 0 && seen != wantSeen {
		return fmt.Errorf("scan saw %d entries, want %d", seen, wantSeen)
	}
	return nil
}

// verifySalvaged checks a set whose shard 0 reopened through salvage:
// healthy-shard keys must all serve exactly, shard-0 keys serve exactly
// or read as amputated (absent), and nothing anywhere is fabricated.
// Returns how many shard-0 keys the amputation lost.
func (fx *faultsFixture) verifySalvaged(set *pshard.Set) (int, error) {
	if q := set.Quarantined(); len(q) != 0 {
		return 0, fmt.Errorf("unexpected quarantine of shards %v", q)
	}
	ctx := set.NewCtx()
	defer ctx.Release()
	lost := 0
	for k, v := range fx.oracle {
		got, ok, err := ctx.Lookup(k)
		if err != nil {
			return 0, fmt.Errorf("lookup %d: %v", k, err)
		}
		if !ok {
			if fx.shardOf[k] != 0 {
				return 0, fmt.Errorf("healthy-shard key %d lost to a shard-0 fault", k)
			}
			lost++
			continue
		}
		if got != v {
			return 0, fmt.Errorf("key %d: fabricated value %d, want %d", k, got, v)
		}
	}
	return lost, fx.scanAgainstOracle(ctx, len(fx.oracle)-lost)
}

// verifyDegradedServing checks the fence: with exactly shard 0
// quarantined, every healthy-shard key serves exactly while every
// shard-0 key fails with ErrShardQuarantined. Returns the healthy keys
// served.
func (fx *faultsFixture) verifyDegradedServing(set *pshard.Set) (int, error) {
	if q := set.Quarantined(); len(q) != 1 || q[0] != 0 {
		return 0, fmt.Errorf("quarantined shards %v, want [0]", q)
	}
	if set.QuarantineCause(0) == nil {
		return 0, fmt.Errorf("quarantined shard 0 has no recorded cause")
	}
	ctx := set.NewCtx()
	defer ctx.Release()
	served := 0
	for k, v := range fx.oracle {
		got, ok, err := ctx.Lookup(k)
		if fx.shardOf[k] == 0 {
			if !errors.Is(err, pshard.ErrShardQuarantined) {
				return 0, fmt.Errorf("key %d on quarantined shard returned (%d,%v,%v), want ErrShardQuarantined", k, got, ok, err)
			}
			continue
		}
		if err != nil || !ok || got != v {
			return 0, fmt.Errorf("healthy key %d: got (%d,%v,%v), want %d", k, got, ok, err, v)
		}
		served++
	}
	return served, nil
}

// faultCell is one matrix cell with its contracted outcome.
type faultCell struct {
	structure string
	kind      faultdev.Kind
	expect    string
}

// The matrix. "salvage": the degraded open detects the damage and
// amputates (never fabricates) its way back to serving. "quarantine":
// the shard fails to open, healthy shards serve, and a retry heals it
// (transient fault). "fatal": the set cannot open at all — the manifest
// is the routing spine and stays load-bearing in every mode. "reopen":
// the transient manifest fault fails one open; the next succeeds.
// "clean": the fault is indistinguishable from a valid earlier state by
// design (value and checksum share one line, so a dropped line
// writeback is an ordinary crash), and the strict open must serve the
// exact committed set.
var faultsMatrix = []faultCell{
	{"gc-phase", faultdev.BitFlip, "salvage"},
	{"gc-phase", faultdev.TornLine, "salvage"},
	{"gc-phase", faultdev.ReadError, "quarantine"},
	{"gc-phase", faultdev.DroppedFlush, "clean"},

	{"redo", faultdev.BitFlip, "salvage"},
	{"redo", faultdev.TornLine, "salvage"},
	{"redo", faultdev.ReadError, "quarantine"},
	{"redo", faultdev.DroppedFlush, "salvage"},

	{"region-top", faultdev.BitFlip, "salvage"},
	{"region-top", faultdev.TornLine, "salvage"},
	{"region-top", faultdev.ReadError, "quarantine"},
	{"region-top", faultdev.DroppedFlush, "clean"},

	{"manifest", faultdev.BitFlip, "fatal"},
	{"manifest", faultdev.TornLine, "fatal"},
	{"manifest", faultdev.ReadError, "reopen"},
	{"manifest", faultdev.DroppedFlush, "fatal"},
}

// prepareCell builds the cell's faulted images and, for read-error
// cells, the injector plan to arm (on the shard-0 or manifest device).
func (fx *faultsFixture) prepareCell(c faultCell) (man, shard0 []byte, plan *faultdev.Plan, onManifest bool, err error) {
	man, shard0 = fx.manifest, fx.shards[0]
	switch c.structure {
	case "gc-phase":
		switch c.kind {
		case faultdev.BitFlip:
			shard0 = cloneImg(shard0)
			faultdev.FlipBitInImage(shard0, fx.gcPhaseOff, 0)
		case faultdev.TornLine:
			// Torn inside the line: the phase word's newest value persisted,
			// its same-line checksum did not.
			shard0 = cloneImg(shard0)
			for i := 0; i < 8; i++ {
				shard0[fx.gcPhaseSumOff+i] ^= 0xA5
			}
		case faultdev.ReadError:
			plan = &faultdev.Plan{Kind: faultdev.ReadError, Off: fx.gcPhaseOff, N: 8, Budget: 1}
		case faultdev.DroppedFlush:
			shard0, err = fx.imgGCPhaseDroppedFlush()
		}
	case "redo":
		switch c.kind {
		case faultdev.BitFlip:
			shard0, err = fx.imgRedoPending(false)
			if err == nil {
				faultdev.FlipBitInImage(shard0, fx.redoOff+24, 3) // first entry's value word
			}
		case faultdev.TornLine:
			shard0, err = fx.imgRedoPending(false)
			if err == nil {
				faultdev.CorruptLineInImage(shard0, fx.redoOff, 99)
			}
		case faultdev.ReadError:
			plan = &faultdev.Plan{Kind: faultdev.ReadError, Off: fx.redoOff, N: 8, Budget: 1}
		case faultdev.DroppedFlush:
			shard0, err = fx.imgRedoPending(true)
		}
	case "region-top":
		switch c.kind {
		case faultdev.BitFlip:
			shard0 = cloneImg(shard0)
			faultdev.FlipBitInImage(shard0, fx.topOff, 2)
		case faultdev.TornLine:
			shard0 = cloneImg(shard0)
			faultdev.CorruptLineInImage(shard0, fx.topOff, 7)
		case faultdev.ReadError:
			plan = &faultdev.Plan{Kind: faultdev.ReadError, Off: fx.topOff, N: 16, Budget: 1}
		case faultdev.DroppedFlush:
			shard0, err = fx.imgTopDroppedFlush()
		}
	case "manifest":
		onManifest = true
		switch c.kind {
		case faultdev.BitFlip:
			man = cloneImg(man)
			faultdev.FlipBitInImage(man, pshard.ManifestBoundsOff+8, 4) // bounds[1]
		case faultdev.TornLine:
			man = cloneImg(man)
			faultdev.CorruptLineInImage(man, pshard.ManifestBoundsOff, 5)
		case faultdev.ReadError:
			plan = &faultdev.Plan{Kind: faultdev.ReadError, Off: pshard.ManifestStateOff, N: 8, Budget: 1}
		case faultdev.DroppedFlush:
			man, err = fx.imgManifestDroppedFlush()
		}
	}
	return man, shard0, plan, onManifest, err
}

// runMatrixCell executes one cell and enforces its contract.
func (fx *faultsFixture) runMatrixCell(c faultCell) (FaultsRow, error) {
	row := FaultsRow{Series: "matrix", Op: c.structure + "/" + c.kind.String(), Expect: c.expect}
	man, shard0, plan, onManifest, err := fx.prepareCell(c)
	if err != nil {
		return row, fmt.Errorf("preparing: %w", err)
	}

	// Detection evidence for at-rest image damage: scrub the faulted
	// shard image (read-only) and require it to flag exactly the cells
	// that are contracted to be detectable there.
	if !onManifest && plan == nil {
		rep, err := pheap.Scrub(nvm.FromImage(cloneImg(shard0), nvm.Config{Mode: nvm.Tracked}))
		if err != nil {
			return row, fmt.Errorf("scrub: image became unreadable: %w", err)
		}
		row.Detected = rep.Corrupt()
		if want := c.expect == "salvage"; row.Detected != want {
			return row, fmt.Errorf("scrub detected=%v, contract wants %v (findings %v)", row.Detected, want, rep.Findings)
		}
	}

	store, dev0, maniDev, err := fx.makeStore(man, shard0)
	if err != nil {
		return row, err
	}
	var in *faultdev.Injector
	if plan != nil {
		target := dev0
		if onManifest {
			target = maniDev
		}
		in = faultdev.Install(target, *plan)
		defer in.Remove()
	}

	switch c.expect {
	case "clean":
		set, err := pshard.OpenSet(store, faultsBase, pshard.Options{Mode: nvm.Tracked, Index: faultsIndexOpts()})
		if err != nil {
			return row, fmt.Errorf("strict open of a crash-equivalent image failed: %w", err)
		}
		defer set.Close()
		if err := fx.verifyExact(set); err != nil {
			return row, err
		}
		row.Healed, row.RecoveredExact = true, true

	case "salvage":
		set, err := fx.openDegraded(store)
		if err != nil {
			return row, fmt.Errorf("degraded open: %w", err)
		}
		defer set.Close()
		lost, err := fx.verifySalvaged(set)
		if err != nil {
			return row, err
		}
		row.KeysLost, row.Healed = lost, true
		rec := set.Shard(0).Recovery()
		if rec.Salvage == nil || !(rec.Salvage.Dirty() || rec.Index.Salvaged()) {
			return row, fmt.Errorf("shard 0 reopened without salvage repairs (report %v)", rec.Salvage)
		}
		switch c.structure {
		case "gc-phase":
			if !rec.Salvage.GCPhaseRepaired || lost != 0 {
				return row, fmt.Errorf("gc-phase salvage: repaired=%v lost=%d, want repaired with 0 lost", rec.Salvage.GCPhaseRepaired, lost)
			}
		case "redo":
			if !rec.Salvage.RedoDiscarded || lost != 0 {
				return row, fmt.Errorf("redo salvage: discarded=%v lost=%d, want discarded with 0 lost", rec.Salvage.RedoDiscarded, lost)
			}
		case "region-top":
			if len(rec.Salvage.RegionsLost) == 0 || lost == 0 {
				return row, fmt.Errorf("region-top salvage: regions_lost=%v keys_lost=%d, want amputation", rec.Salvage.RegionsLost, lost)
			}
		}
		row.RecoveredExact = lost == 0

	case "quarantine":
		set, err := fx.openDegraded(store)
		if err != nil {
			return row, fmt.Errorf("degraded open: %w", err)
		}
		defer set.Close()
		row.Detected, row.Quarantined = true, true
		served, err := fx.verifyDegradedServing(set)
		if err != nil {
			return row, err
		}
		row.KeysServed = served
		if served != fx.healthy {
			return row, fmt.Errorf("served %d healthy keys, want %d", served, fx.healthy)
		}
		healed := set.RetryQuarantined()
		if len(healed) != 1 || healed[0] != 0 {
			return row, fmt.Errorf("RetryQuarantined healed %v, want [0] (cause %v)", healed, set.QuarantineCause(0))
		}
		row.Healed = true
		row.RetryFaults = in.Fired()
		if err := fx.verifyExact(set); err != nil {
			return row, fmt.Errorf("after heal: %w", err)
		}
		row.RecoveredExact = true

	case "fatal":
		row.Detected = true
		if set, err := fx.openDegraded(store); err == nil {
			set.Close()
			return row, fmt.Errorf("degraded open of a corrupt manifest succeeded; the manifest must stay load-bearing")
		}

	case "reopen":
		row.Detected, row.Quarantined = true, true
		err := nvm.CatchMedia(func() error {
			set, err := fx.openDegraded(store)
			if err == nil {
				set.Close()
			}
			return err
		})
		if err == nil {
			return row, fmt.Errorf("first open with a failing manifest read succeeded")
		}
		set, err := fx.openDegraded(store)
		if err != nil {
			return row, fmt.Errorf("reopen after the read-error budget drained: %w", err)
		}
		defer set.Close()
		row.Healed = true
		row.RetryFaults = in.Fired()
		if err := fx.verifyExact(set); err != nil {
			return row, fmt.Errorf("after reopen: %w", err)
		}
		row.RecoveredExact = true
	}
	return row, nil
}

// runFaultsBackoff is the end-to-end degraded-serving scenario: a
// transient read error (budget 2) quarantines shard 0 at open, healthy
// shards serve while the background loop retries with exponential
// backoff, and once the budget drains the shard reopens on its own —
// after which the set must equal the oracle exactly.
func (fx *faultsFixture) runFaultsBackoff() (FaultsRow, error) {
	row := FaultsRow{Series: "degraded", Op: "read-error-backoff", Expect: "quarantine",
		Detected: true, Quarantined: true}
	store, dev0, _, err := fx.makeStore(fx.manifest, fx.shards[0])
	if err != nil {
		return row, err
	}
	in := faultdev.Install(dev0, faultdev.Plan{Kind: faultdev.ReadError, Off: fx.gcPhaseOff, N: 8, Budget: 2})
	defer in.Remove()

	set, err := pshard.OpenSet(store, faultsBase, pshard.Options{
		Mode:      nvm.Tracked,
		Index:     faultsIndexOpts(),
		Degraded:  true,
		Telemetry: true,
		RetryBase: 50 * time.Millisecond,
		RetryCap:  200 * time.Millisecond,
	})
	if err != nil {
		return row, fmt.Errorf("degraded open: %w", err)
	}
	defer set.Close()
	if q := set.Quarantined(); len(q) != 1 || q[0] != 0 {
		return row, fmt.Errorf("quarantined shards %v at open, want [0]", q)
	}

	// Serve through the fence while the backoff clock runs: a sample of
	// healthy keys must answer exactly, and at least one shard-0 key must
	// bounce with ErrShardQuarantined (the first retry is ≥50ms away).
	ctx := set.NewCtx()
	bounced := false
	for k := range fx.shardOf {
		if fx.shardOf[k] == 0 {
			if _, _, err := ctx.Lookup(k); errors.Is(err, pshard.ErrShardQuarantined) {
				bounced = true
			}
			break
		}
	}
	served := 0
	for k, v := range fx.oracle {
		if fx.shardOf[k] == 0 {
			continue
		}
		got, ok, err := ctx.Lookup(k)
		if err != nil || !ok || got != v {
			ctx.Release()
			return row, fmt.Errorf("healthy key %d during quarantine: (%d,%v,%v), want %d", k, got, ok, err, v)
		}
		if served++; served >= 200 {
			break
		}
	}
	ctx.Release()
	row.KeysServed = served
	if !bounced {
		return row, fmt.Errorf("no shard-0 operation bounced with ErrShardQuarantined during the backoff window")
	}

	// The background loop heals it: open fails (budget 1), the first
	// retry fails (budget 2), the second succeeds.
	deadline := time.Now().Add(10 * time.Second)
	for len(set.Quarantined()) > 0 {
		if time.Now().After(deadline) {
			return row, fmt.Errorf("shard 0 still quarantined after 10s (cause %v, faults fired %d)", set.QuarantineCause(0), in.Fired())
		}
		time.Sleep(5 * time.Millisecond)
	}
	row.Healed = true
	row.RetryFaults = in.Fired()
	if err := fx.verifyExact(set); err != nil {
		return row, fmt.Errorf("after background heal: %w", err)
	}
	row.RecoveredExact = true
	if n := set.Telemetry().Snapshot().Counters["shard.quarantined"]; n < 1 {
		return row, fmt.Errorf("telemetry counter shard.quarantined = %d, want ≥ 1", n)
	}
	return row, nil
}

// runFaultsOverhead measures the fault hooks' cost contract: the kvmix
// workload, run once bare and once with faultdev.Passthrough armed on
// every shard device, must produce bit-identical device counters —
// installed-but-silent hooks are free, which is what makes leaving them
// compiled into the device affordable.
func runFaultsOverhead(s Scale) ([]FaultsRow, error) {
	pair, err := runContract(workloads["kvmix"], max(s.div(20000), 2000),
		func(h *pheap.Heap) error {
			faultdev.Passthrough(h.Device())
			return nil
		},
		func(bare, hooked *Row) error {
			if bare.raw != hooked.raw {
				return fmt.Errorf("fault hooks changed device counters: bare %+v, hooked %+v", bare.raw, hooked.raw)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	rows := make([]FaultsRow, 2)
	for i, op := range []string{"kvmix-nohooks", "kvmix-hooks"} {
		rows[i] = FaultsRow{
			Series:               "overhead",
			Op:                   op,
			Ops:                  pair[i].Ops,
			DevWritesPerOp:       pair[i].DevWrites,
			DevFlushedLinesPerOp: pair[i].FlushedLines,
			DevFencesPerOp:       pair[i].Fences,
			HooksIdentical:       true,
		}
	}
	return rows, nil
}

// Faults runs the full experiment: the 16-cell matrix, the
// degraded-serving backoff scenario, and the hook-overhead contract.
// Any contract violation is a hard error, so the run fails on the
// violation itself rather than on a drifted number.
func Faults(s Scale) ([]FaultsRow, error) {
	fx, err := buildFaultsFixture(s)
	if err != nil {
		return nil, err
	}
	var rows []FaultsRow
	for _, c := range faultsMatrix {
		row, err := fx.runMatrixCell(c)
		if err != nil {
			return nil, fmt.Errorf("faults %s/%s: %w", c.structure, c.kind, err)
		}
		rows = append(rows, row)
	}
	row, err := fx.runFaultsBackoff()
	if err != nil {
		return nil, fmt.Errorf("faults degraded scenario: %w", err)
	}
	rows = append(rows, row)
	ovh, err := runFaultsOverhead(s)
	if err != nil {
		return nil, fmt.Errorf("faults overhead: %w", err)
	}
	return append(rows, ovh...), nil
}

// WriteFaultImages dumps the faults fixture's deterministic golden and
// corrupted images into dir as .pjh files for heaptool's scrub exit-code
// test: a clean shard image and manifest (scrub exits 0),
// checksum-corrupted variants (exit 4), and an unreadable bad-magic
// variant (exit 3).
func WriteFaultImages(s Scale, dir string) error {
	fx, err := buildFaultsFixture(s)
	if err != nil {
		return err
	}
	redoTorn, err := fx.imgRedoPending(false)
	if err != nil {
		return err
	}
	faultdev.CorruptLineInImage(redoTorn, fx.redoOff, 99)
	flipped := func(img []byte, off int, bit uint) []byte {
		img = cloneImg(img)
		faultdev.FlipBitInImage(img, off, bit)
		return img
	}
	for name, img := range map[string][]byte{
		"shard-golden":            fx.shards[0],
		"shard-gcphase-bitflip":   flipped(fx.shards[0], fx.gcPhaseOff, 0),
		"shard-regiontop-bitflip": flipped(fx.shards[0], fx.topOff, 2),
		"shard-timestamp-bitflip": flipped(fx.shards[0], fx.globalTSOff, 1),
		"shard-redo-torn":         redoTorn,
		"shard-badmagic":          flipped(fx.shards[0], 0, 7),
		"manifest-golden":         fx.manifest,
		"manifest-bitflip":        flipped(fx.manifest, pshard.ManifestBoundsOff+8, 4),
	} {
		dev := nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked})
		if err := dev.Save(filepath.Join(dir, name+".pjh")); err != nil {
			return err
		}
	}
	return nil
}
