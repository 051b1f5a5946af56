package experiments

import (
	"fmt"
	"slices"
	"sort"

	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pindex"
	"espresso/internal/pshard"
)

// The shardedkv experiment measures range-partitioned multi-heap
// sharding (internal/pshard) on two axes the single-heap kv experiment
// cannot move: throughput (the "shardedkv" workload's scaling curve,
// workloads.go) and restart, below — a committed population is
// power-cut and reopened with 1, 2, and 4 recovery workers. The build is
// single-goroutine, so the shard images — and therefore each shard's
// recovery device traffic — are deterministic; the modeled restart time
// assigns per-shard recovery costs (nvm.Stats.ModeledTime: reads and
// flushed repair lines) to workers LPT-greedily and reports the slowest
// worker. The claim: ≥2x modeled recovery speedup at 4 workers over
// serial. benchmark/'s restart passes are where recovery meets a clock.

// ShardedRecoveryRow is one recovery-worker-count restart measurement.
type ShardedRecoveryRow struct {
	Series          string  `json:"series"` // "recovery"
	Shards          int     `json:"shards"`
	Workers         int     `json:"workers"`
	RecoveryKeys    int     `json:"recovery_keys"`
	ModeledNs       float64 `json:"modeled_recovery_ns"`
	RecoverySpeedup float64 `json:"recovery_speedup_vs_serial"`
	DevReadsPerKey  float64 `json:"dev_reads_per_key"`
	DevLinesPerKey  float64 `json:"dev_flushed_lines_per_key"`
	// SpeedupFloor is the parallel-recovery claim, on the 4-worker row.
	SpeedupFloor float64 `json:"recovery_speedup_vs_serial_floor,omitempty"`
}

// ShardedRecovery builds one committed population, power-cuts it, and
// reopens it with each worker count. The build runs on a single
// goroutine so every shard image — and therefore every per-shard
// recovery cost — is deterministic, and the contract test holds every
// column to its baseline exactly.
func ShardedRecovery(shards, keys int, workerCounts []int) ([]ShardedRecoveryRow, error) {
	if shards < 1 {
		shards = 1
	}
	if keys < shards {
		keys = shards
	}
	store := pshard.NewMemStore()
	set, err := pshard.OpenSet(store, "restart", pshard.Options{
		Shards:        shards,
		ShardDataSize: keys*96/shards + 34*layout.RegionSize,
		Index: pindex.Options{
			InitialBuckets: 4096,
			MaxLoadFactor:  64,
		},
		Mode: nvm.Tracked,
	})
	if err != nil {
		return nil, err
	}
	c := set.NewCtx()
	for k := 0; k < keys; k++ {
		if err := c.Put(int64(k), int64(k)*7); err != nil {
			return nil, fmt.Errorf("shardedkv recovery build: %w", err)
		}
	}
	c.Release()

	imgs := make(map[string][]byte)
	names := []string{pshard.ManifestName("restart")}
	for i := 0; i < shards; i++ {
		names = append(names, pshard.ShardHeapName("restart", i))
	}
	for _, name := range names {
		dev, err := store.Open(name)
		if err != nil {
			return nil, err
		}
		imgs[name] = dev.CrashImage(nvm.CrashFlushedOnly, 0)
	}

	var rows []ShardedRecoveryRow
	var serial float64
	for _, workers := range workerCounts {
		re := pshard.NewMemStore()
		for name, img := range imgs {
			cp := make([]byte, len(img))
			copy(cp, img)
			if err := re.Register(name, nvm.FromImage(cp, nvm.Config{Mode: nvm.Tracked})); err != nil {
				return nil, err
			}
		}
		rset, err := pshard.OpenSet(re, "restart", pshard.Options{
			Mode:            nvm.Tracked,
			RecoveryWorkers: workers,
		})
		if err != nil {
			return nil, fmt.Errorf("shardedkv recovery (workers=%d): %w", workers, err)
		}
		if got := rset.Len(); got != keys {
			return nil, fmt.Errorf("shardedkv recovery (workers=%d): recovered %d keys, want %d", workers, got, keys)
		}
		costs := make([]float64, shards)
		var reads, lines int64
		for i := 0; i < shards; i++ {
			rec := rset.Shard(i).Recovery()
			costs[i] = statNs(rec.Dev)
			reads += int64(rec.Dev.Reads)
			lines += int64(rec.Dev.FlushedLines)
		}
		modeled := lptMakespan(costs, workers)
		if workers <= 1 {
			serial = modeled
		}
		row := ShardedRecoveryRow{
			Series:         "recovery",
			Shards:         shards,
			Workers:        workers,
			RecoveryKeys:   keys,
			ModeledNs:      modeled,
			DevReadsPerKey: float64(reads) / float64(keys),
			DevLinesPerKey: float64(lines) / float64(keys),
		}
		if serial > 0 && modeled > 0 {
			row.RecoverySpeedup = serial / modeled
		}
		if workers == 4 {
			row.SpeedupFloor = 2
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// lptMakespan assigns costs to workers longest-processing-time-first
// (each cost to the least-loaded worker, costs descending) and returns
// the makespan — the slowest worker's total.
func lptMakespan(costs []float64, workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	if workers > len(costs) {
		workers = len(costs)
	}
	sorted := append([]float64(nil), costs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	loads := make([]float64, workers)
	for _, c := range sorted {
		least := 0
		for i := range loads {
			if loads[i] < loads[least] {
				least = i
			}
		}
		loads[least] += c
	}
	return slices.Max(loads)
}
