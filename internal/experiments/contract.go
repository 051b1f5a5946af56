package experiments

import "io"

// The device-op contract: thirteen experiments whose rows are committed as
// BENCH_<name>.json at the repository root. Contracts is the one table
// that pins each experiment's parameters; TestDeviceOpContract runs every
// entry at them and compares the rows with the committed file, and
//
//	go run ./cmd/espresso-bench -exp <name> -json BENCH_<name>.json
//
// runs the same entry to regenerate the file when a change moves a count
// on purpose. A row is in one of two classes:
//
//   - exact (the default): the row is a pure function of the code — one
//     mutator, a quiescent collection, a replayed image — and every field
//     must equal the baseline's, bit for bit. Any drift is a baseline
//     diff reviewed in the same change.
//   - scheduled: the row runs several goroutines over shared structures
//     and its device counts depend on who got there first. The fields
//     listed for it are not compared; what is held instead are the row's
//     claims — every X_floor / X_ceiling the baseline carries bounds the
//     fresh X — and every field not listed, exactly.
//
// Bounds are read from the baseline, so weakening a claim is a reviewed
// diff of a BENCH file too.

// Params are the knobs an experiment takes; zero fields are knobs it
// does not have.
type Params struct {
	Scale        Scale // divides workload sizes
	Mutators     int   // top of a mutator curve / the mutator count
	Shards       int   // top of the shard curve
	RecoveryKeys int   // committed keys of the restart series
}

// Contract is one experiment of the device-op contract.
type Contract struct {
	Name   string
	Pinned Params // what the committed baseline was generated with
	// Run executes the experiment, renders its tables and self-check
	// summaries to w, and returns the rows the baseline holds.
	Run func(w io.Writer, p Params) (rows any, err error)
	// scheduled names the rows of the second class by row key (the
	// identity fields joined with "/").
	scheduled map[string]scheduled
	// unheld lists fields that are not compared on any row: counts that are
	// exact on one Go release and move with the next. The baseline's
	// _floor / _ceiling claims still bound them.
	unheld []string
}

// scheduled describes one scheduling-dependent row.
type scheduled struct {
	fields []string // not compared with the baseline
	// cores, when set, is how many goroutines must really run at once
	// for the row's floors to mean anything; with fewer schedulable cores
	// (GOMAXPROCS) they are reported, not held.
	cores int
}

// What goroutine scheduling moves on a multi-mutator index row: which
// ctx splices the lazily created bucket sentinels and who helps whose
// dirty link decide every per-op count and the slowest chain.
var (
	shardedRowFields = []string{"modeled_ns_per_op", "modeled_speedup_vs_1",
		"dev_reads_per_op", "dev_writes_per_op", "flushed_lines_per_op", "fences_per_op"}
	kvRowFields = append([]string{"help_flushes"}, shardedRowFields...)
)

// rowsOf adapts an experiment whose whole report is one table.
func rowsOf[R any](w io.Writer, title string, rows []R, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	PrintRows(w, title, rows)
	return rows, nil
}

// table runs an experiment whose only knob is Scale and whose whole
// report is one table.
func table[R any](title string, run func(Scale) ([]R, error)) func(io.Writer, Params) (any, error) {
	return func(w io.Writer, p Params) (any, error) {
		rows, err := run(p.Scale)
		return rowsOf(w, title, rows, err)
	}
}

func scalingRun(name, title string) func(io.Writer, Params) (any, error) {
	return func(w io.Writer, p Params) (any, error) {
		rows, err := Scaling(name, p.Scale, p.Shards, p.Mutators)
		return rowsOf(w, title, rows, err)
	}
}

// Contracts is the table, in espresso-bench's -exp all order.
var Contracts = []Contract{
	{Name: "fig6", Pinned: Params{Scale: 100},
		Run: table("Figure 6 — PCJ create by phase, per PersistentLong object (paper: Metadata 36.8%, GC 14.8%, Data 1.8% of a create)", Fig6)},
	{Name: "fig15", Pinned: Params{Scale: 100},
		Run: table("Figure 15 — PJH vs PCJ, ACID on both sides, per op (paper: speedups from 6.0x on gets up to 256.3x on tuple sets)", Fig15)},
	{Name: "fig16", Pinned: Params{Scale: 1}, unheld: fig16AllocFields,
		Run: table("Figure 16 — JPAB on H2-JPA vs H2-PJO, per op (paper: H2-PJO wins every cell on the clock, up to 3.24x)", Fig16)},
	{Name: "fig17", Pinned: Params{Scale: 1}, unheld: fig17AllocFields,
		Run: table("Figures 4 and 17 — BasicTest Go allocations per op by phase, H2-JPA vs H2-PJO (paper: transformation is 41.9% of a JPA persist; PJO removes nearly all of it)", Fig17)},
	{Name: "fig18", Pinned: Params{Scale: 20},
		Run: table("Figure 18 — heap loading vs object count (paper: UG flat; Zero linear, ~72.76 ms at 2M objects)", Fig18)},
	{Name: "gcflush", Pinned: Params{Scale: 64},
		Run: table("§6.4 — one crash-consistent collection: device ops, and the pause with and without clflush (paper: +17.8%)", GCFlush)},
	{Name: "fastpath", Pinned: Params{Scale: 10},
		Run: table("Fast path — resolved handles, bulk I/O, coalesced flushes (per op)", Fastpath)},
	{Name: "ptx", Pinned: Params{Scale: 1},
		Run: table("ptx — what a heap transaction and the pcollections built on it cost the device (per op)", PtxCost)},
	{Name: "alloc", Pinned: Params{Scale: 10, Mutators: 8},
		Run: scalingRun("alloc", "Allocation scaling — one PLAB (region-local allocation buffer) per mutator")},
	{Name: "gcpause", Pinned: Params{Scale: 1, Mutators: 8},
		Run: func(w io.Writer, p Params) (any, error) {
			rows, err := GCPause(p.Scale, p.Mutators)
			return rowsOf(w, "GC pause — stop-the-world, and its mark on parallel workers (modeled ns)", rows, err)
		},
		scheduled: map[string]scheduled{
			// The cycle's device totals are exact; how the mark workers
			// split them is work stealing, and the ≥2x critical-path claim
			// needs the four workers on four cores.
			"parallel/8/4": {fields: []string{"modeled_critical_path_ns", "modeled_parallel_speedup"}, cores: 4},
		}},
	{Name: "kv", Pinned: Params{Scale: 10, Mutators: 8},
		Run: scalingRun("kv", "KV index scaling — durable lock-free persistent hash map (internal/pindex)"),
		scheduled: map[string]scheduled{
			"pindex/2": {fields: kvRowFields}, "pindex/4": {fields: kvRowFields}, "pindex/8": {fields: kvRowFields},
		}},
	{Name: "refstore", Pinned: Params{Scale: 10, Mutators: 8},
		Run: scalingRun("refstore", "Ref-store scaling — reference-store barrier (a volatile store remembers its slot)")},
	{Name: "shardedkv", Pinned: Params{Scale: 10, Shards: 4, Mutators: 2, RecoveryKeys: 1000000},
		Run: func(w io.Writer, p Params) (any, error) {
			rows, err := Scaling("shardedkv", p.Scale, p.Shards, p.Mutators)
			if err != nil {
				return nil, err
			}
			// The restart series is deliberately not divided by Scale: the
			// recovery-speedup claim is about a population large enough that
			// per-shard replay dominates fixed open cost.
			recovery, err := ShardedRecovery(p.Shards, p.RecoveryKeys, []int{1, 2, 4})
			if err != nil {
				return nil, err
			}
			PrintRows(w, "Sharded KV scaling — range-partitioned multi-heap sharding (internal/pshard)", rows)
			PrintRows(w, "Sharded parallel recovery — restart time vs recovery workers", recovery)
			// One array, both series: BENCH_shardedkv.json holds them together.
			all := make([]any, 0, len(rows)+len(recovery))
			for _, r := range rows {
				all = append(all, r)
			}
			for _, r := range recovery {
				all = append(all, r)
			}
			return all, nil
		},
		scheduled: map[string]scheduled{
			"sharded/1/2": {fields: shardedRowFields}, "sharded/2/2": {fields: shardedRowFields},
			"sharded/4/2": {fields: shardedRowFields},
		}},
}
