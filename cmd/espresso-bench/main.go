// Command espresso-bench regenerates the paper's tables and figures and
// the deterministic device-cost contracts (docs/benchmarks.md has the
// experiment index):
//
//	espresso-bench -exp fig4     JPA commit breakdown
//	espresso-bench -exp fig6     PCJ create breakdown
//	espresso-bench -exp fig15    PJH vs PCJ microbenchmarks
//	espresso-bench -exp fig16    JPAB throughput, H2-JPA vs H2-PJO
//	espresso-bench -exp fig17    BasicTest time breakdown
//	espresso-bench -exp fig18    heap loading time (UG vs zeroing)
//	espresso-bench -exp gcflush  recoverable-GC flush overhead (§6.4)
//	espresso-bench -exp fastpath resolved-handle / bulk-I/O / flush-coalescing costs
//	espresso-bench -exp alloc    PLAB allocation scaling curve
//	espresso-bench -exp gcpause  STW vs concurrent-marking GC pause times
//	espresso-bench -exp kv       durable lock-free index (pindex) scaling curve
//	espresso-bench -exp refstore write-combining ref-store barrier scaling curve
//	espresso-bench -exp shardedkv range-partitioned sharding (pshard): throughput + parallel recovery
//	espresso-bench -exp telemetry telemetry overhead contract: device ops off vs on + GC span timeline
//	espresso-bench -exp blackbox flight recorder: crash sweep at every flush boundary + recorder overhead
//	espresso-bench -exp faults   media-fault matrix: fault kind × metadata structure vs a DRAM oracle
//	espresso-bench -exp all      everything
//
// -scale N divides workload sizes by N for quick runs. -parallel N tops
// the alloc/kv/refstore mutator curves and sets the gcpause and
// shardedkv mutator count. -shards tops the shardedkv shard curve and
// -recoverykeys sizes its restart population. -json FILE writes the
// experiment's rows as JSON (the BENCH_*.json baselines that CI's bench
// gate compares against); with -exp all it writes one object keyed by
// experiment name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"espresso/internal/experiments"
)

// experiment is one -exp entry: run prints its report to w and returns
// the rows -json writes (nil for the print-only breakdowns).
type experiment struct {
	name string
	run  func(w io.Writer) (rows any, err error)
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (see the command doc), or all")
	scale := flag.Int("scale", 1, "divide workload sizes by this factor")
	gcMB := flag.Int("gcmb", 256, "live megabytes for the gcflush experiment")
	parallel := flag.Int("parallel", 8, "top of the alloc/kv/refstore goroutine curves / gcpause and shardedkv mutator count")
	shards := flag.Int("shards", 4, "top of the shardedkv shard curve")
	recoveryKeys := flag.Int("recoverykeys", 1000000, "committed keys in the shardedkv restart series")
	jsonPath := flag.String("json", "", "write the experiment's rows to this JSON file")
	snapPath := flag.String("snapshotjson", "", "write the telemetry experiment's folded metrics snapshot to this JSON file")
	timelinePath := flag.String("timelinejson", "", "write the blackbox experiment's decoded journal timeline to this JSON file")
	faultDir := flag.String("faultdir", "", "faults experiment: also dump golden + corrupted images here for heaptool scrub checks")
	flag.Parse()

	s := experiments.Scale(*scale)
	// table is an experiment whose whole report is its rows.
	table := func(name, title string, run func() (any, error)) experiment {
		return experiment{name, func(w io.Writer) (any, error) {
			rows, err := run()
			if err == nil {
				experiments.PrintRows(w, title, rows)
			}
			return rows, err
		}}
	}
	scaling := func(name, title string) experiment {
		return table(name, title, func() (any, error) { return experiments.Scaling(name, s, *shards, *parallel) })
	}
	exps := []experiment{
		{"fig4", func(w io.Writer) (any, error) { return nil, experiments.Fig4(w, s) }},
		{"fig6", func(w io.Writer) (any, error) { return nil, experiments.Fig6(w, s) }},
		{"fig15", func(w io.Writer) (any, error) {
			rows, err := experiments.Fig15(s)
			if err == nil {
				experiments.PrintFig15(w, rows)
			}
			return rows, err
		}},
		{"fig16", func(w io.Writer) (any, error) {
			rows, err := experiments.Fig16(s)
			if err == nil {
				experiments.PrintFig16(w, rows)
			}
			return rows, err
		}},
		{"fig17", func(w io.Writer) (any, error) { return nil, experiments.Fig17(w, s) }},
		{"fig18", func(w io.Writer) (any, error) {
			points, err := experiments.Fig18(s)
			if err == nil {
				experiments.PrintFig18(w, points)
			}
			return points, err
		}},
		{"gcflush", func(w io.Writer) (any, error) {
			r, err := experiments.GCFlushCost(*gcMB << 20)
			if err == nil {
				experiments.PrintGCFlush(w, r)
			}
			return r, err
		}},
		table("fastpath", "Fast path — resolved handles, bulk I/O, coalesced flushes (per op)",
			func() (any, error) { return experiments.Fastpath(s) }),
		scaling("alloc", "Allocation scaling — one PLAB (region-local allocation buffer) per mutator"),
		table("gcpause", "GC pause — stop-the-world vs concurrent SATB marking vs parallel workers (ns)",
			func() (any, error) { return experiments.GCPause(s, *parallel) }),
		scaling("kv", "KV index scaling — durable lock-free persistent hash map (internal/pindex)"),
		scaling("refstore", "Ref-store scaling — write-combining remset barrier (per-mutator delta buffers)"),
		{"shardedkv", func(w io.Writer) (any, error) {
			rows, err := experiments.Scaling("shardedkv", s, *shards, *parallel)
			if err != nil {
				return nil, err
			}
			// The restart series is deliberately not divided by -scale: the
			// recovery-speedup claim is about a population large enough that
			// per-shard replay dominates fixed open cost (CI runs 1M keys).
			recovery, err := experiments.ShardedRecovery(*shards, *recoveryKeys, []int{1, 2, 4})
			if err != nil {
				return nil, err
			}
			experiments.PrintRows(w, "Sharded KV scaling — range-partitioned multi-heap sharding (internal/pshard)", rows)
			experiments.PrintRows(w, "Sharded parallel recovery — restart time vs recovery workers", recovery)
			// One array, both series: BENCH_shardedkv.json gates them together.
			all := make([]any, 0, len(rows)+len(recovery))
			for _, r := range rows {
				all = append(all, r)
			}
			for _, r := range recovery {
				all = append(all, r)
			}
			return all, nil
		}},
		{"telemetry", func(w io.Writer) (any, error) {
			rows, report, err := experiments.TelemetryOverhead(s)
			if err != nil {
				return nil, err
			}
			experiments.PrintRows(w, "Telemetry overhead — device ops per op must be identical off vs on", rows)
			report.Print(w)
			return rows, writeJSON(w, *snapPath, report.Snapshot)
		}},
		{"blackbox", func(w io.Writer) (any, error) {
			rows, report, err := experiments.Blackbox(s)
			// The decoded timeline is the failure evidence — write it even
			// (especially) when the sweep or a gate fails; a failure to
			// write it is secondary to the experiment's own result.
			if werr := writeJSON(w, *timelinePath, report); werr != nil {
				fmt.Fprintf(os.Stderr, "espresso-bench: writing timeline: %v\n", werr)
			}
			if err != nil {
				return nil, err
			}
			experiments.PrintRows(w, "Flight recorder overhead — fences/reads identical off vs on; writes/lines +1 per event", rows)
			report.Print(w)
			return rows, nil
		}},
		table("faults", "Media-fault matrix, degraded serving, and fault-hook overhead",
			func() (any, error) { return experiments.Faults(s, *faultDir) }),
	}

	w := os.Stdout
	results := map[string]any{}
	for _, e := range exps {
		if *exp != "all" && *exp != e.name {
			continue
		}
		fmt.Fprintf(w, "\n=== %s ===\n", e.name)
		rows, err := e.run(w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		results[e.name] = rows
	}
	if len(results) == 0 {
		names := make([]string, len(exps))
		for i, e := range exps {
			names[i] = e.name
		}
		fmt.Fprintf(os.Stderr, "espresso-bench: unknown experiment %q (want %s, or all)\n", *exp, strings.Join(names, ", "))
		os.Exit(2)
	}
	var out any = results
	if *exp != "all" {
		out = results[*exp]
	}
	if err := writeJSON(w, *jsonPath, out); err != nil {
		fmt.Fprintln(os.Stderr, "espresso-bench:", err)
		os.Exit(1)
	}
}

// writeJSON writes v, indented, to path (no-op when path is unset).
func writeJSON(w io.Writer, path string, v any) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}
