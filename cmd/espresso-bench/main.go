// Command espresso-bench runs the experiments of the device-op contract
// (experiments.Contracts; docs/benchmarks.md has the index). Its tables
// are counts. A row's time is BenchmarkContract's (go test -bench
// Contract ./internal/experiments), which runs the body the count comes
// from.
//
//	espresso-bench -exp fig6      PCJ create by phase: device ops per object
//	espresso-bench -exp fig15     PJH vs PCJ microbenchmarks: device ops per op on both sides
//	espresso-bench -exp fig16     JPAB on H2-JPA vs H2-PJO: device ops and Go allocations per op
//	espresso-bench -exp fig17     BasicTest Go allocations per op by phase, both providers (Figures 4 and 17)
//	espresso-bench -exp fig18     heap loading (UG vs zeroing): device reads per load
//	espresso-bench -exp gcflush   one recoverable-GC collection (§6.4): device ops
//	espresso-bench -exp fastpath  resolved-handle / bulk-I/O / flush-coalescing costs
//	espresso-bench -exp ptx       Figure 15's Espresso side in device ops: heap transactions and the pcollections on them
//	espresso-bench -exp alloc     PLAB allocation scaling curve
//	espresso-bench -exp gcpause   stop-the-world GC pause and its mark on parallel workers, modeled from device ops
//	espresso-bench -exp kv        durable lock-free index (pindex) scaling curve
//	espresso-bench -exp refstore  ref-store barrier scaling curve
//	espresso-bench -exp shardedkv range-partitioned sharding (pshard): throughput + parallel recovery
//	espresso-bench -exp all       everything, in that order
//
// Each runs at the parameters its committed BENCH_<name>.json was
// generated with, so
//
//	espresso-bench -exp <name> -json BENCH_<name>.json
//
// regenerates a baseline and `go test -run TestDeviceOpContract
// ./internal/experiments` compares against it. -scale N divides workload
// sizes by N for quick runs; -parallel N tops the alloc/kv/refstore
// mutator curves and sets the gcpause and shardedkv mutator count;
// -shards tops the shardedkv shard curve and -recoverykeys sizes its
// restart population — each left at 0 keeps the pinned value. -json FILE
// writes the experiment's rows, the table's counts, as JSON, and with
// -exp all one object keyed by experiment name. An unknown -exp exits 2
// with the valid names.
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

func main() {
	exp := flag.String("exp", "all", "experiment to run (see the command doc), or all")
	scale := flag.Int("scale", 0, "divide workload sizes by this factor (0: the experiment's pinned value)")
	parallel := flag.Int("parallel", 0, "top of the alloc/kv/refstore goroutine curves / gcpause and shardedkv mutator count (0: pinned)")
	shards := flag.Int("shards", 0, "top of the shardedkv shard curve (0: pinned)")
	recoveryKeys := flag.Int("recoverykeys", 0, "committed keys in the shardedkv restart series (0: pinned)")
	jsonPath := flag.String("json", "", "write the experiment's rows to this JSON file")
	flag.Parse()

	w := os.Stdout
	results := map[string]any{}
	for _, c := range experiments.Contracts {
		if *exp != "all" && *exp != c.Name {
			continue
		}
		p := c.Pinned
		if *scale > 0 {
			p.Scale = experiments.Scale(*scale)
		}
		if *parallel > 0 {
			p.Mutators = *parallel
		}
		if *shards > 0 {
			p.Shards = *shards
		}
		if *recoveryKeys > 0 {
			p.RecoveryKeys = *recoveryKeys
		}
		fmt.Fprintf(w, "\n=== %s ===\n", c.Name)
		rows, err := c.Run(w, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", c.Name, err)
			os.Exit(1)
		}
		results[c.Name] = rows
	}
	if len(results) == 0 {
		names := make([]string, len(experiments.Contracts))
		for i, c := range experiments.Contracts {
			names[i] = c.Name
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
