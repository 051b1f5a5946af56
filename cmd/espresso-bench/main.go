// Command espresso-bench regenerates the paper's tables and figures and
// the deterministic device-cost contracts (docs/benchmarks.md has the
// experiment index):
//
//	espresso-bench -exp fig4     JPA commit breakdown
//	espresso-bench -exp fig6     PCJ create breakdown
//	espresso-bench -exp fig17    BasicTest time breakdown
//	espresso-bench -exp gcflush  recoverable-GC flush overhead (§6.4)
//	espresso-bench -exp fig15    PJH vs PCJ microbenchmarks: device ops per op on both sides, and the clock
//	espresso-bench -exp fig16    JPAB on H2-JPA vs H2-PJO: device ops and Go allocations per op, and the clock
//	espresso-bench -exp fig18    heap loading (UG vs zeroing): device reads per load, and the clock
//	espresso-bench -exp fastpath resolved-handle / bulk-I/O / flush-coalescing costs
//	espresso-bench -exp ptx      Figure 15's Espresso side in device ops: heap transactions and the pcollections on them
//	espresso-bench -exp alloc    PLAB allocation scaling curve
//	espresso-bench -exp gcpause  STW vs concurrent-marking GC pause times
//	espresso-bench -exp kv       durable lock-free index (pindex) scaling curve
//	espresso-bench -exp refstore write-combining ref-store barrier scaling curve
//	espresso-bench -exp shardedkv range-partitioned sharding (pshard): throughput + parallel recovery
//	espresso-bench -exp all      everything
//
// fig15 through shardedkv are the device-op contract: each runs from the
// table in internal/experiments (experiments.Contracts) at the parameters
// its committed BENCH_<name>.json was generated with, so
//
//	espresso-bench -exp <name> -json BENCH_<name>.json
//
// regenerates a baseline and `go test -run TestDeviceOpContract
// ./internal/experiments` compares against it. -scale N divides workload
// sizes by N for quick runs; -parallel N tops the alloc/kv/refstore
// mutator curves and sets the gcpause and shardedkv mutator count;
// -shards tops the shardedkv shard curve and -recoverykeys sizes its
// restart population — each left at 0 keeps a contract experiment's
// pinned value (and fig4, fig6 and fig17 at paper scale). -json FILE
// writes the experiment's rows as JSON — the counts; the wall-clock columns
// of the three contract figures are printed only — and with -exp all one
// object keyed by experiment name.
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
	scale := flag.Int("scale", 0, "divide workload sizes by this factor (0: the experiment's pinned value)")
	gcMB := flag.Int("gcmb", 256, "live megabytes for the gcflush experiment")
	parallel := flag.Int("parallel", 0, "top of the alloc/kv/refstore goroutine curves / gcpause and shardedkv mutator count (0: pinned)")
	shards := flag.Int("shards", 0, "top of the shardedkv shard curve (0: pinned)")
	recoveryKeys := flag.Int("recoverykeys", 0, "committed keys in the shardedkv restart series (0: pinned)")
	jsonPath := flag.String("json", "", "write the experiment's rows to this JSON file")
	flag.Parse()

	s := experiments.Scale(*scale)
	exps := []experiment{
		{"fig4", func(w io.Writer) (any, error) { return nil, experiments.Fig4(w, s) }},
		{"fig6", func(w io.Writer) (any, error) { return nil, experiments.Fig6(w, s) }},
		{"fig17", func(w io.Writer) (any, error) { return nil, experiments.Fig17(w, s) }},
		{"gcflush", func(w io.Writer) (any, error) {
			r, err := experiments.GCFlushCost(*gcMB << 20)
			if err == nil {
				experiments.PrintGCFlush(w, r)
			}
			return r, err
		}},
	}
	for _, c := range experiments.Contracts {
		p := c.Pinned
		if *scale > 0 {
			p.Scale = s
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
		exps = append(exps, experiment{c.Name, func(w io.Writer) (any, error) { return c.Run(w, p) }})
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
