// Command benchgate compares a fresh espresso-bench JSON dump against a
// committed baseline and fails (exit 1) on regressions — CI's enforcement
// arm for the device-cost contracts.
//
//	benchgate -baseline BENCH_fastpath.json -current out.json [-tol 0.10]
//
// Rows are matched by their identity fields (op, or series+goroutines);
// a baseline row missing from the current run fails, and so does a
// current row nobody baselined — a new series must not ride ungated.
// Every numeric baseline field must be present in the current row, and
// four classes of field are bounded (docs/benchmarks.md):
//
//   - device costs (dev_*, flushed_lines_per_op, fences_per_op,
//     modeled_ns_per_op): the current value may not exceed
//     baseline×(1+tol) plus a small absolute slack;
//   - modeled_speedup_vs_1: may not drop below baseline×(1−tol);
//   - X_ceiling: the baseline value is a literal upper bound on the
//     current row's X — a pause budget is a promise ("remark +
//     compaction fit in N ms"), not a drift check;
//   - X_floor: the mirror image, a literal lower bound on X — a scaling
//     claim ("≥3x at 8 mutators") whose measured value depends on
//     goroutine scheduling, so a baseline-relative bound would flake
//     where the claim still holds. The experiment emits the field on the
//     row that carries the claim.
//
// Wall-clock fields (ns_per_op, wall_*) are reported but never gated: CI
// runners make them noise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

type row = map[string]any

func load(path string) ([]row, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []row
	if err := json.Unmarshal(b, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

// key builds the row identity from its op and series plus the shard,
// goroutine, mutator, and GC/recovery-worker counts, covering the
// fastpath ({op}), scaling ({series, [shards,] goroutines}), contract
// ({op, series}), gcpause ({series, mutators, workers}), and recovery
// ({series, shards, workers}) schemas.
func key(r row) string {
	var parts []string
	for _, f := range []string{"op", "series", "shards", "goroutines", "mutators", "workers"} {
		if v, ok := r[f]; ok {
			parts = append(parts, fmt.Sprint(v))
		}
	}
	return strings.Join(parts, "/")
}

func isGatedUpper(field string) bool {
	return strings.HasPrefix(field, "dev_") ||
		field == "flushed_lines_per_op" ||
		field == "fences_per_op" ||
		field == "modeled_ns_per_op"
}

const absSlack = 0.05 // forgives rounding on near-zero counts

// gate returns one line per violated bound.
func gate(baseRows, curRows []row, tol float64) []string {
	var failures []string
	fail := func(k, format string, args ...any) {
		failures = append(failures, fmt.Sprintf("%-24s ", k)+fmt.Sprintf(format, args...))
	}
	current := map[string]row{}
	for _, r := range curRows {
		current[key(r)] = r
	}
	for _, base := range baseRows {
		k := key(base)
		cur, ok := current[k]
		if !ok {
			fail(k, "row missing from current run")
			continue
		}
		delete(current, k)
		for field, bv := range base {
			b, isNum := bv.(float64)
			if !isNum {
				continue
			}
			target, ceiling := strings.CutSuffix(field, "_ceiling")
			if !ceiling {
				target, _ = strings.CutSuffix(field, "_floor")
			}
			c, ok := cur[target].(float64)
			switch {
			case !ok:
				fail(k, "%s missing", target)
			case ceiling:
				if c > b {
					fail(k, "%-22s %.2f > ceiling %.2f", target, c, b)
				}
			case target != field:
				if c < b {
					fail(k, "%-22s %.2f < floor %.2f", target, c, b)
				}
			case isGatedUpper(field):
				if limit := b*(1+tol) + absSlack; c > limit {
					fail(k, "%-22s %.3f > %.3f (baseline %.3f +%d%%)", field, c, limit, b, int(tol*100))
				}
			case field == "modeled_speedup_vs_1":
				if floor := b * (1 - tol); c < floor {
					fail(k, "%-22s %.2f < %.2f (baseline %.2f -%d%%)", field, c, floor, b, int(tol*100))
				}
			}
		}
	}
	for _, r := range curRows {
		if k := key(r); current[k] != nil {
			fail(k, "row has no baseline (regenerate the baseline to gate it)")
		}
	}
	return failures
}

func main() {
	basePath := flag.String("baseline", "", "committed baseline JSON")
	curPath := flag.String("current", "", "freshly measured JSON")
	tol := flag.Float64("tol", 0.10, "relative tolerance")
	flag.Parse()
	if *basePath == "" || *curPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline and -current are required")
		os.Exit(2)
	}
	baseRows, err := load(*basePath)
	if err != nil {
		fatal(err)
	}
	curRows, err := load(*curPath)
	if err != nil {
		fatal(err)
	}
	if failures := gate(baseRows, curRows, *tol); len(failures) > 0 {
		for _, f := range failures {
			fmt.Println("FAIL", f)
		}
		fmt.Printf("benchgate: %d regression(s) vs %s\n", len(failures), *basePath)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d rows within %.0f%% of %s\n", len(baseRows), *tol*100, *basePath)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
