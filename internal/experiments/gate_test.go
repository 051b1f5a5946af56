package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The gate over contract.go's table.

type jsonRow = map[string]any

// rowKey is a row's identity: its op and series plus the shard,
// goroutine, mutator, GC/recovery-worker and object counts — the fastpath
// ({op}), scaling ({series, [shards,] goroutines}), contract and figure
// ({op, series}), gcpause ({series, mutators, [workers]}), recovery
// ({series, shards, workers}) and fig18 ({series, objects}) schemas.
func rowKey(r jsonRow) string {
	var parts []string
	for _, f := range []string{"op", "series", "shards", "goroutines", "mutators", "workers", "objects"} {
		if v, ok := r[f]; ok {
			parts = append(parts, fmt.Sprint(v))
		}
	}
	return strings.Join(parts, "/")
}

// compare holds fresh rows to the baseline by the two classes of
// contract.go, with `cores` schedulable cores, and returns one line per
// violation: experiment, row key, field, got and want.
func (c *Contract) compare(baseline, fresh []jsonRow, cores int) (failures, notes []string) {
	fail := func(key, format string, args ...any) {
		failures = append(failures, fmt.Sprintf("%s %s ", c.Name, key)+fmt.Sprintf(format, args...))
	}
	got := map[string]jsonRow{}
	for _, r := range fresh {
		got[rowKey(r)] = r
	}
	inBaseline := map[string]bool{}
	for _, want := range baseline {
		key := rowKey(want)
		inBaseline[key] = true
		have, ok := got[key]
		if !ok {
			fail(key, "row missing from the run")
			continue
		}
		delete(got, key)
		sched := c.scheduled[key]
		for _, f := range sortedFields(have) {
			if _, ok := want[f]; !ok {
				fail(key, "%s: got %v, not in the baseline (regenerate it)", f, have[f])
			}
		}
		for _, f := range sortedFields(want) {
			w := want[f]
			if h, ok := have[f]; !ok {
				fail(key, "%s: missing from the run, want %v", f, w)
			} else if !slices.Contains(sched.fields, f) && !slices.Contains(c.unheld, f) && h != w {
				fail(key, "%s: got %v, want %v", f, h, w)
			}
			// A claim bounds the fresh value of the field it is named after.
			target, isCeiling := strings.CutSuffix(f, "_ceiling")
			target, isFloor := strings.CutSuffix(target, "_floor")
			bound, isNum := w.(float64)
			if !(isCeiling || isFloor) || !isNum {
				continue
			}
			v, ok := have[target].(float64)
			switch {
			case !ok:
				fail(key, "%s: missing from the run, bounded by %s %v", target, f, bound)
			case isFloor && sched.cores > cores:
				notes = append(notes, fmt.Sprintf("%s %s %s: %v, floor %v not held with %d of %d cores",
					c.Name, key, target, v, bound, cores, sched.cores))
			case isFloor && v < bound:
				fail(key, "%s: got %v, want ≥ %v (%s)", target, v, bound, f)
			case isCeiling && v > bound:
				fail(key, "%s: got %v, want ≤ %v (%s)", target, v, bound, f)
			}
		}
	}
	for _, r := range fresh {
		if key := rowKey(r); got[key] != nil {
			fail(key, "row has no baseline (regenerate it)")
		}
	}
	for key := range c.scheduled {
		if !inBaseline[key] {
			fail(key, "listed as scheduled, but the baseline has no such row")
		}
	}
	return failures, notes
}

// sortedFields lists a row's field names in a stable order, so failures
// read the same run to run.
func sortedFields(r jsonRow) []string {
	names := make([]string, 0, len(r))
	for f := range r {
		names = append(names, f)
	}
	sort.Strings(names)
	return names
}

func toJSONRows(t *testing.T, b []byte) []jsonRow {
	t.Helper()
	var rows []jsonRow
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestDeviceOpContract is the gate: every experiment of the table, at
// its pinned parameters, against the committed BENCH_<name>.json.
func TestDeviceOpContract(t *testing.T) {
	if raceEnabled {
		t.Skip("counts do not change under the race detector; the 1M-key restart series just takes minutes there")
	}
	for i := range Contracts {
		c := &Contracts[i]
		t.Run(c.Name, func(t *testing.T) {
			path := filepath.Join("..", "..", "BENCH_"+c.Name+".json")
			committed, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var report strings.Builder
			rows, err := c.Run(&report, c.Pinned)
			t.Log("\n" + report.String())
			if err != nil {
				t.Fatal(err)
			}
			ran, err := json.Marshal(rows)
			if err != nil {
				t.Fatal(err)
			}
			failures, notes := c.compare(toJSONRows(t, committed), toJSONRows(t, ran), runtime.GOMAXPROCS(0))
			for _, n := range notes {
				t.Log(n)
			}
			for _, f := range failures {
				t.Error(f)
			}
			if len(failures) > 0 {
				t.Logf("if the change is meant to move these: go run ./cmd/espresso-bench -exp %s -json BENCH_%s.json", c.Name, c.Name)
			}
		})
	}
}

// TestContractCompare pins the comparison itself on a hand-made
// baseline: what the exact class catches in both directions, what the
// scheduled class lets through and what it still holds.
func TestContractCompare(t *testing.T) {
	c := &Contract{Name: "x", unheld: []string{"host_allocs_per_op"}, scheduled: map[string]scheduled{
		"plab/8":       {fields: []string{"flushed_lines_per_op", "modeled_speedup_vs_1"}},
		"concurrent/8": {fields: []string{"modeled_max_pause_ns"}},
		"parallel/8/4": {fields: []string{"modeled_parallel_speedup"}, cores: 4},
	}}
	base := []jsonRow{
		{"series": "plab", "goroutines": 1.0, "flushed_lines_per_op": 2.0, "modeled_speedup_vs_1": 1.0, "hooks_identical": true,
			"host_allocs_per_op": 7.0, "host_allocs_per_op_ceiling": 9.0},
		{"series": "plab", "goroutines": 8.0, "allocs": 20000.0, "flushed_lines_per_op": 2.0, "modeled_speedup_vs_1": 8.0, "modeled_speedup_vs_1_floor": 3.0},
		{"series": "concurrent", "mutators": 8.0, "modeled_max_pause_ns": 6e6, "modeled_max_pause_ns_ceiling": 14e6},
		{"series": "parallel", "mutators": 8.0, "workers": 4.0, "modeled_parallel_speedup": 3.9, "modeled_parallel_speedup_floor": 2.0},
	}
	// with returns a copy of base (same keys, own maps) after edit.
	with := func(edit func(rows []jsonRow) []jsonRow) []jsonRow {
		rows := make([]jsonRow, len(base))
		for i, r := range base {
			rows[i] = jsonRow{}
			for k, v := range r {
				rows[i][k] = v
			}
		}
		return edit(rows)
	}
	for _, tc := range []struct {
		name  string
		cur   []jsonRow
		cores int
		want  []string // one substring per expected failure line
	}{
		{"identical", with(func(r []jsonRow) []jsonRow { return r }), 4, nil},
		{"exact row: a count went up", with(func(r []jsonRow) []jsonRow { r[0]["flushed_lines_per_op"] = 2.0001; return r }), 4,
			[]string{"x plab/1 flushed_lines_per_op: got 2.0001, want 2"}},
		{"exact row: a count went down", with(func(r []jsonRow) []jsonRow { r[0]["flushed_lines_per_op"] = 1.0; return r }), 4,
			[]string{"x plab/1 flushed_lines_per_op: got 1, want 2"}},
		{"exact row: a non-numeric field", with(func(r []jsonRow) []jsonRow { r[0]["hooks_identical"] = false; return r }), 4,
			[]string{"hooks_identical: got false, want true"}},
		{"unheld field: moves freely on an exact row", with(func(r []jsonRow) []jsonRow { r[0]["host_allocs_per_op"] = 8.5; return r }), 4, nil},
		{"unheld field: its ceiling still holds", with(func(r []jsonRow) []jsonRow { r[0]["host_allocs_per_op"] = 9.5; return r }), 4,
			[]string{"x plab/1 host_allocs_per_op: got 9.5, want ≤ 9"}},
		{"scheduled row: listed fields move freely", with(func(r []jsonRow) []jsonRow {
			r[1]["flushed_lines_per_op"], r[1]["modeled_speedup_vs_1"] = 2.3, 5.1
			return r
		}), 4, nil},
		{"scheduled row: unlisted fields are exact", with(func(r []jsonRow) []jsonRow { r[1]["allocs"] = 19999.0; return r }), 4,
			[]string{"x plab/8 allocs: got 19999, want 20000"}},
		{"scheduled row: a listed field still has to be there", with(func(r []jsonRow) []jsonRow { delete(r[1], "flushed_lines_per_op"); return r }), 4,
			[]string{"flushed_lines_per_op: missing from the run"}},
		{"floor broken", with(func(r []jsonRow) []jsonRow { r[1]["modeled_speedup_vs_1"] = 2.9; return r }), 4,
			[]string{"x plab/8 modeled_speedup_vs_1: got 2.9, want ≥ 3"}},
		{"floor's target missing", with(func(r []jsonRow) []jsonRow { delete(r[1], "modeled_speedup_vs_1"); return r }), 4,
			[]string{"modeled_speedup_vs_1: missing from the run, want 8", "modeled_speedup_vs_1: missing from the run, bounded by"}},
		{"the run cannot move its own floor", with(func(r []jsonRow) []jsonRow { r[1]["modeled_speedup_vs_1_floor"] = 2.0; return r }), 4,
			[]string{"modeled_speedup_vs_1_floor: got 2, want 3"}},
		{"ceiling held", with(func(r []jsonRow) []jsonRow { r[2]["modeled_max_pause_ns"] = 13.9e6; return r }), 4, nil},
		{"ceiling broken", with(func(r []jsonRow) []jsonRow { r[2]["modeled_max_pause_ns"] = 14.1e6; return r }), 4,
			[]string{"x concurrent/8 modeled_max_pause_ns: got 1.41e+07, want ≤ 1.4e+07"}},
		{"ceiling reads the baseline, not the run", with(func(r []jsonRow) []jsonRow {
			r[2]["modeled_max_pause_ns"], r[2]["modeled_max_pause_ns_ceiling"] = 20e6, 30e6
			return r
		}), 4, []string{"want ≤ 1.4e+07", "modeled_max_pause_ns_ceiling: got 3e+07, want 1.4e+07"}},
		{"a floor that needs cores is held with them", with(func(r []jsonRow) []jsonRow { r[3]["modeled_parallel_speedup"] = 1.6; return r }), 4,
			[]string{"x parallel/8/4 modeled_parallel_speedup: got 1.6, want ≥ 2"}},
		{"and only reported without", with(func(r []jsonRow) []jsonRow { r[3]["modeled_parallel_speedup"] = 1.6; return r }), 2, nil},
		{"missing row", with(func(r []jsonRow) []jsonRow { return r[1:] }), 4,
			[]string{"x plab/1 row missing from the run"}},
		{"extra row", with(func(r []jsonRow) []jsonRow {
			return append(r, jsonRow{"series": "shared", "goroutines": 8.0, "flushed_lines_per_op": 2.0})
		}), 4, []string{"x shared/8 row has no baseline"}},
		{"extra field", with(func(r []jsonRow) []jsonRow { r[0]["host_ns_per_op"] = 100.0; return r }), 4,
			[]string{"host_ns_per_op: got 100, not in the baseline"}},
	} {
		got, _ := c.compare(base, tc.cur, tc.cores)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d failures %q, want %d", tc.name, len(got), got, len(tc.want))
			continue
		}
		for _, w := range tc.want {
			if !slices.ContainsFunc(got, func(g string) bool { return strings.Contains(g, w) }) {
				t.Errorf("%s: no failure mentions %q in %q", tc.name, w, got)
			}
		}
	}
}
