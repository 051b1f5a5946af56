package main

import (
	"strings"
	"testing"
)

func TestGate(t *testing.T) {
	base := []row{
		{"series": "plab", "goroutines": 1.0, "flushed_lines_per_op": 2.0, "modeled_speedup_vs_1": 1.0, "wall_ns_per_op": 100.0},
		{"series": "plab", "goroutines": 8.0, "flushed_lines_per_op": 2.0, "modeled_speedup_vs_1": 8.0, "modeled_speedup_vs_1_floor": 3.0},
		{"series": "concurrent", "mutators": 8.0, "modeled_max_pause_ns": 6e6, "modeled_max_pause_ns_ceiling": 14e6},
	}
	// with returns a copy of base (same keys, own maps) after edit.
	with := func(edit func(rows []row) []row) []row {
		rows := make([]row, len(base))
		for i, r := range base {
			rows[i] = row{}
			for k, v := range r {
				rows[i][k] = v
			}
		}
		return edit(rows)
	}
	for _, tc := range []struct {
		name string
		cur  []row
		want []string // one substring per expected failure line, in order
	}{
		{"identical", with(func(r []row) []row { return r }), nil},
		{"wall clock is never gated", with(func(r []row) []row { r[0]["wall_ns_per_op"] = 1e9; return r }), nil},
		{"within tolerance", with(func(r []row) []row { r[0]["flushed_lines_per_op"] = 2.2; return r }), nil},
		{"device cost regressed", with(func(r []row) []row { r[0]["flushed_lines_per_op"] = 2.5; return r }),
			[]string{"plab/1"}},
		{"speedup drifted below baseline", with(func(r []row) []row { r[1]["modeled_speedup_vs_1"] = 6.0; return r }),
			[]string{"plab/8"}},
		{"missing row", with(func(r []row) []row { return r[1:] }),
			[]string{"row missing from current run"}},
		{"extra row", with(func(r []row) []row {
			return append(r, row{"series": "shared", "goroutines": 8.0, "flushed_lines_per_op": 2.0})
		}), []string{"shared/8"}},
		{"missing field", with(func(r []row) []row { delete(r[0], "flushed_lines_per_op"); return r }),
			[]string{"flushed_lines_per_op missing"}},
		{"ceiling held", with(func(r []row) []row { r[2]["modeled_max_pause_ns"] = 13.9e6; return r }), nil},
		{"ceiling broken", with(func(r []row) []row { r[2]["modeled_max_pause_ns"] = 14.1e6; return r }),
			[]string{"> ceiling"}},
		{"ceiling reads the baseline, not the current row", with(func(r []row) []row {
			r[2]["modeled_max_pause_ns"], r[2]["modeled_max_pause_ns_ceiling"] = 20e6, 30e6
			return r
		}), []string{"> ceiling"}},
		{"floor broken", with(func(r []row) []row { r[1]["modeled_speedup_vs_1"] = 2.9; return r }),
			[]string{"< floor", "plab/8"}}, // and the baseline-relative bound
		{"floor's target missing", with(func(r []row) []row { delete(r[1], "modeled_speedup_vs_1"); return r }),
			[]string{"modeled_speedup_vs_1 missing", "modeled_speedup_vs_1 missing"}},
	} {
		got := gate(base, tc.cur, 0.10)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d failures %q, want %d", tc.name, len(got), got, len(tc.want))
			continue
		}
		for _, w := range tc.want {
			found := false
			for _, g := range got {
				found = found || strings.Contains(g, w)
			}
			if !found {
				t.Errorf("%s: no failure mentions %q in %q", tc.name, w, got)
			}
		}
	}
}
