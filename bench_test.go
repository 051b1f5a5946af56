// Benchmarks regenerating the paper's figures (docs/benchmarks.md maps
// each to its experiment). Run them all with:
//
//	go test -bench=. -benchmem
//
// cmd/espresso-bench runs the same experiments at their pinned parameters
// and prints the tables; these benches keep each figure's workload under
// the testing.B harness so regressions show up in CI.
package espresso_test

import (
	"testing"

	"espresso/internal/experiments"
)

// benchScale shrinks workloads so a full -bench=. pass stays fast; the
// shapes (who wins, rough factors) are scale-invariant.
const benchScale = experiments.Scale(20)

// BenchmarkFig15MicroPJHvsPCJ runs the five-type create/set/get
// comparison of Figure 15 and reports the aggregate speedup (paper: 6.0x
// to 256.3x, PJH over PCJ).
func BenchmarkFig15MicroPJHvsPCJ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig15(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		min, max := rows[0].Speedup, rows[0].Speedup
		for _, r := range rows {
			if r.Speedup < min {
				min = r.Speedup
			}
			if r.Speedup > max {
				max = r.Speedup
			}
		}
		b.ReportMetric(min, "min-speedup")
		b.ReportMetric(max, "max-speedup")
	}
}

// BenchmarkFig16JPABThroughput runs the four JPAB tests on both
// providers (Figure 16; paper: H2-PJO up to 3.24x over H2-JPA).
func BenchmarkFig16JPABThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig16(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		var speedup, allocs float64
		for _, r := range rows {
			speedup += r.Speedup
			allocs += r.AllocRatio
		}
		b.ReportMetric(speedup/float64(len(rows)), "avg-PJO/JPA")
		b.ReportMetric(allocs/float64(len(rows)), "avg-PJO/JPA-allocs")
	}
}

// BenchmarkFig18HeapLoad builds and reloads heaps under both safety
// levels (Figure 18; paper: UG flat, zeroing linear, ~72.76 ms at 2M
// objects).
func BenchmarkFig18HeapLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig18(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-2] // the largest closed image; the unclosed one follows it
		b.ReportMetric(last.UGMillis, "UG-ms")
		b.ReportMetric(last.ZeroMillis, "zero-ms")
		b.ReportMetric(last.UGReads, "UG-reads")
		b.ReportMetric(last.ZeroReads, "zero-reads")
	}
}

// BenchmarkGCRecoverableFlushCost runs the §6.4 experiment at 16 MB live:
// one crash-consistent collection's flushed lines, and its pause with and
// without clflush (paper: +17.8%).
func BenchmarkGCRecoverableFlushCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.GCFlush(16)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].FlushedLines), "flushed-lines")
		b.ReportMetric(rows[0].OverheadPct, "flush-overhead-%")
	}
}
