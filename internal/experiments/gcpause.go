package experiments

import (
	"fmt"
	"runtime"

	"espresso/internal/core"
	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pgc"
)

// The gcpause experiment measures persistent-GC pause times under a
// multi-mutator allocation workload: G mutator goroutines churn rooted
// chains (allocate, prepend, unlink — through the PLAB allocator and the
// reference-store barrier) against a large stable live graph, and the
// stop-the-world collector runs between churn phases: the whole
// collection is the pause.
//
// The metric is the modeled pause (nvm.Stats.ModeledTime of the device
// traffic inside the pause: tracing is read-dominated, compaction
// flush-dominated, and both counters come from the device, not the host
// clock — benchmark/'s gc_churn is where pauses meet a clock).

// GCPauseRow is one (series, workers) measurement over several
// collection cycles. The stw series carries the in-pause device
// counters; the parallel rows carry the modeled device critical path of
// mark+compact, the per-cycle device totals, and (on the largest-workers
// row) the speedup over one worker with its ≥2x floor. The contract test
// bounds the speedup by the baseline's copy of the _floor field — an
// absolute claim, because the per-worker maxima depend on goroutine
// scheduling; every other field is a pure function of the code and is
// held to its baseline exactly (contract.go).
type GCPauseRow struct {
	Series            string  `json:"series"` // "stw" or "parallel"
	Mutators          int     `json:"mutators"`
	Workers           int     `json:"workers,omitempty"` // mark workers (parallel series)
	Cycles            int     `json:"cycles"`
	LiveObjects       int     `json:"live_objects"`
	ModeledMaxPauseNs float64 `json:"modeled_max_pause_ns"`

	DevReadsInPause float64 `json:"dev_reads_in_pause_per_cycle,omitempty"`
	DevLinesInPause float64 `json:"dev_flushed_lines_in_pause_per_cycle,omitempty"`

	// Parallel-series fields. The critical path models the device time a
	// real NVM would charge the slowest worker: max over mark workers +
	// the compact phase, which runs on one (contiguous destinations share
	// cache lines, and each source region must stay intact until its
	// evacuation is durable). The per-cycle totals (reads, flushed lines)
	// are identical across worker counts — parallelism splits the work,
	// it must not add device traffic — so the speedup is pure
	// critical-path reduction.
	ModeledCritPathNs      float64 `json:"modeled_critical_path_ns,omitempty"`
	DevReadsPerCycle       float64 `json:"dev_reads_per_cycle,omitempty"`
	DevLinesPerCycle       float64 `json:"dev_flushed_lines_per_cycle,omitempty"`
	ModeledParallelSpeedup float64 `json:"modeled_parallel_speedup,omitempty"`
	ParallelSpeedupFloor   float64 `json:"modeled_parallel_speedup_floor,omitempty"`
}

const gcPauseCycles = 3

// statNs is one accounting bucket's modeled device time, reads and
// write-backs both, in the row types' float nanoseconds.
func statNs(s nvm.Stats) float64 { return float64(s.ModeledTime().Nanoseconds()) }

// modeledCritPathNs is the modeled device critical path of mark+compact:
// the busiest mark worker plus the compact phase. With one worker it
// degenerates to the serial mark+compact device time.
func modeledCritPathNs(res pgc.Result) float64 {
	m := 0.0
	for _, s := range res.MarkWorkerStats {
		m = max(m, statNs(s))
	}
	return m + statNs(res.CompactStats)
}

// gcPauseParallelWorkers are the mark pool sizes of the parallel series:
// the serial baseline and the pool size the speedup claim is made at.
var gcPauseParallelWorkers = []int{1, 4}

// GCPause runs the stw series at the given mutator count, then the
// parallel series (mark-heavy) across gcPauseParallelWorkers.
func GCPause(scale Scale, mutators int) ([]GCPauseRow, error) {
	if mutators < 1 {
		mutators = 1
	}
	live := scale.div(40000)
	churn := scale.div(600)
	stw, err := runGCPauseSeries(mutators, 0, live, churn)
	if err != nil {
		return nil, err
	}
	rows := []GCPauseRow{stw}

	// Parallel series: same workload family but mark-heavy — a larger
	// stable live set and lighter churn — because the parallelism claim
	// is about the tracing-dominated device critical path (the serial
	// compact phase is a fixed Amdahl residue that light churn keeps
	// small).
	var serial GCPauseRow
	for _, workers := range gcPauseParallelWorkers {
		row, err := runGCPauseSeries(mutators, workers, 2*live, scale.div(150))
		if err != nil {
			return nil, err
		}
		if workers == gcPauseParallelWorkers[0] {
			serial = row
		} else {
			// The deterministic half of the parallelism claim, held on
			// every host: a pool splits the cycle's device work, it adds
			// none.
			if row.DevReadsPerCycle != serial.DevReadsPerCycle || row.DevLinesPerCycle != serial.DevLinesPerCycle {
				return nil, fmt.Errorf("gcpause: %d workers cost %.0f reads / %.0f lines a cycle, 1 worker %.0f / %.0f",
					workers, row.DevReadsPerCycle, row.DevLinesPerCycle, serial.DevReadsPerCycle, serial.DevLinesPerCycle)
			}
			if row.ModeledCritPathNs > 0 {
				row.ModeledParallelSpeedup = serial.ModeledCritPathNs / row.ModeledCritPathNs
			}
			// How the pool splits the work is decided by which workers the
			// host really runs, so the contract test holds this floor only
			// with GOMAXPROCS ≥ workers (contract.go). With 2 cores under
			// 4 workers, 60 runs read 2.63–3.93 (median 3.91).
			row.ParallelSpeedupFloor = 2
		}
		rows = append(rows, row)
	}
	return rows, nil
}

type gcPauseNode struct {
	klass      *klass.Klass
	idF, nextF core.FieldRef
}

// newGCPauseHeap builds the state every series measures from: a runtime
// sized to the workload, the stable live graph, and the warmed-up
// recycled-hole steady state.
func newGCPauseHeap(mutators, live, churnOps int) (*core.Runtime, gcPauseNode, error) {
	// Size the heap to the workload: stable graph + in-flight churn +
	// PLAB slack. An oversized heap would only inflate the pause-time
	// bitmap persist, which covers the heap, not the live set.
	rt, err := core.NewRuntime(core.Config{
		PJHDataSize: live*64 + mutators*(churnOps*64+2*layout.RegionSize) + (4 << 20),
	})
	if err != nil {
		return nil, gcPauseNode{}, err
	}
	if _, err := rt.CreateHeap("gcpause", 0); err != nil {
		return nil, gcPauseNode{}, err
	}
	nk := klass.MustInstance("gcpause/Node", nil,
		klass.Field{Name: "id", Type: layout.FTLong},
		klass.Field{Name: "next", Type: layout.FTRef, RefKlass: "gcpause/Node"},
	)
	n := gcPauseNode{klass: nk, idF: rt.MustResolveField(nk, "id"), nextF: rt.MustResolveField(nk, "next")}

	// Build the stable live graph — each mutator bump-allocates its own
	// rooted chain through its PLAB. The build runs the mutators
	// sequentially: it is setup, not workload, and a concurrent build
	// hands the initial region layout to the goroutine scheduler — the
	// same run then measures one of two layout modes whose per-cycle
	// compaction work differs by several ms (whether a low recycled hole
	// ends up hosting a cyclically-replaced root-index node decides if
	// the sliding compactor re-evacuates everything above it each
	// cycle).
	perM := live / mutators
	if perM < 1 {
		perM = 1
	}
	if err := forEachMutatorSeq(rt, mutators, func(g int, m *core.Mutator) error {
		var head layout.Ref
		for i := 0; i < perM; i++ {
			ref, err := m.PNew(n.klass, 0)
			if err != nil {
				return err
			}
			m.SetLongFast(ref, n.idF, int64(g*10_000_000+i))
			if err := m.SetRefFast(ref, n.nextF, head); err != nil {
				return err
			}
			head = ref
		}
		return m.SetRoot(fmt.Sprintf("stable%d", g), head)
	}); err != nil {
		return nil, gcPauseNode{}, err
	}

	// Warmup collection (unmeasured): the freshly built heap is region-
	// interleaved across mutators, so the first cycle compacts nearly
	// everything. The measured cycles then see the steady state — a dense
	// stable graph plus per-cycle churn — which is what pause-time claims
	// are about.
	if _, err := rt.PersistentGC("gcpause"); err != nil {
		return nil, gcPauseNode{}, err
	}
	return rt, n, warmupChurn(rt, n, mutators, churnOps)
}

// record folds one measured cycle into the row: the modeled pause
// maximum, plus the per-cycle maxima of the pause's device traffic into
// reads/lines.
func (row *GCPauseRow) record(res pgc.Result, reads, lines *float64) {
	row.Cycles++
	row.LiveObjects = res.LiveObjects
	row.ModeledMaxPauseNs = max(row.ModeledMaxPauseNs, statNs(res.PauseDeviceStats))
	*reads = max(*reads, float64(res.PauseDeviceStats.Reads))
	*lines = max(*lines, float64(res.PauseDeviceStats.FlushedLines))
}

// runGCPauseSeries measures the collector on the churn workload: churn
// completes, then the whole collection is one pause. The churn runs
// sequentially — the rows' device counters are held to the baseline
// exactly, and concurrent churn hands the heap layout to the goroutine
// scheduler (occasionally flipping how much the compactor slides per
// cycle, a ~30% swing in flushed lines). workers 0 is the stw series;
// otherwise rt.PersistentGC runs with GOMAXPROCS set to workers, which is
// the pool pgc.Collect marks on. The per-cycle device totals are exactly
// reproducible; only the split of work across workers — and hence the
// critical path — depends on stealing order.
func runGCPauseSeries(mutators, workers, live, churnOps int) (GCPauseRow, error) {
	rt, n, err := newGCPauseHeap(mutators, live, churnOps)
	if err != nil {
		return GCPauseRow{}, err
	}
	row := GCPauseRow{Series: "stw", Mutators: mutators, Workers: workers}
	reads, lines := &row.DevReadsInPause, &row.DevLinesInPause
	if workers > 0 {
		row.Series, reads, lines = "parallel", &row.DevReadsPerCycle, &row.DevLinesPerCycle
	}
	for c := 0; c < gcPauseCycles; c++ {
		if err := forEachMutatorSeq(rt, mutators, func(g int, m *core.Mutator) error {
			return runChurn(m, n, fmt.Sprintf("churn%d", g), churnOps, g, c)
		}); err != nil {
			return GCPauseRow{}, err
		}
		prev := runtime.GOMAXPROCS(workers) // 0 leaves it as it is
		res, err := rt.PersistentGC("gcpause")
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return GCPauseRow{}, err
		}
		row.record(res, reads, lines)
		if workers > 0 {
			row.ModeledCritPathNs = max(row.ModeledCritPathNs, modeledCritPathNs(res))
		}
	}
	return row, nil
}

// runChurn performs one mutator's churn phase: prepend a node to its
// churn chain, unlinking the second node every third op — each multi-step
// sequence inside a Do scope so held references survive collector pauses.
// The first op starts a fresh chain instead of linking to the previous
// cycle's head, so overwriting the root drops the old chain wholesale.
// That keeps the workload steady-state: each cycle's garbage is the prior
// cycle's chain plus this cycle's unlinks, and per-cycle collection work
// is constant. (Chaining across cycles instead lets survivors accumulate
// into an ever-growing pile that any lower garbage — e.g. a root-index
// node replaced in a recycled hole — forces the sliding compactor to
// re-evacuate wholesale, every cycle, growing without bound; the series
// would then measure the pile's age, not the pause.)
func runChurn(m *core.Mutator, n gcPauseNode, root string, ops, g, cycle int) error {
	for i := 0; i < ops; i++ {
		var opErr error
		m.Do(func() {
			var head layout.Ref
			if i > 0 {
				head, _ = m.GetRoot(root)
			}
			ref, err := m.PNew(n.klass, 0)
			if err != nil {
				opErr = err
				return
			}
			m.SetLongFast(ref, n.idF, int64(g*1_000_000+cycle*10_000+i))
			if err := m.SetRefFast(ref, n.nextF, head); err != nil {
				opErr = err
				return
			}
			opErr = m.SetRoot(root, ref)
		})
		if opErr != nil {
			return opErr
		}
		if i%3 == 2 {
			m.Do(func() {
				head, _ := m.GetRoot(root)
				if head == layout.NullRef {
					return
				}
				second := m.GetRefFast(head, n.nextF)
				if second == layout.NullRef {
					return
				}
				opErr = m.SetRefFast(head, n.nextF, m.GetRefFast(second, n.nextF))
			})
			if opErr != nil {
				return opErr
			}
		}
	}
	return nil
}

// warmupChurn runs two unmeasured sequential churn+collect rounds. The
// first churn epoch after the build is transitional: its garbage is a
// solid block that exceeds the summary's dead-wood budget, so one more
// near-full compaction follows before the heap settles into the
// recycled-hole steady state (churn allocating into, and dying inside,
// the holes the previous cycle published) that the measured cycles are
// about. Sequential churn and stop-the-world collections keep the
// resulting layout deterministic.
func warmupChurn(rt *core.Runtime, n gcPauseNode, mutators, churnOps int) error {
	for w := 0; w < 2; w++ {
		if err := forEachMutatorSeq(rt, mutators, func(g int, m *core.Mutator) error {
			return runChurn(m, n, fmt.Sprintf("churn%d", g), churnOps, g, w)
		}); err != nil {
			return err
		}
		if _, err := rt.PersistentGC("gcpause"); err != nil {
			return err
		}
	}
	return nil
}

// forEachMutatorSeq runs fn for each mutator index in order on the
// calling goroutine — deterministic allocation interleaving for setup
// phases.
func forEachMutatorSeq(rt *core.Runtime, count int, fn func(g int, m *core.Mutator) error) error {
	for g := 0; g < count; g++ {
		m, err := rt.NewMutator()
		if err != nil {
			return err
		}
		if err := fn(g, m); err != nil {
			return err
		}
	}
	return nil
}
