package experiments

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"

	"espresso/internal/bench"
	"espresso/internal/nvm"
)

// The scaling experiments (alloc, kv, refstore, shardedkv) share one
// harness: a workload builds its heaps and hands back a per-mutator body,
// and runScaling walks a (shards, mutators) curve and reports the
// deterministic modeled critical path — the slowest chain's flushed
// lines × nvm.ModeledLineLatency; chains flush disjoint lines (their own
// PLAB regions, their own publications, their own shard devices), so
// their media time overlaps and the slowest one bounds completion. Rows
// carry device counts only — BenchmarkContract/<curve> times each point's
// bodies, and benchmark/ is the end-to-end clock; docs/benchmarks.md has
// the experiment index and contract.go the table that pins each
// experiment to its baseline.

// Row is one measurement of a scaling curve; fields a workload does not
// report are omitted from its JSON. HelpFlushes is a pointer because
// zero is a reported value for it.
type Row struct {
	Series          string  `json:"series"`
	Shards          int     `json:"shards,omitempty"`
	Goroutines      int     `json:"goroutines,omitempty"`
	Allocs          int     `json:"allocs,omitempty"`
	Ops             int     `json:"ops,omitempty"`
	ModeledNsPerOp  float64 `json:"modeled_ns_per_op,omitempty"`
	ModeledSpeedup  float64 `json:"modeled_speedup_vs_1,omitempty"`
	DevReads        float64 `json:"dev_reads_per_op"`
	DevWrites       float64 `json:"dev_writes_per_op"`
	FlushedLines    float64 `json:"flushed_lines_per_op"`
	Fences          float64 `json:"fences_per_op"`
	RegionDispenses int     `json:"region_dispenses,omitempty"`
	HelpFlushes     *int    `json:"help_flushes,omitempty"`
	FinalEntries    int     `json:"final_entries,omitempty"`
	RemsetSlots     int     `json:"remset_slots,omitempty"`
	// SpeedupFloor is the scaling claim, emitted on the row that carries
	// it; the contract test bounds ModeledSpeedup by the baseline's copy.
	SpeedupFloor float64 `json:"modeled_speedup_vs_1_floor,omitempty"`

	// raw is the undivided device delta, compared exactly by the tests,
	// immune to per-op float rounding.
	raw nvm.Stats
}

// point is one configuration of a scaling curve.
type point struct{ shards, mutators int }

// env is what a workload's setup is handed.
type env struct {
	point
	ops int // per mutator
}

// run is a prepared workload instance.
type run struct {
	devs []*nvm.Device // every device the bodies touch; their stats are summed
	body func(g int) error
	// critical reports the flushed lines of the slowest chain, read
	// after the bodies join.
	critical func() int
	// finish runs the workload's self-checks and releases its mutator
	// contexts.
	finish func() error
	// report fills the workload's own columns, after finish.
	report func(*Row)
}

// workload is one entry of the table in workloads.go.
type workload struct {
	name   string // scaling experiment name
	series string // rows' series label
	ops    int    // paper-scale op count of the curve
	// curve lays out the scaling curve for Params.Shards and
	// Params.Mutators, and claim is the point on it the ≥3x
	// modeled-speedup floor is stated for (the pinned parameters reach it).
	curve func(shards, mutators int) []point
	claim point
	setup func(env) (*run, error)
}

// fanOut runs body(0..n-1) on n goroutines and joins them.
func fanOut(n int, body func(g int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = body(g)
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runScaling measures w at every point of curve; speedups are relative
// to the first point.
func runScaling(w *workload, scale Scale, curve []point) ([]Row, error) {
	var rows []Row
	for _, p := range curve {
		row, err := w.measure(env{point: p, ops: w.perMutator(scale, p)}, func(bodies func() error) error { return bodies() })
		if err != nil {
			return nil, fmt.Errorf("%s %d shards, %d mutators: %w", w.name, p.shards, p.mutators, err)
		}
		row.Series, row.Shards, row.Goroutines = w.series, p.shards, p.mutators
		row.ModeledSpeedup = 1
		if len(rows) > 0 && row.ModeledNsPerOp > 0 {
			row.ModeledSpeedup = rows[0].ModeledNsPerOp / row.ModeledNsPerOp
		}
		if p == w.claim {
			// ≥3x modeled throughput at the top of the curve. alloc and
			// refstore read 7.998 and 8 there, deterministically; the two
			// index curves depend on scheduling and read, over 60
			// consecutive runs on a 2-vCPU host, 5.43–6.75 (kv, 8
			// mutators) and 7.06–7.69 (shardedkv, 4 shards × 2 mutators).
			row.SpeedupFloor = 3
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// perMutator is each mutator's op count at point p of the curve.
func (w *workload) perMutator(scale Scale, p point) int {
	return max(scale.div(w.ops)/p.mutators, 1)
}

// measure sets the workload up, runs its bodies inside the measured
// window — through timed, where BenchmarkContract starts and stops its
// clock — then finishes it, and returns the row with its device counts,
// its modeled critical path and the workload's own columns filled.
func (w *workload) measure(e env, timed func(bodies func() error) error) (Row, error) {
	r, err := w.setup(e)
	if err != nil {
		return Row{}, err
	}
	s0 := sumStats(r.devs)
	if err := timed(func() error { return fanOut(e.mutators, r.body) }); err != nil {
		return Row{}, err
	}
	d := sumStats(r.devs).Sub(s0)
	ops := e.mutators * e.ops
	n := float64(ops)
	row := Row{
		Ops:          ops,
		DevReads:     float64(d.Reads) / n,
		DevWrites:    float64(d.Writes) / n,
		FlushedLines: float64(d.FlushedLines) / n,
		Fences:       float64(d.Fences) / n,
		raw:          d,
	}
	modeled := nvm.Stats{FlushedLines: uint64(r.critical())}.ModeledFlushTime()
	row.ModeledNsPerOp = float64(modeled.Nanoseconds()) / n
	if err := r.finish(); err != nil {
		return Row{}, err
	}
	r.report(&row)
	return row, nil
}

// mutatorCurve is 1, 2, 4, … up to `mutators` mutators on one heap.
func mutatorCurve(_, mutators int) []point {
	var curve []point
	for g := 1; g < mutators; g *= 2 {
		curve = append(curve, point{mutators: g})
	}
	return append(curve, point{mutators: max(mutators, 1)})
}

// shardCurve is the (1 shard, 1 mutator) baseline, then shard counts
// 1, 2, 4, … up to maxShards, each with `mutators` mutators.
func shardCurve(maxShards, mutators int) []point {
	if mutators < 1 {
		mutators = 1
	}
	curve := []point{{1, 1}}
	for s := 1; s <= maxShards; s *= 2 {
		if p := (point{s, mutators}); p != curve[0] {
			curve = append(curve, p)
		}
	}
	return curve
}

// Scaling runs the named scaling curve: alloc, kv, and refstore sweep
// mutators 1, 2, 4, … up to `mutators` on one heap; shardedkv sweeps
// shards up to `shards` at a fixed mutator count.
func Scaling(name string, scale Scale, shards, mutators int) ([]Row, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("experiments: no scaling curve %q", name)
	}
	return runScaling(w, scale, w.curve(shards, mutators))
}

// PrintRows renders any experiment's row slice as one aligned table: a
// column per JSON field, in struct order, skipping columns no row
// fills; "-" marks a field the row omits from its JSON. The table is the
// rows' counts, exactly what -json writes; BenchmarkContract has their
// clock.
func PrintRows(w io.Writer, title string, rows any) {
	fmt.Fprintln(w, title)
	rv := reflect.ValueOf(rows)
	if rv.Kind() != reflect.Slice || rv.Len() == 0 {
		return
	}
	rt := rv.Index(0).Type()
	t := &bench.Table{}
	var cols []int
	for f := 0; f < rt.NumField(); f++ {
		name, _, _ := strings.Cut(rt.Field(f).Tag.Get("json"), ",")
		if name == "" {
			continue
		}
		for i := 0; i < rv.Len(); i++ {
			if !rv.Index(i).Field(f).IsZero() {
				cols = append(cols, f)
				t.Header = append(t.Header, name)
				break
			}
		}
	}
	for i := 0; i < rv.Len(); i++ {
		cells := make([]string, len(cols))
		for c, f := range cols {
			v := rv.Index(i).Field(f)
			if v.IsZero() && strings.HasSuffix(rt.Field(f).Tag.Get("json"), ",omitempty") {
				cells[c] = "-"
				continue
			}
			if v.Kind() == reflect.Pointer {
				v = v.Elem()
			}
			if v.Kind() == reflect.Float64 {
				cells[c] = strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.4f", v.Float()), "0"), ".")
			} else {
				cells[c] = fmt.Sprint(v.Interface())
			}
		}
		t.AddRow(cells...)
	}
	t.Print(w)
}
