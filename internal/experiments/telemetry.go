package experiments

import (
	"fmt"
	"io"
	"time"

	"espresso/internal/core"
	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
	"espresso/internal/telemetry"
)

// The telemetry experiment enforces the observability layer's overhead
// contract (docs/observability.md): enabling Options.Telemetry must add
// ZERO device operations to any mutator path, and must not add locks or
// fences there either. Three single-threaded workloads — PLAB
// allocation, durable reference stores, index puts — run twice each,
// telemetry off and on, and the experiment hard-fails (not a tolerance
// check: exact equality) if any per-op device metric differs between
// the two series. The device counts are deterministic and are what the
// contract test compares, exactly, against the committed
// BENCH_telemetry.json baseline.
//
// The same run verifies that telemetry, while free, is also truthful:
// the "on" series cross-checks the folded counters against the
// workload's known operation counts, and a concurrent collection must
// yield a span timeline whose phase durations nest — handshake + mark +
// final pause sum to no more than the cycle's wall time, and the
// remark/summarize/compact/redo spans fit inside the final pause.

// TelemetrySpanReport is the GC phase-timeline self-check.
type TelemetrySpanReport struct {
	CycleWall  time.Duration
	Handshake  time.Duration
	Mark       time.Duration
	FinalPause time.Duration
	Inner      time.Duration // remark + summarize + compact + redo
}

// telemetryCells are the off/on matrix: each workload at its
// paper-scale op count, with the folded counter that must carry the
// loop when telemetry is on (free must not mean absent).
var telemetryCells = []struct {
	workload string
	ops      int
	counter  telemetry.Counter
}{
	{"alloc-cold", 200000, telemetry.CtrAllocObjects},
	{"refstore", 200000, telemetry.CtrRefStores},
	{"kvput", 100000, telemetry.CtrIndexPuts},
}

// TelemetryOverhead runs the off/on matrix plus the span check.
func TelemetryOverhead(scale Scale) ([]Row, TelemetrySpanReport, error) {
	var rows []Row
	for _, c := range telemetryCells {
		var reg *telemetry.Registry
		pair, err := runContract(workloads[c.workload], scale.div(c.ops),
			func(h *pheap.Heap) error {
				reg = telemetry.New()
				h.SetTelemetry(reg)
				return nil
			},
			func(off, on *Row) error {
				// The contract is exact, not approximate: the instrumented
				// build must issue the same device operations to the word.
				// Any drift means a counter bump slipped onto the device path.
				if on.raw != off.raw {
					return fmt.Errorf("device ops changed with telemetry on: off %+v, on %+v", off.raw, on.raw)
				}
				snap := reg.Snapshot()
				if got, want := snap.Counter(c.counter.Name()), uint64(on.Ops); got != want {
					return fmt.Errorf("%s = %d after %d ops", c.counter.Name(), got, want)
				}
				return nil
			})
		if err != nil {
			return nil, TelemetrySpanReport{}, fmt.Errorf("telemetry %w", err)
		}
		rows = append(rows, pair...)
	}
	report, err := telemetrySpanCheck(scale)
	return rows, report, err
}

// telemetrySpanCheck runs one concurrent collection with telemetry on
// and verifies the recorded phase timeline nests inside the measured
// cycle wall time. The phases are disjoint intervals by construction
// (handshake pause, overlapped mark, final pause; remark/summarize/
// compact/redo inside the final pause), so their sums bound strictly —
// a violation means a span was recorded with the wrong window.
func telemetrySpanCheck(scale Scale) (TelemetrySpanReport, error) {
	rt, err := core.NewRuntime(core.Config{
		PJHDataSize: 16 * layout.RegionSize,
		NVMMode:     nvm.Direct,
		Telemetry:   true,
	})
	if err != nil {
		return TelemetrySpanReport{}, err
	}
	if _, err := rt.CreateHeap("telemetry", 0); err != nil {
		return TelemetrySpanReport{}, err
	}
	node := klass.MustInstance("telemetry/GCNode", nil,
		klass.Field{Name: "next", Type: layout.FTRef},
		klass.Field{Name: "pad", Type: layout.FTLong})
	m, err := rt.NewMutator()
	if err != nil {
		return TelemetrySpanReport{}, err
	}
	// A rooted chain plus interleaved garbage gives every phase real work.
	var prev layout.Ref
	nextF, err := rt.ResolveField(node, "next")
	if err != nil {
		return TelemetrySpanReport{}, err
	}
	for i := 0; i < scale.div(50000); i++ {
		if _, err := m.PNew(node, 0); err != nil { // garbage
			return TelemetrySpanReport{}, err
		}
		ref, err := m.PNew(node, 0)
		if err != nil {
			return TelemetrySpanReport{}, err
		}
		if err := m.SetRefFast(ref, nextF, prev); err != nil {
			return TelemetrySpanReport{}, err
		}
		prev = ref
	}
	if err := rt.SetRoot("chain", prev); err != nil {
		return TelemetrySpanReport{}, err
	}
	m.Release()
	t0 := time.Now()
	if _, err := rt.PersistentGCConcurrentWorkers("telemetry", 2); err != nil {
		return TelemetrySpanReport{}, err
	}
	wall := time.Since(t0)
	snap := rt.Metrics()
	r := TelemetrySpanReport{
		CycleWall:  wall,
		Handshake:  snap.SpanTotal(telemetry.SpanGCHandshake),
		Mark:       snap.SpanTotal(telemetry.SpanGCMark),
		FinalPause: snap.SpanTotal(telemetry.SpanGCFinalPause),
		Inner: snap.SpanTotal(telemetry.SpanGCRemark) +
			snap.SpanTotal(telemetry.SpanGCSummarize) +
			snap.SpanTotal(telemetry.SpanGCCompact) +
			snap.SpanTotal(telemetry.SpanGCRedo),
	}
	if r.Handshake <= 0 || r.Mark <= 0 || r.FinalPause <= 0 {
		return r, fmt.Errorf("telemetry gc spans: missing phase (handshake %v, mark %v, finalpause %v)",
			r.Handshake, r.Mark, r.FinalPause)
	}
	if sum := r.Handshake + r.Mark + r.FinalPause; sum > r.CycleWall {
		return r, fmt.Errorf("telemetry gc spans: phases sum to %v > cycle wall %v", sum, r.CycleWall)
	}
	if r.Inner > r.FinalPause {
		return r, fmt.Errorf("telemetry gc spans: inner phases sum to %v > final pause %v", r.Inner, r.FinalPause)
	}
	if got := snap.Counter(telemetry.CtrGCCycles.Name()); got != 1 {
		return r, fmt.Errorf("telemetry gc spans: gc.cycles %d != 1", got)
	}
	return r, nil
}

// Print renders the span report's one-line summary.
func (r TelemetrySpanReport) Print(w io.Writer) {
	fmt.Fprintf(w, "  gc span timeline: handshake %v + mark %v + finalpause %v ≤ cycle %v; inner %v ≤ finalpause\n",
		r.Handshake.Round(time.Microsecond), r.Mark.Round(time.Microsecond),
		r.FinalPause.Round(time.Microsecond), r.CycleWall.Round(time.Microsecond),
		r.Inner.Round(time.Microsecond))
}
