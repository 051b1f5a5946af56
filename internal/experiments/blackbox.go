package experiments

import (
	"fmt"
	"io"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
	"espresso/internal/pgc"
	"espresso/internal/pheap"
	"espresso/internal/telemetry/blackbox"
)

// The blackbox experiment enforces the flight recorder's two contracts
// (docs/observability.md):
//
//  1. Crash safety: a deterministic workload — create, allocation
//     bursts, an STW collection, a concurrent collection — is crashed at
//     EVERY flush boundary (plus a matrix of random-eviction seeds), and
//     the journal decoded from each crash image must be a checksum-valid,
//     sequence-contiguous strict prefix of the DRAM mirror oracle of that
//     same run. The decoder may truncate a torn tail; it must never
//     fabricate, reorder, or resurrect an event. Each crashed image must
//     also reload (pheap.Load + pgc recovery) and accept fresh appends.
//  2. Overhead: recording costs exactly one line write + one line flush
//     per event and NOTHING else — per workload, fences and reads must be
//     bit-identical off vs on, and writes/flushed-lines must differ by
//     exactly the number of events journaled. These are hard in-run
//     equalities; the absolute per-op device costs also land in the row
//     JSON that the contract test compares against BENCH_blackbox.json.

// BlackboxReport summarizes the crash sweep.
type BlackboxReport struct {
	CrashPoints  int // flush boundaries swept
	EvictionRuns int // random-eviction crash images checked
	OracleEvents int // events the clean run journals
	ReloadChecks int // crash images reloaded + re-appended
}

// blackboxWorkload drives one deterministic recorder-instrumented run:
// an allocation burst (PLAB handoffs), an STW collection, a second
// burst, and a single-worker concurrent collection — so the flush sweep
// crosses allocation, marking, compaction, and redo-commit boundaries.
func blackboxWorkload(h *pheap.Heap, reg *klass.Registry) error {
	node, err := reg.Define(klass.MustInstance("blackbox/Node", nil,
		klass.Field{Name: "id", Type: layout.FTLong},
		klass.Field{Name: "next", Type: layout.FTRef}))
	if err != nil {
		return err
	}
	burst := func(n int, root string) error {
		var prev layout.Ref
		for i := 0; i < n; i++ {
			ref, err := h.Alloc(node, 0)
			if err != nil {
				return err
			}
			h.SetWord(ref, layout.FieldOff(0), uint64(i))
			if i%2 == 0 { // odd allocations stay garbage for the collections
				h.SetWord(ref, layout.FieldOff(1), uint64(prev))
				prev = ref
			}
		}
		return h.SetRoot(root, prev)
	}
	if err := burst(96, "chain-a"); err != nil {
		return err
	}
	if _, err := pgc.Collect(h, pgc.NoRoots{}); err != nil {
		return err
	}
	if err := burst(96, "chain-b"); err != nil {
		return err
	}
	_, err = pgc.CollectConcurrentWorkers(h, pgc.NoRoots{}, pgc.StoppedWorld{}, 1)
	return err
}

// newBlackboxHeap creates the sweep's tracked heap with its recorder and
// DRAM mirror attached. Setup flushes (heap format, ring format) happen
// before the caller installs the crash hook, so the sweep counts only
// workload boundaries.
func newBlackboxHeap(mirror *[]blackbox.Record) (*pheap.Heap, *klass.Registry, error) {
	reg := klass.NewRegistry()
	h, err := pheap.Create(reg, pheap.Config{
		Name:     "blackbox",
		DataSize: 1 << 20,
		Mode:     nvm.Tracked,
	})
	if err != nil {
		return nil, nil, err
	}
	r, err := h.EnableFlightRecorder()
	if err != nil {
		return nil, nil, err
	}
	r.SetMirror(func(rec blackbox.Record) { *mirror = append(*mirror, rec) })
	return h, reg, nil
}

// checkPrefix verifies tl against the run's mirror: every decoded record
// matches the mirror at its sequence number, and the decode is
// gap-free. Returns an error naming the first violation.
func checkPrefix(tl blackbox.Timeline, mirror []blackbox.Record, what string) error {
	for i, e := range tl.Events {
		if e.Seq == 0 || e.Seq > uint64(len(mirror)) {
			return fmt.Errorf("blackbox %s: decoded seq %d beyond the %d-event oracle (fabricated record)",
				what, e.Seq, len(mirror))
		}
		m := mirror[e.Seq-1]
		if e.Kind != m.Kind || e.P0 != m.P0 || e.P1 != m.P1 || e.P2 != m.P2 {
			return fmt.Errorf("blackbox %s: decoded seq %d = kind %s p=(%d,%d,%d); oracle has kind %s p=(%d,%d,%d)",
				what, e.Seq, blackbox.KindName(e.Kind), e.P0, e.P1, e.P2,
				blackbox.KindName(m.Kind), m.P0, m.P1, m.P2)
		}
		if i > 0 && e.Seq != tl.Events[i-1].Seq+1 {
			return fmt.Errorf("blackbox %s: sequence gap %d -> %d survived decoding",
				what, tl.Events[i-1].Seq, e.Seq)
		}
	}
	return nil
}

// crashRun replays the workload with a crash injected at flush boundary
// k (counted from arming) and returns the crash image under policy plus
// the run's own mirror. The panic unwinds whatever the workload was
// doing — exactly what power loss does. A random-eviction image is
// taken from the crashing device itself (a flushed-only image has
// already lost its unflushed lines), so each seed replays the run.
func crashRun(k uint64, policy nvm.CrashPolicy, seed int64) (img []byte, mirror []blackbox.Record, err error) {
	h, reg, err := newBlackboxHeap(&mirror)
	if err != nil {
		return nil, nil, err
	}
	dev := h.Device()
	faultdev.CrashIn(dev, k)
	if _, err := faultdev.Run(dev, func() error { return blackboxWorkload(h, reg) }); err != nil {
		return nil, nil, fmt.Errorf("blackbox: workload failed before crash point %d: %w", k, err)
	}
	return dev.CrashImage(policy, seed), mirror, nil
}

// BlackboxCrashSweep runs contract 1: decode-after-crash at every flush
// boundary, random-eviction images at a coarse stride, and reload
// verification. Hard-fails on the first violated prefix.
func BlackboxCrashSweep() (BlackboxReport, error) {
	var report BlackboxReport

	// Clean run: count flush boundaries and capture the oracle.
	var mirror []blackbox.Record
	h, reg, err := newBlackboxHeap(&mirror)
	if err != nil {
		return report, err
	}
	dev := h.Device()
	flushes0 := dev.Stats().Flushes
	if err := blackboxWorkload(h, reg); err != nil {
		return report, err
	}
	total := dev.Stats().Flushes - flushes0
	geo := h.Geo()
	tl, err := blackbox.Decode(dev, geo.BlackboxOff, geo.BlackboxSize)
	if err != nil {
		return report, err
	}
	if err := checkPrefix(tl, mirror, "clean run"); err != nil {
		return report, err
	}
	if len(tl.Events) != len(mirror) {
		return report, fmt.Errorf("blackbox: clean run decoded %d of %d journaled events", len(tl.Events), len(mirror))
	}
	report.OracleEvents = len(mirror)

	// crashCheck crashes a replay at boundary k and holds the decoded
	// journal of its crash image to the prefix rule.
	crashCheck := func(k uint64, policy nvm.CrashPolicy, seed int64) ([]byte, error) {
		img, runMirror, err := crashRun(k, policy, seed)
		if err != nil {
			return nil, err
		}
		what := fmt.Sprintf("crash at flush %d/%d (policy %d, seed %d)", k, total, policy, seed)
		dead := nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked})
		ctl, err := blackbox.Decode(dead, geo.BlackboxOff, geo.BlackboxSize)
		if err != nil {
			return nil, fmt.Errorf("blackbox %s: %w", what, err)
		}
		return img, checkPrefix(ctl, runMirror, what)
	}
	for k := uint64(1); k <= total; k++ {
		img, err := crashCheck(k, nvm.CrashFlushedOnly, 0)
		if err != nil {
			return report, err
		}
		report.CrashPoints++

		// Random-eviction images at a coarse stride: unflushed lines
		// randomly survive or vanish, the prefix rule must hold anyway.
		if k%16 == 0 || k == total {
			for seed := int64(1); seed <= 3; seed++ {
				if _, err := crashCheck(k, nvm.CrashRandomEviction, seed); err != nil {
					return report, err
				}
				report.EvictionRuns++
			}
		}

		// Reload verification at a coarse stride: the crashed image loads,
		// recovers, and its journal keeps accepting appends that decode
		// contiguously after the survivors.
		if k%8 == 0 || k == total {
			if err := reloadCheck(img, geo); err != nil {
				return report, fmt.Errorf("blackbox: crash at flush %d: %w", k, err)
			}
			report.ReloadChecks++
		}
	}
	return report, nil
}

// reloadCheck loads a crash image the way a restart would, finishes any
// interrupted collection, and verifies the journal accepts and decodes
// fresh appends.
func reloadCheck(img []byte, geo pheap.Geometry) error {
	dev := nvm.FromImage(append([]byte(nil), img...), nvm.Config{Mode: nvm.Tracked})
	h, err := pheap.Load(dev, klass.NewRegistry())
	if err != nil {
		return fmt.Errorf("reload: %w", err)
	}
	if _, _, err := pgc.RecoverIfNeeded(h); err != nil {
		return fmt.Errorf("reload recovery: %w", err)
	}
	r, err := h.EnableFlightRecorder()
	if err != nil {
		return fmt.Errorf("reload recorder: %w", err)
	}
	before := r.Seq()
	r.Append(blackbox.EvHeapLoad, h.GlobalTS(), 0, 0)
	tl, err := blackbox.Decode(dev, geo.BlackboxOff, geo.BlackboxSize)
	if err != nil {
		return fmt.Errorf("reload decode: %w", err)
	}
	if len(tl.Events) == 0 || tl.Events[len(tl.Events)-1].Seq != before+1 {
		return fmt.Errorf("reload: post-reload append (seq %d) did not decode as the tail", before+1)
	}
	for i := 1; i < len(tl.Events); i++ {
		if tl.Events[i].Seq != tl.Events[i-1].Seq+1 {
			return fmt.Errorf("reload: sequence gap %d -> %d after re-append",
				tl.Events[i-1].Seq, tl.Events[i].Seq)
		}
	}
	return nil
}

// blackboxCells are the overhead matrix: each workload at its
// paper-scale size (gccycle: the graph one collection walks).
var blackboxCells = []struct {
	workload string
	ops      int
}{{"alloc-cold", 200000}, {"kvput", 100000}, {"gccycle", 50000}}

// Blackbox runs the crash sweep plus the off/on overhead matrix.
func Blackbox(scale Scale) ([]Row, BlackboxReport, error) {
	report, err := BlackboxCrashSweep()
	if err != nil {
		return nil, report, err
	}
	var rows []Row
	for _, c := range blackboxCells {
		pair, err := runContract(workloads[c.workload], scale.div(c.ops),
			func(h *pheap.Heap) error {
				_, err := h.EnableFlightRecorder()
				return err
			},
			func(off, on *Row) error {
				off.Events, on.Events = &off.events, &on.events
				// The overhead contract, exactly: per run, recording adds one
				// write and one flushed line per event and nothing else — and
				// never a fence or a read. Compared on raw counts, to the word.
				ev := uint64(on.events)
				if on.raw.Fences != off.raw.Fences || on.raw.Reads != off.raw.Reads ||
					on.raw.Writes != off.raw.Writes+ev || on.raw.FlushedLines != off.raw.FlushedLines+ev {
					return fmt.Errorf("recorder device cost off-contract (%d events): off %+v, on %+v", ev, off.raw, on.raw)
				}
				// Mutator workloads journal only at region granularity (PLAB
				// dispenses) — orders of magnitude below one event per op. A
				// violation means an emission point slipped onto a per-op path.
				if on.Ops > 1 && on.events > on.Ops/100 {
					return fmt.Errorf("%d events for %d ops — emission must stay at region/cycle granularity", on.events, on.Ops)
				}
				return nil
			})
		if err != nil {
			return nil, report, fmt.Errorf("blackbox %w", err)
		}
		rows = append(rows, pair...)
	}
	return rows, report, nil
}

// Print renders the sweep's one-line summary.
func (r BlackboxReport) Print(w io.Writer) {
	fmt.Fprintf(w, "  crash sweep: %d flush boundaries, %d eviction images, %d reload checks; oracle %d events, all decodes strict prefixes\n",
		r.CrashPoints, r.EvictionRuns, r.ReloadChecks, r.OracleEvents)
}
