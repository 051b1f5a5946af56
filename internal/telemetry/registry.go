package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Registry is one observability domain: a runtime, or one shard of a
// sharded set. Cells register with it like mutators' allocators register
// with their heap — created per owner, folded only when a
// snapshot asks, handed back on release so no count is ever lost.
//
// A nil *Registry is the disabled state: every method no-ops (or
// returns nil cells, whose methods no-op in turn), so instrumented code
// never branches on a config flag.
type Registry struct {
	mu      sync.Mutex
	cells   []*Cell
	retired [NumCounters]uint64 // folded counts of released cells
	gauges  map[string]func() int64
	hists   map[string]*Histogram

	shared *Cell // fallback cell for pathways without an owner (atomic ops only)
	spans  *SpanRecorder
}

// New creates an empty registry with a span ring of the default depth.
func New() *Registry {
	return &Registry{
		gauges: make(map[string]func() int64),
		hists:  make(map[string]*Histogram),
		shared: &Cell{},
		spans:  NewSpanRecorder(DefaultSpanDepth),
	}
}

// NewCell creates and registers a counter cell for one owner. Returns
// nil (a valid no-op cell) on a nil registry.
func (r *Registry) NewCell() *Cell {
	if r == nil {
		return nil
	}
	c := &Cell{}
	r.mu.Lock()
	r.cells = append(r.cells, c)
	r.mu.Unlock()
	return c
}

// ReleaseCell unregisters c, folding its counts into the retired
// accumulator so totals stay monotonic across owner churn.
func (r *Registry) ReleaseCell(c *Cell) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, other := range r.cells {
		if other == c {
			r.cells = append(r.cells[:i], r.cells[i+1:]...)
			for ctr := 0; ctr < NumCounters; ctr++ {
				r.retired[ctr] += c.load(Counter(ctr))
			}
			return
		}
	}
}

// Shared returns the registry's fallback cell for pathways that have no
// per-mutator owner. Use only the Atomic* methods on it.
func (r *Registry) Shared() *Cell {
	if r == nil {
		return nil
	}
	return r.shared
}

// RegisterGauge installs a named gauge callback, sampled at snapshot
// time. Re-registering a name replaces the callback. fn must be safe to
// call from any goroutine.
func (r *Registry) RegisterGauge(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// UnregisterGauge removes a gauge.
func (r *Registry) UnregisterGauge(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.gauges, name)
	r.mu.Unlock()
}

// Hist returns the named histogram, creating it on first use. Returns
// nil (valid, no-op) on a nil registry.
func (r *Registry) Hist(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RecordSpan appends one timed phase event to the span ring and observes
// its duration in the histogram of the same name. shard and worker are
// -1 when not applicable.
func (r *Registry) RecordSpan(name string, shard, worker int, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	r.spans.Record(name, shard, worker, start, d)
	r.Hist(name).Observe(d)
}

// Span times fn and records it; the convenience form for serial phases.
func (r *Registry) Span(name string, shard, worker int, fn func()) {
	if r == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	r.RecordSpan(name, shard, worker, start, time.Since(start))
}

// Spans returns the retained span events, oldest first.
func (r *Registry) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans.Snapshot()
}

// Snapshot folds every registered cell (plus the retired accumulator,
// the shared cell, gauges, histograms, and retained spans) into one
// consistent-enough view: each counter is read with one atomic load, so
// under live traffic the snapshot is per-counter atomic — and because
// counters only grow and released cells fold into the retired
// accumulator under the same lock, successive snapshots are monotonic
// per counter.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: make(map[string]uint64),
		Gauges:   make(map[string]int64),
		Hists:    make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	totals := r.retired
	for _, c := range r.cells {
		for ctr := 0; ctr < NumCounters; ctr++ {
			totals[ctr] += c.load(Counter(ctr))
		}
	}
	for ctr := 0; ctr < NumCounters; ctr++ {
		totals[ctr] += r.shared.load(Counter(ctr))
	}
	gauges := make([]string, 0, len(r.gauges))
	for name := range r.gauges {
		gauges = append(gauges, name)
	}
	fns := make([]func() int64, len(gauges))
	for i, name := range gauges {
		fns[i] = r.gauges[name]
	}
	for name, h := range r.hists {
		s.Hists[name] = h.Snapshot()
	}
	r.mu.Unlock()

	for ctr := 0; ctr < NumCounters; ctr++ {
		s.Counters[Counter(ctr).Name()] = totals[ctr]
	}
	// Gauges run outside the lock: a callback may take its own lock (ctx
	// pools do) and must not nest under the registry's.
	for i, name := range gauges {
		s.Gauges[name] = fns[i]()
	}
	s.Spans = r.spans.Snapshot()
	// The span ring's overwrite count rides along as a counter so both
	// export formats say when the retained spans are a suffix, not the
	// whole history.
	s.Counters["spans.dropped"] = r.spans.Dropped()
	return s
}

// Snapshot is one folded view of a registry — the exchange format for
// exporters, aggregation across shards, and tests.
type Snapshot struct {
	Counters map[string]uint64            `json:"counters"`
	Gauges   map[string]int64             `json:"gauges"`
	Hists    map[string]HistogramSnapshot `json:"histograms"`
	Spans    []Span                       `json:"spans,omitempty"`
}

// Add folds other into s counter-by-counter (gauges and histogram
// buckets sum; spans concatenate, ordered by start) — per-shard
// aggregation for sharded sets.
func (s *Snapshot) Add(other Snapshot) {
	for k, v := range other.Counters {
		s.Counters[k] += v
	}
	for k, v := range other.Gauges {
		s.Gauges[k] += v
	}
	for k, v := range other.Hists {
		h := s.Hists[k]
		h.Count += v.Count
		h.SumNS += v.SumNS
		for i := range v.Buckets {
			h.Buckets[i] += v.Buckets[i]
		}
		if v.MaxNS > h.MaxNS {
			h.MaxNS = v.MaxNS
		}
		s.Hists[k] = h
	}
	s.Spans = append(s.Spans, other.Spans...)
	sort.SliceStable(s.Spans, func(i, j int) bool { return s.Spans[i].Start.Before(s.Spans[j].Start) })
}

// Counter returns one counter by name (0 when absent).
func (s *Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// SpanTotal sums the durations of every retained span with the given
// name — the phase-decomposition accessor the GC timeline checks use.
func (s *Snapshot) SpanTotal(name string) time.Duration {
	var d time.Duration
	for _, sp := range s.Spans {
		if sp.Name == name {
			d += sp.Dur
		}
	}
	return d
}
