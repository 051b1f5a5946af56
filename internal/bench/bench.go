// Package bench provides the measurement plumbing shared by the
// evaluation harness: the phase hook the JPA, PJO and PCJ code paths
// report through (Figures 4, 6 and 17), its two implementations — a
// wall-clock Breakdown and a Counter of allocations and device traffic —
// and the table printer.
package bench

import (
	"fmt"
	"io"
	"runtime/metrics"
	"slices"
	"time"

	"espresso/internal/nvm"
)

// Profiler is the phase hook of an instrumented code path: Phase opens
// the named phase and the returned func closes it. Phases do not nest.
type Profiler interface {
	Phase(name string) func()
}

// Start opens name on p; with no profiler installed it does nothing.
func Start(p Profiler, name string) func() {
	if p == nil {
		return func() {}
	}
	return p.Phase(name)
}

// Breakdown accumulates wall time per named phase: the hook's
// implementation for a clock (benchmark/'s traced jpab_pjo runs).
type Breakdown struct {
	phases map[string]time.Duration
	start  time.Time
}

// NewBreakdown creates an empty breakdown and starts its total clock.
func NewBreakdown() *Breakdown {
	return &Breakdown{phases: make(map[string]time.Duration), start: time.Now()}
}

// Phase starts timing a phase; the returned func stops it.
func (b *Breakdown) Phase(name string) func() {
	if b == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { b.phases[name] += time.Since(t0) }
}

// Fractions reports each phase, plus "Other" (the time since the
// breakdown started that no phase recorded), as a fraction of that time.
func (b *Breakdown) Fractions() map[string]float64 {
	total := time.Since(b.start)
	out := make(map[string]float64, len(b.phases)+1)
	if total == 0 {
		return out
	}
	other := total
	for name, d := range b.phases {
		out[name] = float64(d) / float64(total)
		other -= d
	}
	out["Other"] = float64(max(other, 0)) / float64(total)
	return out
}

// Counter counts, per named phase, the Go heap objects allocated inside
// it and, when given a device, that device's traffic. Nothing it reads is
// a clock.
//
// The allocation count is runtime/metrics' objects plus tiny objects: no
// stop-the-world, but the runtime publishes a size class's allocations
// when its cached span is swapped out, so a short window's count can be
// off by a span either way and only many windows' sum is meaningful. The
// device delta is exact. The counter does not count itself: a phase's
// slot and the closing func exist before its window opens.
type Counter struct {
	dev     *nvm.Device
	phases  []PhaseCount
	open    int // index into phases, -1 between phases
	allocs0 uint64
	dev0    nvm.Stats
	samples [2]metrics.Sample
	stop    func()
}

// PhaseCount is what one phase accumulated over all its windows.
type PhaseCount struct {
	Name   string
	Allocs uint64
	Dev    nvm.Stats
}

// NewCounter returns a counter; dev may be nil.
func NewCounter(dev *nvm.Device) *Counter {
	c := &Counter{dev: dev, open: -1}
	c.samples[0].Name = "/gc/heap/allocs:objects"
	c.samples[1].Name = "/gc/heap/tiny/allocs:objects"
	c.stop = c.close
	return c
}

// Phase opens a window on name.
func (c *Counter) Phase(name string) func() {
	if c.open >= 0 {
		panic("bench: phase " + name + " opened inside " + c.phases[c.open].Name)
	}
	c.open = slices.IndexFunc(c.phases, func(p PhaseCount) bool { return p.Name == name })
	if c.open < 0 {
		c.open = len(c.phases)
		c.phases = append(c.phases, PhaseCount{Name: name})
	}
	c.dev0 = c.devStats()
	c.allocs0 = c.allocs()
	return c.stop
}

// close ends the open window: the allocator first, so that reading the
// device falls outside it.
func (c *Counter) close() {
	p := &c.phases[c.open]
	p.Allocs += c.allocs() - c.allocs0
	p.Dev = p.Dev.Add(c.devStats().Sub(c.dev0))
	c.open = -1
}

func (c *Counter) allocs() uint64 {
	metrics.Read(c.samples[:])
	return c.samples[0].Value.Uint64() + c.samples[1].Value.Uint64()
}

func (c *Counter) devStats() nvm.Stats {
	if c.dev == nil {
		return nvm.Stats{}
	}
	return c.dev.Stats()
}

// Phases returns every phase's counts, in first-use order.
func (c *Counter) Phases() []PhaseCount { return c.phases }

// Get returns one phase's counts (zero if it never opened).
func (c *Counter) Get(name string) PhaseCount {
	for _, p := range c.phases {
		if p.Name == name {
			return p
		}
	}
	return PhaseCount{Name: name}
}

// Table prints aligned rows (the harness's generic figure/table printer).
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Print writes the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		for j := 0; j < widths[i]; j++ {
			sep[i] += "-"
		}
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}
