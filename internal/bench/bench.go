// Package bench provides the measurement plumbing shared by the
// evaluation harness: phase-time breakdowns (Figures 4, 6, 17) and the
// table printer.
package bench

import (
	"fmt"
	"io"
	"time"
)

// Breakdown accumulates wall time per named phase. It is how the harness
// reproduces the paper's stacked-bar charts: instrument the real code
// paths, run the real workload, report the split.
type Breakdown struct {
	phases map[string]time.Duration
	order  []string
	start  time.Time
	// modeled is the part of each phase charged via Add: modelled
	// (non-wall-clock) time, e.g. NVM media latency for flushed lines. Its
	// sum extends the total so fractions stay coherent.
	modeled map[string]time.Duration
}

// NewBreakdown creates an empty breakdown and starts its total clock.
func NewBreakdown() *Breakdown {
	return &Breakdown{phases: make(map[string]time.Duration), modeled: make(map[string]time.Duration), start: time.Now()}
}

// Phase starts timing a phase; the returned func stops it. Usage:
//
//	stop := b.Phase("Transformation")
//	... work ...
//	stop()
func (b *Breakdown) Phase(name string) func() {
	if b == nil {
		return func() {}
	}
	if _, ok := b.phases[name]; !ok {
		b.order = append(b.order, name)
	}
	t0 := time.Now()
	return func() { b.phases[name] += time.Since(t0) }
}

// Add charges modelled (non-wall-clock) time to a phase; it extends the
// breakdown's total as well.
func (b *Breakdown) Add(name string, d time.Duration) {
	if b == nil {
		return
	}
	if _, ok := b.phases[name]; !ok {
		b.order = append(b.order, name)
	}
	b.phases[name] += d
	b.modeled[name] += d
}

// Get reports a phase's accumulated time.
func (b *Breakdown) Get(name string) time.Duration { return b.phases[name] }

// Modeled reports the part of a phase's time that was charged through
// Add: a function of what the phase did, not of how long it took.
func (b *Breakdown) Modeled(name string) time.Duration { return b.modeled[name] }

// Total reports wall time since the breakdown started plus any modelled
// time charged through Add.
func (b *Breakdown) Total() time.Duration {
	total := time.Since(b.start)
	for _, d := range b.modeled {
		total += d
	}
	return total
}

// Phases returns phase names in first-use order.
func (b *Breakdown) Phases() []string { return b.order }

// Other returns total minus the sum of recorded phases (the "Other" bar
// segment of the paper's figures).
func (b *Breakdown) Other() time.Duration {
	sum := time.Duration(0)
	for _, d := range b.phases {
		sum += d
	}
	if t := b.Total(); t > sum {
		return t - sum
	}
	return 0
}

// Fractions reports each phase (plus "Other") as a fraction of total.
func (b *Breakdown) Fractions() map[string]float64 {
	total := b.Total()
	out := make(map[string]float64, len(b.phases)+1)
	if total == 0 {
		return out
	}
	for name, d := range b.phases {
		out[name] = float64(d) / float64(total)
	}
	out["Other"] = float64(b.Other()) / float64(total)
	return out
}

// PrintFractions writes a one-bar breakdown like the paper's Figure 4/6.
func (b *Breakdown) PrintFractions(w io.Writer, title string) {
	fmt.Fprintf(w, "%s (total %v)\n", title, b.Total().Round(time.Microsecond))
	names := append([]string(nil), b.order...)
	names = append(names, "Other")
	fr := b.Fractions()
	for _, n := range names {
		fmt.Fprintf(w, "  %-16s %6.1f%%\n", n, fr[n]*100)
	}
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
