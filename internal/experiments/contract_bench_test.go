package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"espresso/internal/nvm"
)

// BenchmarkContract is the contract's clock: every row with a body, at
// the pinned parameters, as BenchmarkContract/<experiment>/<row
// key>[/<side>]. A walk's loop is timed in rounds: each round builds the
// walk afresh and runs the loops ahead of the target with the timer
// stopped, then the target's body for up to its pinned iters with the
// timer on — so with b.N a multiple of iters every round is the loop the
// contract counts. A scaling point's rounds set its workload up at up to
// the pinned ops and time its mutators' bodies. Each reports ns/op beside
// the timed ops' devreads/op, devwrites/op, devlines/op and devfences/op.
//
// A round rebuilds its fixtures, so give loops with few iters (fig18's
// loads and gcflush's collection run once a round) a -benchtime of Nx.
func BenchmarkContract(b *testing.B) {
	for i := range Contracts {
		c := &Contracts[i]
		if c.walks == nil && workloads[c.Name] == nil {
			continue // untimed: contract.go says why
		}
		b.Run(c.Name, func(b *testing.B) {
			targets, err := timedRows(c)
			if err != nil {
				b.Fatal(err)
			}
			for _, t := range targets {
				b.Run(t.name, t.bench)
			}
		})
	}
}

// target is one sub-benchmark of BenchmarkContract/<experiment>.
type target struct {
	name  string // <row key>[/<side>]
	bench func(*testing.B)
}

// timedRows lists c's sub-benchmarks at its pinned parameters, none for
// an untimed experiment. Naming a walk's loops means building the walk
// once.
func timedRows(c *Contract) ([]target, error) {
	var ts []target
	if w := workloads[c.Name]; w != nil {
		for _, p := range w.curve(c.Pinned.Shards, c.Pinned.Mutators) {
			key := fmt.Sprintf("%s/%d", w.series, p.mutators)
			if p.shards > 0 {
				key = fmt.Sprintf("%s/%d/%d", w.series, p.shards, p.mutators)
			}
			perG := w.perMutator(c.Pinned.Scale, p)
			ts = append(ts, target{key, func(b *testing.B) { benchPoint(b, w, p, perG) }})
		}
		return ts, nil
	}
	if c.walks == nil {
		return nil, nil // untimed: contract.go says why
	}
	for _, build := range c.walks(c.Pinned.Scale) {
		w, err := build()
		if err != nil {
			return nil, err
		}
		for k, l := range w.loops {
			name := l.key
			if l.side != "" {
				name += "/" + l.side
			}
			ts = append(ts, target{name, func(b *testing.B) { benchLoop(b, build, k) }})
		}
	}
	return ts, nil
}

// benchLoop times loop k of the walks build makes.
func benchLoop(b *testing.B, build builder, k int) {
	b.StopTimer()
	var d nvm.Stats
	for done := 0; done < b.N; {
		w, err := build()
		if err != nil {
			b.Fatal(err)
		}
		for _, l := range w.loops[:k] {
			w.ready()
			if err := l.run(); err != nil {
				b.Fatal(err)
			}
		}
		w.ready()
		l := w.loops[k]
		n := min(l.iters, b.N-done)
		s0 := sumStats(w.devs)
		b.StartTimer()
		for i := 0; i < n; i++ {
			if err := l.body(i); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		d = d.Add(sumStats(w.devs).Sub(s0))
		done += n
	}
	reportDev(b, d, b.N)
}

// benchPoint times the mutators' bodies at point p of w's curve, in
// rounds of up to perG ops a mutator; ns/op is per op of all mutators.
func benchPoint(b *testing.B, w *workload, p point, perG int) {
	b.StopTimer()
	timed := func(bodies func() error) error {
		b.StartTimer()
		defer b.StopTimer()
		return bodies()
	}
	var d nvm.Stats
	ops := 0
	for ops < b.N {
		e := env{point: p, ops: min(perG, (b.N-ops+p.mutators-1)/p.mutators)}
		row, err := w.measure(e, timed)
		if err != nil {
			b.Fatal(err)
		}
		d = d.Add(row.raw)
		ops += e.mutators * e.ops
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/op")
	reportDev(b, d, ops)
}

func reportDev(b *testing.B, d nvm.Stats, ops int) {
	n := float64(ops)
	b.ReportMetric(float64(d.Reads)/n, "devreads/op")
	b.ReportMetric(float64(d.Writes)/n, "devwrites/op")
	b.ReportMetric(float64(d.FlushedLines)/n, "devlines/op")
	b.ReportMetric(float64(d.Fences)/n, "devfences/op")
}

// TestEveryRowHasOneBody holds BenchmarkContract to the baselines: every
// row of a committed BENCH_<name>.json has exactly one sub-benchmark per
// side of its experiment unless contract.go says why it is untimed, and
// every sub-benchmark names such a row — so an experiment that is neither
// timed nor says why not fails on its rows.
func TestEveryRowHasOneBody(t *testing.T) {
	sides := map[string][]string{
		"fig15":   {"pcj", "espresso"},
		"fig16":   {"jpa", "pjo"},
		"fig18":   {"ug", "zero"},
		"gcflush": {"clflush", "no-clflush"},
	}
	for i := range Contracts {
		c := &Contracts[i]
		t.Run(c.Name, func(t *testing.T) {
			committed, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+c.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			untimed := func(key string) bool {
				for prefix := range c.untimed {
					if strings.HasPrefix(key, prefix) {
						return true
					}
				}
				return false
			}
			var want []string
			for _, r := range toJSONRows(t, committed) {
				key := rowKey(r)
				if untimed(key) {
					continue
				}
				if len(sides[c.Name]) == 0 {
					want = append(want, key)
				}
				for _, s := range sides[c.Name] {
					want = append(want, key+"/"+s)
				}
			}
			ts, err := timedRows(c)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, tg := range ts {
				got = append(got, tg.name)
			}
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("sub-benchmarks %q,\nwant one per timed row and side %q", got, want)
			}
		})
	}
}
