package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"espresso/internal/nvm"
)

// clients2c is the client count of the "2c" pass. It is fixed at the
// sandbox's core count and never scaled with the host, so numbers from
// different hosts compare.
const clients2c = 2

// sampleEvery is the per-op latency sampling stride: ops whose index is a
// multiple of it are wrapped in a time.Now pair.
const sampleEvery = 8

// config is one run's knobs.
type config struct {
	workload string
	seed     int64
	seconds  float64 // timed-pass budget; repetitions stop once it is spent
	trace    bool
	quick    bool // 1/50 op counts, 1/16 key spaces, no clock budget: the smoke test
	outDir   string
	// breakOracle, test-only, corrupts the oracle's expectations so the
	// failure path (count, first key, non-zero exit) can be exercised.
	breakOracle bool
}

// ops scales a default op count for the quick smoke.
func (c config) ops(n int) int {
	if c.quick {
		return max(n/50, 64)
	}
	return n
}

// size scales a key-space, live-set, or heap size for the quick smoke.
func (c config) size(n int) int {
	if c.quick {
		return n / 16
	}
	return n
}

// minReps and maxReps bound the timed repetitions of a run: at least
// minReps so a median exists, at most maxReps so a fast host does not
// grow the heap (and peak RSS) without limit.
const (
	minReps = 3
	maxReps = 8
)

// repeatTimed runs rep(i) until the clock budget is spent, within
// [minReps, maxReps]. Quick runs do exactly one repetition. The process's
// peak resident set is read after repetition minReps, the last one every
// run is sure to do: how many more follow depends on how fast the host is
// today, and a heap that is never collected grows with each.
func (c config) repeatTimed(r *report, rep func(i int) error) (int, error) {
	if c.quick {
		err := rep(0)
		r.e2e["peak_rss_mb"] = peakRSSMB()
		return 1, err
	}
	start := time.Now()
	n := 0
	for n < maxReps && (n < minReps || time.Since(start).Seconds() < c.seconds) {
		if err := rep(n); err != nil {
			return n, err
		}
		if n++; n == minReps {
			r.e2e["peak_rss_mb"] = peakRSSMB()
		}
	}
	return n, nil
}

// tally counts one client's attempted and failed operations. Each client
// owns its own, so the hot path shares nothing.
type tally struct {
	attempted int64
	failed    int64
	first     string // first offending key/object, for the report
	_         [40]byte
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.first == "" {
		t.first = fmt.Sprintf(format, args...)
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.first == "" {
		t.first = o.first
	}
}

// passResult is what one closed-loop pass measured.
type passResult struct {
	ops        int
	wall       time.Duration
	lat        []int64 // sampled per-op latencies, ns, all clients
	dev        nvm.Stats
	allocs     uint64 // host (Go) heap allocations during the pass
	allocBytes uint64
}

func (p passResult) opsPerSec() float64 { return float64(p.ops) / p.wall.Seconds() }

// deviceNsPerOp is the repo's existing device model — flushed lines ×
// 300 ns, reads and fences free — stated as a model, not a measurement.
func (p passResult) deviceNsPerOp() float64 {
	return float64(p.dev.FlushedLines) * modeledLineNs / float64(p.ops)
}

const modeledLineNs = 300

// runPass drives a closed loop: each of `clients` goroutines issues
// opsPerClient operations back to back (the next op starts when the
// previous returns). step(c, i) performs client c's i-th operation.
// devStats sums the traffic counters of every device the workload owns.
func runPass(clients, opsPerClient int, devStats func() nvm.Stats, step func(c, i int)) passResult {
	lats := make([][]int64, clients)
	for c := range lats {
		lats[c] = make([]int64, 0, opsPerClient/sampleEvery+1)
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	dev0 := devStats()
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat := lats[c]
			<-gate
			for i := 0; i < opsPerClient; i++ {
				if i%sampleEvery == 0 {
					t0 := time.Now()
					step(c, i)
					lat = append(lat, int64(time.Since(t0)))
				} else {
					step(c, i)
				}
			}
			lats[c] = lat
		}(c)
	}
	start := time.Now()
	close(gate)
	wg.Wait()
	wall := time.Since(start)
	dev1 := devStats()
	runtime.ReadMemStats(&ms1)
	res := passResult{
		ops:        clients * opsPerClient,
		wall:       wall,
		dev:        dev1.Sub(dev0),
		allocs:     ms1.Mallocs - ms0.Mallocs,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
	}
	for _, l := range lats {
		res.lat = append(res.lat, l...)
	}
	return res
}

// series collects one value per repetition under a metric name; the
// reported number is the median across repetitions.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

func (s series) median(name string) float64 { return median(s[name]) }

// addPasses records what one repetition's 1c and 2c passes measured.
func (s series) addPasses(p1, p2 passResult) {
	s.add("ops_per_s_1c", p1.opsPerSec())
	s.add("ops_per_s", p2.opsPerSec())
	s.add("op_p50_ns", quantileNs(p2.lat, 0.50))
	s.add("op_p99_ns", quantileNs(p2.lat, 0.99))
	s.add("device_ns_per_op", p1.deviceNsPerOp())
	s.add("latency_samples", float64(len(p2.lat)))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the q-quantile of v by linear interpolation (0 for empty v).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quantileNs is quantile over raw nanosecond samples.
func quantileNs(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return float64(s[int(q*float64(len(s)-1))])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reads the process high-water resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// splitmix is the seeded 64-bit mixer behind every generated input: key
// scatter, value streams, sub-seeds per (repetition, pass, client).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed derives an independent stream seed from the run seed and a path
// of small integers (repetition, pass, client, ...).
func subSeed(seed int64, path ...int) int64 {
	x := splitmix(uint64(seed))
	for _, p := range path {
		x = splitmix(x ^ uint64(p+1))
	}
	return int64(x >> 1)
}

// prefault touches every page of the devices (rewriting one byte per page
// with the value it holds), so that preload and the timed passes find the
// memory behind the simulated NVM already there. In this sandbox the host
// backs guest memory on first touch, at a price that is its own and changes
// by the minute: kv_put's 2c throughput spread 15 % over five runs without
// this and 3.5 % with it. The time it takes is returned so that set-up can
// leave it out: it is the harness warming the host up, not the system
// setting itself up.
func prefault(devs ...*nvm.Device) time.Duration {
	start := time.Now()
	for _, d := range devs {
		for off := 0; off < d.Size(); off += 4096 {
			d.WriteByteAt(off, d.ReadByteAt(off))
		}
	}
	return time.Since(start)
}
