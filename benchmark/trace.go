package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"espresso/internal/nvm"
)

// The traced run replays one seeded op stream once per entry point — the
// facade, then a client-held context of the next layer down, and so on —
// wrapping every call in a span recorded from the benchmark's own files.
// A layer's self time is its entry point's median minus the next lower
// entry point's; the device layer, which cannot be entered separately, is
// the recorded device-op counts priced at unit costs measured on a raw
// nvm.Device. Spans inside the program are a later issue.

// span is one timed call at a layer boundary.
type span struct {
	Name   string `json:"name"`   // entry point and op kind, e.g. "pindex.get"
	Start  int64  `json:"start"`  // ns since the tracer's epoch
	End    int64  `json:"end"`    // ns since the tracer's epoch
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for none
	Op     int32  `json:"op"`     // op index in the stream; spans of one op share it
}

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span and returns its index.
func (t *tracer) open(name string, parent, op int32) int32 {
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(id int32) { t.spans[id].End = t.now() }

// maxSpansWritten bounds the trace file: the head of every pass is kept,
// the medians are computed over all spans in memory.
const maxSpansWritten = 50_000

// write stores the first maxSpansWritten spans of the run as JSON.
func (t *tracer) write(cfg config) error {
	n := min(len(t.spans), maxSpansWritten)
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Total    int    `json:"spans_recorded"`
		Spans    []span `json:"spans"`
	}{cfg.workload, cfg.seed, len(t.spans), t.spans[:n]})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), b, 0o644)
}

// timerNs is the cost of an empty span: what every measured span carries
// on top of the call it wraps.
func (t *tracer) timerNs() float64 {
	var d []int64
	for i := 0; i < 20000; i++ {
		s := t.now()
		d = append(d, t.now()-s)
	}
	return quantileNs(d, 0.5)
}

// tracedPass replays a 1c op stream through one entry point: op i is
// wrapped in a span named entry+"."+kind(i), child of one span covering
// the pass. Per-kind span durations are appended to durs; the pass's wall
// time is returned.
func (t *tracer) tracedPass(entry string, ops int, kind func(i int) string, step func(i int), durs map[string][]int64) time.Duration {
	runtime.GC()
	names := map[string]string{}
	parent := t.open(entry, -1, -1)
	start := time.Now()
	for i := 0; i < ops; i++ {
		k := kind(i)
		name, ok := names[k]
		if !ok {
			name = entry + "." + k
			names[k] = name
		}
		s := t.now()
		step(i)
		e := t.now()
		t.spans = append(t.spans, span{Name: name, Start: s, End: e, Parent: parent, Op: int32(i)})
		durs[k] = append(durs[k], e-s)
	}
	wall := time.Since(start)
	t.close(parent)
	return wall
}

// traceRounds is how often the entry points are cycled through. A pass
// runs a few percent faster or slower for reasons that have nothing to do
// with its entry point (what ran before it, where the scheduler put it),
// and a layer's self time is a difference of passes; pooling each entry's
// spans over interleaved rounds keeps that drift out of the difference.
const traceRounds = 2

// tracedEntries cycles traceRounds times through the entry points,
// replaying the stream once per entry and round, and returns each entry's
// per-kind span medians plus the wall time of the first entry's passes.
func (t *tracer) tracedEntries(names []string, ops int, kind func(i int) string, step func(entry, round, i int)) ([]map[string]float64, time.Duration) {
	durs := make([]map[string][]int64, len(names))
	for e := range durs {
		durs[e] = map[string][]int64{}
	}
	var firstWall time.Duration
	for round := 0; round < traceRounds; round++ {
		for e, name := range names {
			wall := t.tracedPass(name, ops, kind, func(i int) { step(e, round, i) }, durs[e])
			if e == 0 {
				firstWall += wall
			}
		}
	}
	out := make([]map[string]float64, len(names))
	for e := range durs {
		out[e] = medians(durs[e])
	}
	return out, firstWall / traceRounds
}

// medians reduces per-kind durations to per-kind medians.
func medians(durs map[string][]int64) map[string]float64 {
	out := map[string]float64{}
	for k, d := range durs {
		out[k] = quantileNs(d, 0.5)
	}
	return out
}

// unitCosts are the host costs of the simulator's own operations.
type unitCosts struct {
	read, write, flush, fence float64 // one goroutine
	read2c, flush2c           float64 // two goroutines, disjoint lines, one device
}

// hostNs prices a device-traffic delta at the unit costs.
func (u unitCosts) hostNs(s nvm.Stats) float64 {
	return float64(s.Reads)*u.read + float64(s.Writes)*u.write +
		float64(s.FlushedLines)*u.flush + float64(s.Fences)*u.fence
}

const (
	unitProbeOps    = 1 << 20
	unitProbeWindow = 16 << 10 // bytes each probing goroutine cycles over
)

// measureUnitCosts times Device.ReadU64/WriteU64/Flush/Fence in a tight
// loop on a fresh device of the given size. Each loop cycles over its own
// cache-resident window, so what is timed is the simulator's bookkeeping
// (bounds check, traffic counters, dirty tracking), not the cache miss a
// real access to that much memory would also pay on DRAM — that miss
// belongs to the layer that chose the access pattern.
func measureUnitCosts(size int) unitCosts {
	dev := nvm.New(nvm.Config{Size: size})
	// loop times fn over unitProbeOps word offsets inside window g.
	loop := func(g int, fn func(off int)) float64 {
		base, off := g*unitProbeWindow, 0
		start := time.Now()
		for i := 0; i < unitProbeOps; i++ {
			fn(base + off)
			if off += nvm.LineSize; off == unitProbeWindow {
				off = 0
			}
		}
		return float64(time.Since(start)) / unitProbeOps
	}
	var sinks [2]uint64
	u := unitCosts{}
	u.write = loop(0, func(off int) { dev.WriteU64(off, uint64(off)) })
	u.read = loop(0, func(off int) { sinks[0] += dev.ReadU64(off) })
	u.flush = loop(0, func(off int) { dev.Flush(off, 8) })
	u.fence = loop(0, func(int) { dev.Fence() })
	// Two goroutines on disjoint windows of the same device: they share no
	// data, only the device's own bookkeeping.
	pair := func(fn func(g, off int)) float64 {
		res := make(chan float64, 2)
		for g := 0; g < 2; g++ {
			go func(g int) { res <- loop(g, func(off int) { fn(g, off) }) }(g)
		}
		return (<-res + <-res) / 2
	}
	u.read2c = pair(func(g, off int) { sinks[g] += dev.ReadU64(off) })
	u.flush2c = pair(func(_, off int) { dev.Flush(off, 8) })
	return u
}

// report stores the unit costs as nvm.* per-layer metrics.
func (u unitCosts) report(r *report) {
	r.layer["nvm.read_ns"] = u.read
	r.layer["nvm.write_ns"] = u.write
	r.layer["nvm.flush_ns"] = u.flush
	r.layer["nvm.fence_ns"] = u.fence
	r.layer["nvm.read_ns_2c"] = u.read2c
	r.layer["nvm.flush_ns_2c"] = u.flush2c
	r.layer["nvm.contention_2c"] = u.read2c / u.read
}

// reportDeviceCounts stores a 1c pass's exact per-op device counts.
func reportDeviceCounts(r *report, p passResult, userBytes float64, u unitCosts) {
	ops := float64(p.ops)
	r.layer["nvm.reads_per_op"] = float64(p.dev.Reads) / ops
	r.layer["nvm.writes_per_op"] = float64(p.dev.Writes) / ops
	r.layer["nvm.flushed_lines_per_op"] = float64(p.dev.FlushedLines) / ops
	r.layer["nvm.fences_per_op"] = float64(p.dev.Fences) / ops
	if userBytes > 0 {
		r.layer["nvm.flushed_bytes_per_user_byte"] = float64(p.dev.FlushedLines) * nvm.LineSize / userBytes
	}
	r.layer["nvm.host_ns_per_op"] = u.hostNs(p.dev) / ops
	r.layer["espresso.host_allocs_per_op"] = float64(p.allocs) / ops
	r.layer["espresso.host_alloc_bytes_per_op"] = float64(p.allocBytes) / ops
}

// reportPassPair stores what the untraced 1c and 2c reference passes say
// about scaling and the tail: reported, not gated.
func reportPassPair(r *report, p1, p2 passResult) {
	r.layer["espresso.scale_2c"] = p2.opsPerSec() / p1.opsPerSec()
	r.layer["espresso.ops_per_s_1c"] = p1.opsPerSec()
	r.layer["espresso.op_p99_ns"] = quantileNs(p2.lat, 0.99)
}

// layerRow is one line of the attribution table.
type layerRow struct {
	layer string
	self  float64
}

// attribute prints the self-time table of one op kind and stores the
// selves as <layer>.self_ns_per_op. facade is the facade entry's median
// with the span overhead removed; what the rows do not cover (negative
// selves are clamped to zero) is reported as trace.unattributed_ns.
func attribute(r *report, kind string, facade float64, rows []layerRow) {
	fmt.Printf("# layer self time of one %s, ns (facade median %.0f)\n", kind, facade)
	sum := 0.0
	for _, row := range rows {
		self := max(row.self, 0)
		sum += self
		if row.layer != "nvm" { // the device layer's number is nvm.host_ns_per_op
			r.layer[row.layer+".self_ns_per_op"] = self
		}
		fmt.Printf("#   %-10s %8.0f  %5.1f%%\n", row.layer, self, 100*self/facade)
	}
	r.layer["trace.facade_ns_per_op"] = facade
	r.layer["trace.unattributed_ns"] = facade - sum
	fmt.Printf("#   %-10s %8.0f  %5.1f%%\n", "unattributed", facade-sum, 100*(facade-sum)/facade)
	r.info["attributed_kind"] = kind
}
