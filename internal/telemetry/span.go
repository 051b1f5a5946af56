package telemetry

import (
	"sync"
	"time"
)

// Span taxonomy. Spans are timed phase events, not per-op traces: a GC
// cycle emits on the order of ten, a shard recovery a handful. Names are
// hierarchical and fixed so dashboards and tests can match exactly.
//
// GC (emitted by internal/pgc):
//
//	gc.handshake   initial safepoint handshake (concurrent cycles)
//	gc.mark        marking — concurrent with mutators, or in-pause (STW)
//	gc.mark.worker one per mark worker: that worker's loop wall time
//	gc.finalpause  the whole remark+compact pause (concurrent cycles)
//	gc.remark      final SATB drain + allocate-black sweep (inside finalpause)
//	gc.summarize   bitmap summary (inside finalpause, or the STW pause)
//	gc.compact     move + reference-fix + fill passes
//	gc.fix.worker  one per compaction fix worker
//	gc.redo        redo-log finish batch append + commit
//	gc.stw         the whole pause of a stop-the-world collection
//
// Safepoints (emitted by internal/core):
//
//	safepoint.wait time from a pause request to world-stopped
//
// Recovery (emitted by pgc.RecoverIfNeeded, pindex recovery, pshard.OpenSet):
//
//	recovery.gc     resumed compaction replay of a mid-GC crash
//	recovery.index  index recovery pass (prune persisted deletes, recount)
//	shard.recover   one shard's full reopen (load + GC recover + index)
//	shard.open      the whole set reopen, all shards joined
const (
	SpanGCHandshake  = "gc.handshake"
	SpanGCMark       = "gc.mark"
	SpanGCMarkWorker = "gc.mark.worker"
	SpanGCFinalPause = "gc.finalpause"
	SpanGCRemark     = "gc.remark"
	SpanGCSummarize  = "gc.summarize"
	SpanGCCompact    = "gc.compact"
	SpanGCFixWorker  = "gc.fix.worker"
	SpanGCRedo       = "gc.redo"
	SpanGCSTW        = "gc.stw"
	SpanSafepoint    = "safepoint.wait"
	SpanRecoveryGC   = "recovery.gc"
	SpanRecoveryIdx  = "recovery.index"
	SpanShardRecover = "shard.recover"
	SpanShardOpen    = "shard.open"
)

// Span is one recorded phase event.
type Span struct {
	Seq    uint64        `json:"seq"`              // monotonic per recorder
	Name   string        `json:"name"`             // taxonomy constant above
	Shard  int           `json:"shard,omitempty"`  // -1 when not sharded
	Worker int           `json:"worker,omitempty"` // -1 for serial phases
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
}

// DefaultSpanDepth is the ring capacity: enough for hundreds of GC
// cycles of history in a few tens of KB of DRAM.
const DefaultSpanDepth = 2048

// SpanRecorder is a bounded in-DRAM ring buffer of phase events. Spans
// are emitted from cold phase boundaries (a pause start, a recovery
// join), never from per-op paths, so a mutex is the right tool: the
// critical section is an index bump and a struct copy.
type SpanRecorder struct {
	mu   sync.Mutex
	ring []Span
	next uint64 // total spans ever recorded; ring slot is next % len
}

// NewSpanRecorder creates a ring holding the last depth spans.
func NewSpanRecorder(depth int) *SpanRecorder {
	if depth < 1 {
		depth = 1
	}
	return &SpanRecorder{ring: make([]Span, depth)}
}

// Record appends one span, overwriting the oldest when full.
func (sr *SpanRecorder) Record(name string, shard, worker int, start time.Time, d time.Duration) {
	if sr == nil {
		return
	}
	sr.mu.Lock()
	sr.ring[sr.next%uint64(len(sr.ring))] = Span{
		Seq: sr.next, Name: name, Shard: shard, Worker: worker, Start: start, Dur: d,
	}
	sr.next++
	sr.mu.Unlock()
}

// Snapshot returns the retained spans, oldest first.
func (sr *SpanRecorder) Snapshot() []Span {
	if sr == nil {
		return nil
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	n := sr.next
	depth := uint64(len(sr.ring))
	count := n
	if count > depth {
		count = depth
	}
	out := make([]Span, 0, count)
	for i := n - count; i < n; i++ {
		out = append(out, sr.ring[i%depth])
	}
	return out
}

// Dropped reports how many spans have been overwritten.
func (sr *SpanRecorder) Dropped() uint64 {
	if sr == nil {
		return 0
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.next <= uint64(len(sr.ring)) {
		return 0
	}
	return sr.next - uint64(len(sr.ring))
}
