// Package espresso is the public API of Espresso-Go, a reproduction of
// "Espresso: Brewing Java For More Non-Volatility with Non-volatile
// Memory" (ASPLOS 2018): a persistent Java heap (PJH) on simulated NVM
// with crash-consistent allocation and garbage collection, the pnew
// object model with alias-Klass type checks and three memory-safety
// levels, and the PJO persistence layer that replaces JPA's SQL
// transformation with direct persistent-object shipping.
//
// Quick start (the paper's Figure 11):
//
//	rt, _ := espresso.Open(espresso.Options{HeapDir: "/tmp/heaps"})
//	person := espresso.MustClass("Person", nil,
//		espresso.Long("id"), espresso.Str("name"))
//	if !rt.ExistsHeap("Jimmy") {
//		rt.CreateHeap("Jimmy", 16<<20)
//		p, _ := rt.PNew(person)
//		rt.SetLong(p, "id", 1)
//		name, _ := rt.NewString("Jimmy", true)
//		rt.SetRef(p, "name", name)
//		rt.FlushObject(p)
//		rt.SetRoot("Jimmy_info", p)
//	} else {
//		rt.LoadHeap("Jimmy")
//		p, _ := rt.GetRoot("Jimmy_info")
//		_ = p
//	}
//
// # Resolved field handles
//
// GetLong/SetRef resolve the class and field name on every call. Hot
// paths should resolve a FieldRef once — the analog of a resolved
// constant-pool entry in compiled bytecode — and access through it; the
// Fast accessors cost one device word operation plus the write barrier:
//
//	idF := rt.MustResolveField(person, "id")
//	nameF := rt.MustResolveField(person, "name")
//	p, _ := rt.PNew(person)
//	rt.SetLongFast(p, idF, 1)                  // no name map, no klass read
//	name, _ := rt.NewString("Jimmy", true)     // one bulk device write
//	rt.SetRefFast(p, nameF, name)              // full write barrier kept
//	id := rt.GetLongFast(p, idF)
//	_ = id
//
// Bulk transfers (CopyLongs, WriteLongs, CopyBytes, WriteBytes, string
// construction/reads) move whole spans with one device operation, and
// FlushTransitive/FlushBatch coalesce cache-line flushes with a single
// trailing fence, so device cost is proportional to bytes touched, not
// API calls made.
//
// # One object model, two receivers
//
// Everything above — pnew, field and array access, strings, bulk copies,
// flushes, roots, casts — is one surface (core.Accessor) with two
// receivers. Called on the Runtime it is safe from any goroutine and goes
// through one context per heap that every goroutine shares: the heap's
// lock-serialized allocator, one barrier-buffer pair behind one mutex, the
// shared safepoint and device-counter lines. Correct, and the slow path.
// Goroutines that allocate or mutate heavily should each attach a Mutator:
// the same methods, same names and signatures, on a context of their own —
// a persistent region-local allocation buffer (PLAB) that bump-allocates
// lock-free and persists a per-region top word, barrier buffers, a
// safepoint slot and a device-accounting view nobody else writes — so
// throughput scales with cores:
//
//	m, _ := rt.NewMutator()        // one per goroutine
//	defer m.Release()
//	p, _ := m.PNew(person, 0)      // arrayLen 0: lock-free after first use of a class
//	name, _ := m.NewString("Jimmy", true)
//	m.SetRefFast(p, nameF, name)
//
// A Mutator's reference stores share nothing either: the write barrier
// runs on the mutator's own buffers, and the shared remembered set learns
// of the stores only at publication points — transaction commit, GC
// safepoints, buffer overflow — so the hot store path touches no shared
// lock or cache line.
//
// # Persistent GC
//
// PersistentGC(name) is the persistent collector (System.gc() for the
// persistent space), returning a GCResult. It stops the world for the
// whole collection: it marks on GOMAXPROCS work-stealing workers and
// compacts on one, and the heap image is identical for every worker count
// — see docs/gc.md for the pipeline and its crash rule.
// Compaction moves objects and patches every root it can see — named
// roots, handles, heap and volatile slots — but never Go local variables, so code that
// mutates concurrently with collections must hold its references inside
// a Mutator.Do scope (which pins the world) or re-fetch them from roots
// after it. Inside Do, call the mutator — every method of the surface is
// re-entrant there, while the same call on the Runtime waits for a pause
// that is waiting for Do:
//
//	m.Do(func() {
//		head, _ := m.GetRoot("list")
//		n, _ := m.PNew(node, 0)
//		m.SetRefFast(n, nextF, head)
//		m.SetRoot("list", n)
//	})
//
// # Durable concurrent index
//
// OpenPMap returns a lock-free, resizable persistent hash map
// (internal/pindex) whose operations are durable-linearizable: when Put
// or Delete returns, the mutation is persisted — no FlushObject — and a
// crash at any point reloads exactly the committed mappings:
//
//	m, _ := rt.OpenPMap("Jimmy", "sessions", espresso.PMapOptions{})
//	m.Put(42, p)          // durable on return; safe from any goroutine
//	v, ok := m.Get(42)
//	m.Delete(42)
//
// # Sharded maps
//
// When one heap's collector pauses or one device's flush chain becomes
// the bottleneck, OpenSharded range-partitions a map over N independent
// persistent heaps (internal/pshard). Each shard owns its own device,
// region-top table, index, collector state, and safepoint domain, so
// collections pause one shard at a time and nothing — no lock, no fence,
// no cache line — is shared between shards. Reopening recovers all
// shards in parallel; restart time tracks the slowest shard:
//
//	s, _ := rt.OpenSharded("sessions", espresso.ShardedPMapOptions{Shards: 4})
//	s.Put(42, 1000)       // routed by hash range; durable on return
//	v, ok := s.Get(42)
//	s.GCShard(s.ShardOf(42))  // staggered pause: other shards keep serving
//
// See docs/sharding.md for the manifest format and crash rules.
//
// # The facade
//
// The facade re-exports the runtime in internal/core with small
// conveniences; the substrates (NVM device, heap, collectors, database,
// providers) live under internal/.
package espresso

import (
	"espresso/internal/core"
	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pgc"
	"espresso/internal/pheap"
	"espresso/internal/telemetry"
	"espresso/internal/vheap"
)

// Ref is an object reference (0 is null).
type Ref = layout.Ref

// Class describes an object layout (the Klass of the simulated JVM).
type Class = klass.Klass

// Field declares one instance field.
type Field = klass.Field

// Runtime is a simulated JVM instance with volatile and persistent heaps.
type Runtime struct {
	*core.Runtime
	telHTTP *telemetry.HTTPServer
}

// MetricsSnapshot is one folded view of the runtime's telemetry —
// counters, gauges, histograms, and the retained GC/recovery span
// timeline. Obtain one with Runtime.Metrics (or ShardedPMap.Metrics for
// a sharded set's per-shard aggregate).
type MetricsSnapshot = telemetry.Snapshot

// SpanEvent is one timestamped phase event in a metrics snapshot's
// timeline (GC phases, safepoint waits, recovery passes).
type SpanEvent = telemetry.Span

// FieldRef is a resolved field handle (klass identity + byte offset +
// type), the fast-path alternative to name-resolving accessors. Resolve
// once with ResolveField/MustResolveField, then use the *Fast accessors.
type FieldRef = core.FieldRef

// Mutator is a per-goroutine context carrying the whole object model on
// buffers of its own (PLAB, barrier buffers, safepoint slot, device view);
// obtain one with Runtime.NewMutator.
type Mutator = core.Mutator

// SafetyLevel selects the §3.4 memory-safety contract.
type SafetyLevel = core.SafetyLevel

// The three safety levels of the paper.
const (
	UserGuaranteed = core.UserGuaranteed
	Zeroing        = core.Zeroing
	TypeBased      = core.TypeBased
)

// GCResult reports a persistent collection.
type GCResult = pgc.Result

// Options configures Open.
type Options struct {
	// HeapDir persists heap images as files; empty keeps them in memory.
	HeapDir string
	// Safety selects the memory-safety level (default UserGuaranteed).
	Safety SafetyLevel
	// DefaultHeapSize is used by CreateHeap when size is 0 (default 16 MB).
	DefaultHeapSize int
	// TrackedNVM enables crash-image support on heap devices (slower).
	TrackedNVM bool
	// StrictCast disables alias Klasses, reproducing paper Figure 10.
	StrictCast bool
	// VolatileHeap sizes the DRAM young/old generations.
	VolatileHeap vheap.Config
	// Telemetry enables the runtime's observability registry: per-mutator
	// lock-free counter cells (allocation, barrier, index, and attributed
	// device traffic), GC phase spans, and latency histograms, folded on
	// demand by Runtime.Metrics. The mutator fast path stays free of
	// atomics and fences whether this is on or off; see
	// docs/observability.md for the metric catalog and overhead contract.
	Telemetry bool
	// TelemetryAddr additionally serves the metrics over HTTP on this
	// listen address ("localhost:9180", or ":0" to pick a free port —
	// read it back with Runtime.TelemetryAddr). GET /metrics renders
	// Prometheus text, GET /vars the expvar-style JSON snapshot that
	// `heaptool top` polls, and /debug/pprof/* the standard Go profiles
	// (GC pool workers and shard recovery goroutines carry pprof labels).
	// Setting it implies Telemetry.
	TelemetryAddr string
	// FlightRecorder journals every heap's publication points (create,
	// load, GC phase transitions, recovery, redo commit, PLAB handoffs,
	// safepoint aggregates) into the NVM ring each heap image carries, so
	// `heaptool postmortem` can reconstruct what the runtime was doing
	// from a crashed image alone. Each event is one 64-byte line write +
	// flush riding an already-fenced publication point: recording adds
	// zero fences to mutator fast paths.
	FlightRecorder bool
}

// Open boots a runtime.
func Open(opts Options) (*Runtime, error) {
	mode := nvm.Direct
	if opts.TrackedNVM {
		mode = nvm.Tracked
	}
	if opts.DefaultHeapSize == 0 {
		opts.DefaultHeapSize = 16 << 20
	}
	rt, err := core.NewRuntime(core.Config{
		HeapDir:        opts.HeapDir,
		Safety:         opts.Safety,
		Volatile:       opts.VolatileHeap,
		NVMMode:        mode,
		PJHDataSize:    opts.DefaultHeapSize,
		StrictCast:     opts.StrictCast,
		Telemetry:      opts.Telemetry || opts.TelemetryAddr != "",
		FlightRecorder: opts.FlightRecorder,
	})
	if err != nil {
		return nil, err
	}
	r := &Runtime{Runtime: rt}
	if opts.TelemetryAddr != "" {
		srv, err := telemetry.StartHTTP(opts.TelemetryAddr, rt.Telemetry())
		if err != nil {
			return nil, err
		}
		r.telHTTP = srv
	}
	return r, nil
}

// TelemetryAddr reports the metrics listener's bound address (empty when
// Options.TelemetryAddr was not set). With ":0" this is how callers
// learn the picked port.
func (rt *Runtime) TelemetryAddr() string {
	if rt.telHTTP == nil {
		return ""
	}
	return rt.telHTTP.Addr()
}

// Close makes every loaded heap's region tops exact (core.Runtime.Close)
// and shuts the runtime's exporter listener down (a no-op without
// TelemetryAddr). Heap images do not depend on it — durability is
// per-operation, and a load recovers what an unclosed image's tops trail
// — so this is the runtime's only lifecycle call.
func (rt *Runtime) Close() error {
	rt.Runtime.Close()
	if rt.telHTTP == nil {
		return nil
	}
	return rt.telHTTP.Close()
}

// NewClass declares a class. Use the Long/Str/RefTo field constructors.
func NewClass(name string, super *Class, fields ...Field) (*Class, error) {
	return klass.NewInstance(name, super, fields...)
}

// MustClass is NewClass for static declarations; panics on error.
func MustClass(name string, super *Class, fields ...Field) *Class {
	return klass.MustInstance(name, super, fields...)
}

// Long declares a 64-bit integer field.
func Long(name string) Field { return Field{Name: name, Type: layout.FTLong} }

// Double declares a float64 field (stored as its bit pattern).
func Double(name string) Field { return Field{Name: name, Type: layout.FTDouble} }

// Str declares a reference field typed as the built-in string class.
func Str(name string) Field {
	return Field{Name: name, Type: layout.FTRef, RefKlass: core.StringKlassName}
}

// RefTo declares a reference field with a declared class.
func RefTo(name, className string) Field {
	return Field{Name: name, Type: layout.FTRef, RefKlass: className}
}

// PNew allocates a persistent object (the pnew keyword).
func (rt *Runtime) PNew(k *Class) (Ref, error) { return rt.Runtime.PNew(k, 0) }

// PNewArray allocates a persistent object array (panewarray).
func (rt *Runtime) PNewArray(elemClass string, n int) (Ref, error) {
	return rt.Runtime.PNew(rt.Reg.ObjArray(elemClass), n)
}

// PNewLongArray allocates a persistent long[] (pnewarray).
func (rt *Runtime) PNewLongArray(n int) (Ref, error) {
	return rt.Runtime.PNew(rt.Reg.PrimArray(layout.FTLong), n)
}

// New allocates a volatile object (plain Java new).
func (rt *Runtime) New(k *Class) (Ref, error) { return rt.Runtime.New(k, 0) }

// CreateHeap creates a persistent heap (Table 1). size 0 uses the default.
func (rt *Runtime) CreateHeap(name string, size int) error {
	_, err := rt.Runtime.CreateHeap(name, size)
	return err
}

// LoadHeap loads an existing heap, running crash recovery and the
// configured safety scan (Table 1).
func (rt *Runtime) LoadHeap(name string) error {
	_, err := rt.Runtime.LoadHeap(name)
	return err
}

// Heap exposes a loaded heap by name (diagnostics, tooling).
func (rt *Runtime) Heap(name string) (*pheap.Heap, bool) {
	for _, h := range rt.Heaps() {
		if h.Name() == name {
			return h, true
		}
	}
	return nil, false
}
