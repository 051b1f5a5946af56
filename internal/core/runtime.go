// Package core implements the Espresso runtime: the piece of the modified
// JVM that stitches the volatile ParallelScavenge heap, any number of
// persistent Java heaps, and the klass metaspace into one object world.
//
// It is the landing point for everything the paper adds to the language
// and runtime: the pnew allocation entry points (§3.2), the alias-Klass
// type checks (§3.2), the heap-management APIs of Table 1 (§3.3), the
// memory-safety levels (§3.4), the field/array/object flush primitives
// (§3.5), and the stop-the-world orchestration of the crash-consistent
// persistent GC (§4) with DRAM↔NVM cross-references handled by precise
// remembered sets.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/namemgr"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
	"espresso/internal/safepoint"
	"espresso/internal/telemetry"
	"espresso/internal/vheap"
)

// SafetyLevel selects the memory-safety contract for NVM→DRAM references
// (paper §3.4).
type SafetyLevel int

const (
	// UserGuaranteed: volatile pointers in persistent objects are the
	// programmer's problem after a reload. Fastest loads.
	UserGuaranteed SafetyLevel = iota
	// Zeroing: loadHeap scans the whole heap and nullifies stale volatile
	// pointers, so a careless access fails with a null dereference rather
	// than undefined behaviour. Load time grows with heap size.
	Zeroing
	// TypeBased: only classes annotated persistent may be pnew'd, their
	// ref fields must be persistent classes, and storing a volatile
	// reference into NVM is rejected — no pointer can dangle.
	TypeBased
)

func (s SafetyLevel) String() string {
	switch s {
	case UserGuaranteed:
		return "user-guaranteed"
	case Zeroing:
		return "zeroing"
	case TypeBased:
		return "type-based"
	default:
		return fmt.Sprintf("SafetyLevel(%d)", int(s))
	}
}

// Config assembles a runtime.
type Config struct {
	// HeapDir is where the external name manager stores heap images;
	// empty keeps heaps in memory only.
	HeapDir string
	// Safety is the memory-safety level (default UserGuaranteed).
	Safety SafetyLevel
	// Young configures the volatile heap.
	Volatile vheap.Config
	// NVMMode configures persistent devices.
	NVMMode nvm.Mode
	// PJHDataSize is the default data size for CreateHeap when the caller
	// passes size 0.
	PJHDataSize int
	// StrictCast disables the alias-Klass extension, reproducing the
	// spurious ClassCastException of paper Figure 10. For tests and demos.
	StrictCast bool
	// Telemetry enables the runtime's observability registry: per-mutator
	// counter cells, GC phase spans, latency histograms. Off (the default)
	// every instrumented path sees nil and records nothing; on, the mutator
	// fast paths still take no lock, fence, or device op — counts are
	// owner-local stores folded only when a snapshot asks.
	Telemetry bool
	// FlightRecorder enables the NVM-persisted event journal on every heap
	// this runtime creates or loads: GC phase transitions, safepoint
	// aggregates, recovery steps, redo commits, and PLAB handoffs are
	// appended to a per-heap ring that survives crashes and is decoded by
	// `heaptool postmortem`. Appends happen only at already-fenced
	// publication points (one line write + flush each, never a fence), so
	// mutator fast paths gain zero fences.
	FlightRecorder bool
}

// Runtime is one simulated JVM instance. Its object model is the embedded
// Accessor's, ownerless.
type Runtime struct {
	Accessor

	mu  sync.Mutex
	cfg Config

	// world is the safepoint — the mutator-handshake mechanism of the
	// persistent GC. Every heap-touching public operation is a safepoint
	// interval (mutators are "in" an op or parked between ops, never
	// mid-op when a pause begins): Runtime-level accessors pin world's
	// shared slot (its read lock), a Mutator its own; the collector's pauses
	// Stop the world, which returns exactly when every in-flight
	// operation has drained. It makes *persistent-heap* access safe
	// against collector pauses; the volatile heap keeps the seed's
	// single-volatile-mutator contract (vheap has no internal locking).
	// Internal (lowercase) helpers assume the caller is inside an
	// interval and must never enter another: a nested one can deadlock
	// against a waiting stop.
	world safepoint.Point

	// gcMu serializes persistent collections: a collector whose marking
	// phase runs with the world released must never overlap another
	// collection of the same runtime (pheap's per-heap guard is the
	// erroring backstop; this lock makes concurrent callers queue
	// instead).
	gcMu sync.Mutex

	Reg *klass.Registry
	vol *vheap.Heap
	mgr *namemgr.Manager

	// heaps is the runtime's address map: the loaded persistent heaps,
	// sorted by base address, as an immutable snapshot. attach publishes
	// a new one under mu and never edits a published one, so readers on
	// any goroutine scan it without a lock. The volatile heap's fixed
	// ranges are not in it: an access tests them only after a miss here.
	heaps    atomic.Pointer[[]*pheap.Heap]
	active   atomic.Pointer[pheap.Heap] // target of an ownerless PNew
	nextBase layout.Ref

	handles     []layout.Ref
	freeHandles []int

	// nvmToVol is the persistent-to-volatile remembered set: absolute
	// addresses of NVM slots that have held DRAM references since the set
	// last read them. The write barrier adds a slot after each volatile
	// store; the volatile collectors treat the slots that still hold one
	// as roots and patch them (see remset.go).
	nvmToVol *remset

	cp *klass.ConstantPool

	stringKlass *klass.Klass

	// tel is the runtime's observability registry (nil unless
	// Config.Telemetry): heaps report into it via pheap's cell
	// registration, the collectors emit phase spans, and the safepoint
	// machinery times pause handshakes.
	tel *telemetry.Registry

	// Safepoint aggregates for the flight recorder's EvSafepoint events:
	// pauses begun and total stop-the-world wait. Kept on the runtime (not
	// per heap) because the safepoint domain is the runtime.
	spWaits  atomic.Uint64
	spWaitNS atomic.Uint64
}

// StringKlassName is the name of the built-in string class (a packed byte
// array, standing in for java.lang.String).
const StringKlassName = "java/lang/String"

// NewRuntime boots a runtime.
func NewRuntime(cfg Config) (*Runtime, error) {
	reg := klass.NewRegistry()
	rt := &Runtime{
		cfg:      cfg,
		Reg:      reg,
		vol:      vheap.New(reg, cfg.Volatile),
		mgr:      namemgr.New(cfg.HeapDir, cfg.NVMMode),
		nvmToVol: newRemset(),
		cp:       klass.NewConstantPool(),
		nextBase: layout.DefaultPJHBase,
	}
	rt.heaps.Store(new([]*pheap.Heap))
	rt.Accessor.rt, rt.Accessor.slot = rt, rt.world.Shared()
	if cfg.Telemetry {
		rt.tel = telemetry.New()
	}
	sk := &klass.Klass{Name: StringKlassName, Kind: klass.KindPrimArray, Elem: layout.FTByte, Persistent: true}
	var err error
	if rt.stringKlass, err = reg.Define(sk); err != nil {
		return nil, err
	}
	return rt, nil
}

// Volatile exposes the volatile heap (tests, diagnostics).
func (rt *Runtime) Volatile() *vheap.Heap { return rt.vol }

// Telemetry returns the runtime's observability registry, nil when
// Config.Telemetry is off. Every registry method is nil-receiver-safe.
func (rt *Runtime) Telemetry() *telemetry.Registry { return rt.tel }

// Metrics folds the runtime's telemetry into one snapshot (empty when
// telemetry is disabled).
func (rt *Runtime) Metrics() telemetry.Snapshot { return rt.tel.Snapshot() }

// lockWorldCounted stops the world — the collector pause handshake —
// timing how long the world took to stop (mutators drain their in-flight
// ops) and recording it as a safepoint.wait span. It returns the wait so
// the flight recorder can journal the stop; the runtime-level aggregates
// feed the same EvSafepoint event. With neither telemetry nor the
// recorder enabled it is just the stop. Undo with rt.world.Start.
func (rt *Runtime) lockWorldCounted() time.Duration {
	if rt.tel == nil && !rt.cfg.FlightRecorder {
		rt.world.Stop()
		return 0
	}
	start := time.Now()
	rt.world.Stop()
	wait := time.Since(start)
	rt.spWaits.Add(1)
	rt.spWaitNS.Add(uint64(wait))
	if rt.tel != nil {
		rt.tel.RecordSpan(telemetry.SpanSafepoint, -1, -1, start, wait)
		rt.tel.Shared().AtomicInc(telemetry.CtrSafepointWaits)
	}
	return wait
}

// SafepointPin exposes the runtime's safepoint as a Pin/Unpin pair for
// an ownerless reader — the hook lock-free subsystems (internal/pindex)
// use to make each of their operations a safepoint interval without
// going through a Mutator. Pin must not be held across a call to any
// public Runtime or Mutator accessor (they enter an interval of their
// own) nor nested.
type SafepointPin struct{ rt *Runtime }

// SafepointPinner returns the runtime's safepoint pin handle.
func (rt *Runtime) SafepointPinner() SafepointPin { return SafepointPin{rt} }

// Pin enters a safepoint interval: no collector pause can begin until
// the matching Unpin, which takes the Token Pin returns.
func (p SafepointPin) Pin() safepoint.Token { return p.rt.world.RLock() }

// Unpin leaves the safepoint interval.
func (p SafepointPin) Unpin(t safepoint.Token) { p.rt.world.RUnlock(t) }

// NewSafepointSlot registers an owner-local pin on the runtime's
// safepoint for a context with an identity of its own (a pooled
// pindex.Ctx): pinning it writes a line no other owner writes, where
// SafepointPin read-locks one every reader shares. The same rules as
// SafepointPin apply to its intervals; Retire it with its owner.
func (rt *Runtime) NewSafepointSlot() *safepoint.Slot { return rt.world.NewSlot() }

// NameManager exposes the external name manager.
func (rt *Runtime) NameManager() *namemgr.Manager { return rt.mgr }

// StringKlass returns the built-in string class.
func (rt *Runtime) StringKlass() *klass.Klass { return rt.stringKlass }

// heapOf locates the loaded persistent heap whose image holds ref, or nil:
// a scan of the heap snapshot. Each heap sits at its own address hint
// (paper §3), so the scan is a few bounds tests.
func (rt *Runtime) heapOf(ref layout.Ref) *pheap.Heap {
	for _, h := range rt.Heaps() {
		if h.ContainsImage(ref) {
			return h
		}
	}
	return nil
}

// InPersistent reports whether ref points into any loaded persistent heap.
func (rt *Runtime) InPersistent(ref layout.Ref) bool {
	h := rt.heapOf(ref)
	return h != nil && h.Contains(ref)
}

// InVolatile reports whether ref points into the volatile heap.
func (rt *Runtime) InVolatile(ref layout.Ref) bool { return rt.vol.Contains(ref) }

// New allocates a volatile object — the plain Java `new`. Allocation
// failure triggers a scavenge, then a full collection, before giving up.
// The volatile heap keeps its single-volatile-mutator contract whichever
// receiver allocates.
func (a *Accessor) New(k *klass.Klass, arrayLen int) (layout.Ref, error) {
	defer a.exit(a.enter())
	return a.rt.vnew(k, arrayLen)
}

func (rt *Runtime) vnew(k *klass.Klass, arrayLen int) (layout.Ref, error) {
	if _, err := rt.Reg.Define(k); err != nil {
		return 0, err
	}
	rt.resolve(k.Name, rt.Reg.MetaAddr(k))
	ref, err := rt.vol.Alloc(k, arrayLen)
	if err == vheap.ErrNeedGC {
		if err = rt.minorGC(); err != nil {
			return 0, err
		}
		ref, err = rt.vol.Alloc(k, arrayLen)
	}
	if err == vheap.ErrNeedGC || err == vheap.ErrOldFull {
		if err = rt.fullGC(); err != nil {
			return 0, err
		}
		ref, err = rt.vol.Alloc(k, arrayLen)
	}
	if err != nil {
		return 0, fmt.Errorf("core: new %s: %w", k.Name, err)
	}
	return ref, nil
}

// resolve records a class symbol's resolved Klass address in the constant
// pool. rt.mu guards the pool: every accessor of every goroutine resolves
// through it.
func (rt *Runtime) resolve(symbol string, addr layout.Ref) {
	rt.mu.Lock()
	rt.cp.Resolve(symbol, addr)
	rt.mu.Unlock()
}

// PNew allocates a persistent object — the pnew keyword (and, for arrays,
// the panewarray/pnewarray bytecodes): in the active heap through its
// shared, lock-serialized allocator on a Runtime; in the mutator's heap
// through its own PLAB, whose bump path is lock-free, on a Mutator. Under
// type-based safety the class must be annotated persistent with a
// persistent-closed field closure.
func (a *Accessor) PNew(k *klass.Klass, arrayLen int) (layout.Ref, error) {
	defer a.exit(a.enter())
	return a.pnew(k, arrayLen, nil)
}

// pnew is the one allocation body. The class's metadata work — definition,
// safety check, Klass-segment record, constant-pool resolution — runs on
// every ownerless allocation and once per class on a mutator. init, when
// set, runs on the unpublished object and is persisted with its header
// (pheap's AllocInit): it stores into the object it is handed, through the
// context it is handed, and nowhere else.
func (a *Accessor) pnew(k *klass.Klass, arrayLen int, init func(x *pheap.Allocator, ref layout.Ref)) (layout.Ref, error) {
	h := a.h
	if h == nil {
		if h = a.rt.active.Load(); h == nil {
			return 0, fmt.Errorf("core: pnew %s: no persistent heap loaded", k.Name)
		}
	}
	if err := a.prepare(h, k); err != nil {
		return 0, err
	}
	// The allocating context is also the one init stores through.
	x := a.alloc
	if x == nil {
		x = h.Ownerless()
	}
	var bound func(layout.Ref)
	if init != nil {
		bound = func(ref layout.Ref) { init(x, ref) }
	}
	var ref layout.Ref
	var err error
	if a.alloc != nil {
		ref, err = x.AllocInit(k, arrayLen, bound)
	} else {
		ref, err = h.AllocInit(k, arrayLen, bound)
	}
	if err != nil {
		return 0, fmt.Errorf("core: pnew %s: %w", k.Name, err)
	}
	return ref, nil
}

// prepare does a class's metadata work ahead of an allocation in h:
// definition, safety check, Klass-segment record, constant-pool
// resolution.
func (a *Accessor) prepare(h *pheap.Heap, k *klass.Klass) error {
	if a.prepared[k] {
		return nil
	}
	rt := a.rt
	if _, err := rt.Reg.Define(k); err != nil {
		return err
	}
	if rt.cfg.Safety == TypeBased {
		if err := rt.checkPersistentClosure(k); err != nil {
			return err
		}
	}
	kaddr, err := h.EnsureKlass(k)
	if err != nil {
		return fmt.Errorf("core: pnew %s: %w", k.Name, err)
	}
	// Constant-pool resolution now caches the NVM Klass address — the
	// overwrite that makes the strict (non-alias) check of Figure 10 fail.
	rt.resolve(k.Name, kaddr)
	if a.prepared != nil {
		a.prepared[k] = true
	}
	return nil
}

// PNewMultiArray allocates a persistent array of arrays (the
// pmultianewarray bytecode): dims gives the length at each level. The
// array klass at every level is resolved once up front; the recursion
// only allocates.
func (a *Accessor) PNewMultiArray(elem *klass.Klass, dims []int) (layout.Ref, error) {
	if len(dims) == 0 {
		return 0, fmt.Errorf("core: pmultianewarray needs at least one dimension")
	}
	chain := make([]*klass.Klass, len(dims))
	leaf := elem
	if elem.Kind != klass.KindPrimArray {
		leaf = a.rt.Reg.ObjArray(elem.Name)
	}
	chain[len(dims)-1] = leaf
	for i := len(dims) - 2; i >= 0; i-- {
		chain[i] = a.rt.Reg.ObjArray(chain[i+1].Name)
	}
	defer a.exit(a.enter())
	return a.pnewMulti(chain, dims)
}

func (a *Accessor) pnewMulti(chain []*klass.Klass, dims []int) (layout.Ref, error) {
	arr, err := a.pnew(chain[0], dims[0], nil)
	if err != nil {
		return 0, err
	}
	if len(dims) == 1 {
		return arr, nil
	}
	for i := 0; i < dims[0]; i++ {
		sub, err := a.pnewMulti(chain[1:], dims[1:])
		if err != nil {
			return 0, err
		}
		if err := a.setElem(arr, i, sub); err != nil {
			return 0, err
		}
	}
	return arr, nil
}

func (rt *Runtime) checkPersistentClosure(k *klass.Klass) error {
	if !k.Persistent {
		return fmt.Errorf("core: type-based safety: %s is not annotated persistent", k.Name)
	}
	for _, f := range k.Fields() {
		if f.Type != layout.FTRef || f.RefKlass == "" {
			continue
		}
		fk, ok := rt.Reg.Lookup(f.RefKlass)
		if ok && !fk.Persistent {
			return fmt.Errorf("core: type-based safety: %s.%s references non-persistent class %s",
				k.Name, f.Name, f.RefKlass)
		}
	}
	return nil
}

// NewString allocates a string. persistent selects pnew vs new — the
// `pnew String(name, true)` constructor of paper Figure 9. The payload
// moves with one bulk store (one device write, or one DRAM memmove), not a
// per-byte read-modify-write loop.
func (a *Accessor) NewString(s string, persistent bool) (layout.Ref, error) {
	defer a.exit(a.enter())
	if persistent {
		return a.newPString(s)
	}
	ref, err := a.rt.vnew(a.rt.stringKlass, len(s))
	if err != nil {
		return 0, err
	}
	if len(s) > 0 {
		a.writeBytes(ref, layout.ElemOff(layout.FTByte, 0), []byte(s))
	}
	return ref, nil
}

// newPString allocates a persistent string. Strings are immutable: persist
// eagerly like the paper's string constructor does — the payload lands in
// the allocation's init, so header and payload share one flush and one
// fence.
func (a *Accessor) newPString(s string) (layout.Ref, error) {
	return a.pnew(a.rt.stringKlass, len(s), func(x *pheap.Allocator, ref layout.Ref) {
		x.WriteBytesAt(ref, layout.ElemOff(layout.FTByte, 0), []byte(s))
	})
}

// GetString reads a string object's contents with one bulk device read.
func (a *Accessor) GetString(ref layout.Ref) (string, error) {
	defer a.exit(a.enter())
	k, err := a.klassOf(ref)
	if err != nil {
		return "", err
	}
	if !klass.SameLogical(k, a.rt.stringKlass) {
		return "", fmt.Errorf("core: %#x is a %s, not a string", uint64(ref), k.Name)
	}
	n := a.arrayLen(ref)
	if n == 0 {
		return "", nil
	}
	return string(a.readBytes(ref, layout.ElemOff(layout.FTByte, 0), n)), nil
}
