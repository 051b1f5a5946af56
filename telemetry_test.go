package espresso

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"espresso/internal/nvm"
)

// TestTelemetryPoolGaugeBurst pins the ctx-pool gauges: a borrow burst
// past maxIdleCtxs must be visible in the snapshot as created = burst,
// idle = cap, retired = burst − cap.
func TestTelemetryPoolGaugeBurst(t *testing.T) {
	rt, err := Open(Options{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateHeap("pool", 8<<20); err != nil {
		t.Fatal(err)
	}
	m, err := rt.OpenPMap("pool", "burst", PMapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const burst = maxIdleCtxs + 8
	ctxs := make([]*pmapCtx, 0, burst)
	for i := 0; i < burst; i++ {
		ctxs = append(ctxs, m.pool.borrow())
	}
	for _, c := range ctxs {
		m.pool.put(c)
	}
	snap := rt.Metrics()
	if got := snap.Gauges["pmap.burst.ctx.created"]; got != burst {
		t.Fatalf("created gauge = %d, want %d", got, burst)
	}
	if got := snap.Gauges["pmap.burst.ctx.idle"]; got != maxIdleCtxs {
		t.Fatalf("idle gauge = %d, want %d", got, maxIdleCtxs)
	}
	if got := snap.Gauges["pmap.burst.ctx.retired"]; got != burst-maxIdleCtxs {
		t.Fatalf("retired gauge = %d, want %d", got, burst-maxIdleCtxs)
	}
}

// TestObserversAddNoDeviceOps holds the observers' cost contract
// (docs/observability.md). One single-goroutine body — a mutator's PNew,
// ref store and flush per object; PMap puts, gets and deletes; one
// PersistentGC — runs bare, with Options.Telemetry and with
// Options.FlightRecorder, and each observed run's device window is held to
// the bare run's:
//
//   - telemetry: every device counter is equal, and the folded counters
//     carry the body's op counts;
//   - flight recorder: reads and fences are equal, writes and flushed
//     lines are each higher by exactly the events journaled, and the
//     events stay at region and cycle granularity: at most one per
//     hundred ops.
func TestObserversAddNoDeviceOps(t *testing.T) {
	const n = 2000                    // objects, and keys
	const ops = 3*n + n + n + n/2 + 1 // the body's operations
	type window struct {
		dev    nvm.Stats
		events uint64
		// counters: alloc.objects and refstore.stores over the mutator's
		// loop, index.puts over the map's.
		allocs, stores, puts uint64
	}
	body := func(t *testing.T, opts Options) (w window) {
		rt, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.CreateHeap("obs", 16<<20); err != nil {
			t.Fatal(err)
		}
		h, _ := rt.Heap("obs")
		node := MustClass("observers/Node", nil, RefTo("next", "observers/Node"), Long("v"))
		nextF := rt.MustResolveField(node, "next")
		pm, err := rt.OpenPMap("obs", "m", PMapOptions{InitialBuckets: 1024, MaxLoadFactor: 64})
		if err != nil {
			t.Fatal(err)
		}
		m, err := rt.NewMutator()
		if err != nil {
			t.Fatal(err)
		}
		d0, seq0, s0 := h.Device().Stats(), h.FlightRecorder().Seq(), rt.Metrics()
		var prev Ref
		for i := 0; i < n; i++ {
			ref, err := m.PNew(node, 0)
			if err == nil {
				err = m.SetRefFast(ref, nextF, prev)
			}
			if err == nil {
				err = m.FlushObject(ref)
			}
			if err != nil {
				t.Fatal(err)
			}
			prev = ref
		}
		m.Release()
		s1 := rt.Metrics()
		for k := int64(0); k < n; k++ {
			if err := pm.Put(k, 0); err != nil {
				t.Fatal(err)
			}
		}
		for k := int64(0); k < n; k++ {
			if _, ok := pm.Get(k); !ok {
				t.Fatalf("key %d lost", k)
			}
		}
		for k := int64(0); k < n; k += 2 {
			if !pm.Delete(k) {
				t.Fatalf("delete %d missed", k)
			}
		}
		s2 := rt.Metrics()
		if _, err := rt.PersistentGC("obs"); err != nil {
			t.Fatal(err)
		}
		return window{dev: h.Device().Stats().Sub(d0), events: h.FlightRecorder().Seq() - seq0,
			allocs: s1.Counters["alloc.objects"] - s0.Counters["alloc.objects"],
			stores: s1.Counters["refstore.stores"] - s0.Counters["refstore.stores"],
			puts:   s2.Counters["index.puts"] - s1.Counters["index.puts"]}
	}
	bare := body(t, Options{})
	if tel := body(t, Options{Telemetry: true}); tel.dev != bare.dev {
		t.Errorf("telemetry changed the device window: bare %+v, telemetry %+v", bare.dev, tel.dev)
	} else if tel.allocs != n || tel.stores != n || tel.puts != n {
		t.Errorf("alloc.objects %d, refstore.stores %d, index.puts %d; want %d each", tel.allocs, tel.stores, tel.puts, n)
	}
	fr := body(t, Options{FlightRecorder: true})
	d, b, ev := fr.dev, bare.dev, fr.events
	t.Logf("bare window %+v; the recorder journaled %d events", b, ev)
	if ev == 0 || ev > ops/100 {
		t.Errorf("%d events for %d ops, want 1..%d", ev, ops, ops/100)
	}
	if d.Reads != b.Reads || d.Fences != b.Fences || d.Writes != b.Writes+ev || d.FlushedLines != b.FlushedLines+ev {
		t.Errorf("the recorder's %d events cost more than a write and a line each: bare %+v, recorder %+v", ev, b, d)
	}
}

// TestTelemetryConcurrentFoldExactTotals is the end-to-end race check of
// the telemetry design: 8 mutators churn allocations, barriered ref
// stores, and durable index puts while concurrent collections cycle and
// a folding goroutine snapshots continuously, asserting every counter is
// monotonic across folds. When the dust settles the deltas must equal
// the oracle exactly — lock-free cells may not lose a single update.
func TestTelemetryConcurrentFoldExactTotals(t *testing.T) {
	rt, err := Open(Options{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateHeap("churn", 48<<20); err != nil {
		t.Fatal(err)
	}
	// Big table + high load factor: no grows, so the entry-allocation
	// oracle below stays exact (index.grows is asserted zero).
	pm, err := rt.OpenPMap("churn", "ops", PMapOptions{InitialBuckets: 1024, MaxLoadFactor: 64})
	if err != nil {
		t.Fatal(err)
	}
	node := MustClass("telemetry/Node", nil,
		RefTo("next", "telemetry/Node"), Long("v"))
	nextF := rt.MustResolveField(node, "next")

	const goroutines = 8
	const perG = 150

	muts := make([]*Mutator, goroutines)
	for g := range muts {
		if muts[g], err = rt.NewMutator(); err != nil {
			t.Fatal(err)
		}
	}
	snap0 := rt.Metrics()

	done := make(chan struct{})
	// The churn below waits for the collector's first cycle to be under
	// way, so at least one collection overlaps it however the scheduler
	// treats the collector goroutine.
	started := make(chan struct{})
	var gcWG sync.WaitGroup
	gcWG.Add(1)
	go func() {
		defer gcWG.Done()
		for cycle := 0; ; cycle++ {
			select {
			case <-done:
				return
			default:
			}
			if cycle == 0 {
				close(started)
			}
			if _, err := rt.PersistentGCConcurrent("churn", runtime.GOMAXPROCS(0)); err != nil {
				t.Errorf("concurrent GC: %v", err)
				return
			}
		}
	}()

	foldDone := make(chan struct{})
	var foldWG sync.WaitGroup
	foldWG.Add(1)
	go func() {
		defer foldWG.Done()
		prev := map[string]uint64{}
		for {
			select {
			case <-foldDone:
				return
			default:
			}
			s := rt.Metrics()
			for name, v := range s.Counters {
				if v < prev[name] {
					t.Errorf("counter %s went backwards: %d -> %d", name, prev[name], v)
					return
				}
				prev[name] = v
			}
		}
	}()

	<-started
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := muts[g]
			base := int64(g) << 32
			for i := int64(0); i < perG; i++ {
				var opErr error
				m.Do(func() {
					n1, err := m.PNew(node, 0)
					if err != nil {
						opErr = err
						return
					}
					n2, err := m.PNew(node, 0)
					if err != nil {
						opErr = err
						return
					}
					opErr = m.SetRefFast(n1, nextF, n2)
				})
				if opErr == nil {
					opErr = pm.Put(base+i, 0)
				}
				if opErr != nil {
					errs[g] = fmt.Errorf("iter %d: %w", i, opErr)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	gcWG.Wait()
	close(foldDone)
	foldWG.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("mutator %d: %v", g, err)
		}
	}
	for _, m := range muts {
		m.Release()
	}

	snap1 := rt.Metrics()
	delta := func(name string) uint64 { return snap1.Counters[name] - snap0.Counters[name] }
	const ops = goroutines * perG
	if got := delta("refstore.stores"); got != ops {
		t.Fatalf("refstore.stores delta = %d, want %d", got, ops)
	}
	if got := delta("index.puts"); got != ops {
		t.Fatalf("index.puts delta = %d, want %d", got, ops)
	}
	// Every Put (and Get) probes the hint table exactly once.
	if got := delta("index.hint_hits") + delta("index.hint_misses"); got != ops {
		t.Fatalf("index.hint_hits + index.hint_misses delta = %d, want %d", got, ops)
	}
	if got := delta("index.grows"); got != 0 {
		t.Fatalf("index.grows delta = %d, want 0 (oracle assumes no table growth)", got)
	}
	// Each iteration allocates two nodes plus at least one index entry.
	// The entry count is a lower bound, not an equality: a Put that loses
	// its link CAS under contention allocates a fresh entry for the retry,
	// so the floor proves no update was lost without assuming a quiescent
	// insert path.
	if got := delta("alloc.objects"); got < 3*ops {
		t.Fatalf("alloc.objects delta = %d, want >= %d", got, 3*ops)
	}
	if delta("gc.cycles") == 0 {
		t.Fatal("no concurrent collection completed during the churn")
	}
}

// TestShardedTelemetryAggregation pins ShardedPMap.Metrics: counters sum
// across shard registries and shard-local spans come back re-tagged with
// their shard index.
func TestShardedTelemetryAggregation(t *testing.T) {
	rt, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.OpenSharded("agg", ShardedPMapOptions{Shards: 2, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 100
	for i := int64(0); i < keys; i++ {
		if err := m.Put(i*7919, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.GCShard(0); err != nil {
		t.Fatal(err)
	}
	snap := m.Metrics()
	if got := snap.Counters["index.puts"]; got != keys {
		t.Fatalf("aggregated index.puts = %d, want %d", got, keys)
	}
	opens := 0
	gcTagged := false
	for _, sp := range snap.Spans {
		if sp.Shard >= m.NumShards() {
			t.Fatalf("span %s carries shard tag %d >= %d", sp.Name, sp.Shard, m.NumShards())
		}
		switch {
		case sp.Name == "shard.open":
			// One set-level span covering the whole joined open; set-level
			// events keep Shard -1 through aggregation.
			opens++
			if sp.Shard != -1 {
				t.Fatalf("shard.open span tagged %d, want -1 (set-level)", sp.Shard)
			}
		case sp.Shard < 0:
			t.Fatalf("shard-local span %s survived aggregation untagged", sp.Name)
		}
		if strings.HasPrefix(sp.Name, "gc.") && sp.Shard == 0 {
			gcTagged = true
		}
	}
	if opens != 1 {
		t.Fatalf("saw %d shard.open spans, want 1", opens)
	}
	if !gcTagged {
		t.Fatal("GCShard(0) left no gc.* span tagged with shard 0")
	}
	if got := snap.Gauges["shardedpmap.agg.ctx.created"]; got < 1 {
		t.Fatalf("ctx.created gauge = %d, want >= 1", got)
	}
	if s0 := m.ShardMetrics(0); s0.Counters["gc.cycles"] != 1 {
		t.Fatalf("shard 0 gc.cycles = %d, want 1", s0.Counters["gc.cycles"])
	}
}

// TestTelemetryHTTPFacade boots a runtime with the opt-in listener,
// scrapes both endpoints through a real HTTP round trip, and verifies
// Close tears the listener down.
func TestTelemetryHTTPFacade(t *testing.T) {
	rt, err := Open(Options{TelemetryAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := rt.TelemetryAddr()
	if addr == "" {
		t.Fatal("TelemetryAddr empty with TelemetryAddr option set")
	}
	if err := rt.CreateHeap("web", 8<<20); err != nil {
		t.Fatal(err)
	}
	person := MustClass("telemetry/Person", nil, Long("id"))
	if _, err := rt.PNew(person); err != nil {
		t.Fatal(err)
	}
	// One insert (the probe misses, the walk leaves a hint) and one
	// lookup through it.
	pm, err := rt.OpenPMap("web", "hinted", PMapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pm.Put(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := pm.Get(1); !ok {
		t.Fatal("key 1 absent")
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if body := get("/metrics"); !strings.Contains(body, "espresso_alloc_objects_total") {
		t.Fatalf("/metrics misses espresso_alloc_objects_total:\n%s", body)
	}
	if body := get("/vars"); !strings.Contains(body, `"alloc.objects"`) {
		t.Fatalf("/vars misses alloc.objects:\n%s", body)
	}
	for path, want := range map[string][]string{
		"/metrics": {"espresso_index_hint_hits_total 1", "espresso_index_hint_misses_total 1"},
		"/vars":    {`"index.hint_hits":1`, `"index.hint_misses":1`},
	} {
		body := strings.ReplaceAll(get(path), `": `, `":`)
		for _, w := range want {
			if !strings.Contains(body, w) {
				t.Fatalf("%s misses %s:\n%s", path, w, body)
			}
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	client := http.Client{Timeout: 2 * time.Second}
	if _, err := client.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("listener still serving after Close")
	}
}
