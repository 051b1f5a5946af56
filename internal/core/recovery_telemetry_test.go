package core

import (
	"slices"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
	"espresso/internal/telemetry"
)

// TestLoadHeapRecoveryReachesTelemetry: a collection interrupted by a
// crash is finished by LoadHeap, and that recovery is visible in the
// loading runtime's metrics — its count, its span, its attributed device
// traffic. The registry must be on the heap before recovery runs, not
// after.
func TestLoadHeapRecoveryReachesTelemetry(t *testing.T) {
	rt := newRT(t, Config{})
	h, err := rt.CreateHeap("crashed", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	person := personKlass(t, rt)
	// Garbage below live objects, so the collection has something to move.
	var keep []int64
	for i := 0; i < 400; i++ {
		ref, err := rt.PNew(person, 0)
		if err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			if err := rt.SetLong(ref, "id", int64(i)); err != nil {
				t.Fatal(err)
			}
			rt.NewHandle(ref)
			keep = append(keep, int64(i))
		}
	}
	h.Device().FlushAll()
	faultdev.CrashWhen(h.Device(), 2, h.GCActive)
	crashed, err := faultdev.Run(h.Device(), func() error {
		_, err := rt.PersistentGC("crashed")
		return err
	})
	if err != nil || !crashed {
		t.Fatalf("collection crashed=%v err=%v, want an injected crash mid-compaction", crashed, err)
	}

	rt2 := newRT(t, Config{Telemetry: true})
	img := h.Device().CrashImage(nvm.CrashFlushedOnly, 0)
	if err := rt2.NameManager().Register("crashed", nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked})); err != nil {
		t.Fatal(err)
	}
	h2, err := rt2.LoadHeap("crashed")
	if err != nil {
		t.Fatal(err)
	}
	if h2.GCActive() {
		t.Fatal("heap still mid-collection after LoadHeap")
	}
	var got []int64
	idF := rt2.MustResolveField(person, "id")
	if err := h2.ForEachObject(func(off int, k *klass.Klass, _ int) bool {
		if k.Name == person.Name {
			if id := rt2.GetLongFast(h2.AddrOf(off), idF); id != 0 {
				got = append(got, id)
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	if !slices.Equal(got, keep) {
		t.Fatalf("recovered heap holds ids %v, want %v", got, keep)
	}

	snap := rt2.Metrics()
	if n := snap.Counters["gc.recoveries"]; n != 1 {
		t.Errorf("gc.recoveries = %d after a LoadHeap that recovered, want 1", n)
	}
	if n := snap.Counters["dev.recovery.reads"]; n == 0 {
		t.Error("dev.recovery.reads = 0: the recovery's device traffic is attributed to nobody")
	}
	if !slices.ContainsFunc(snap.Spans, func(s telemetry.Span) bool { return s.Name == telemetry.SpanRecoveryGC }) {
		t.Errorf("no %s span among %d spans", telemetry.SpanRecoveryGC, len(snap.Spans))
	}
}
