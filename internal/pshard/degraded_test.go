package pshard

import (
	"errors"
	"testing"
	"time"

	"espresso/internal/nvm/faultdev"
)

// buildDegradedImages commits a 2-shard set and returns its power-loss
// images plus the committed model, split by owning shard.
func buildDegradedImages(t *testing.T) (map[string][]byte, map[int64]int64) {
	t.Helper()
	store := NewMemStore()
	set, err := OpenSet(store, "kv", testOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[int64]int64)
	c := set.NewCtx()
	for k := int64(0); k < 600; k++ {
		if err := c.Put(k, k*17+1); err != nil {
			t.Fatal(err)
		}
		model[k] = k*17 + 1
	}
	c.Release()
	return images(t, store, "kv", 2), model
}

func copyImages(imgs map[string][]byte) map[string][]byte {
	cp := make(map[string][]byte, len(imgs))
	for k, v := range imgs {
		cp[k] = append([]byte(nil), v...)
	}
	return cp
}

func degradedOptions() Options {
	o := testOptions(2)
	o.Degraded = true
	o.DisableRetryLoop = true
	return o
}

// TestDegradedOpenQuarantinesCorruptShard rots shard 0's heap image —
// permanent, unrecoverable damage: its magic, or one high bit of its
// gcActive word (neither 0 nor 1: whether a compaction was in flight is
// unknowable, so no loader may guess) — and checks the full
// fence-and-serve contract: strict open fails outright, degraded open
// fences exactly the rotten shard, every shard-0 operation bounces with
// ErrShardQuarantined while shard 1 serves its committed keys exactly, and
// a manual retry against still-rotten media leaves the quarantine in
// place.
func TestDegradedOpenQuarantinesCorruptShard(t *testing.T) {
	for _, rot := range []struct {
		name string
		off  int
		bit  uint
	}{
		{"magic", 0, 6},
		{"gc-active", 48 + 2, 1}, // pheap's gcActive word, bit 17
	} {
		t.Run(rot.name, func(t *testing.T) { degradedOpenQuarantines(t, rot.off, rot.bit) })
	}
}

func degradedOpenQuarantines(t *testing.T, off int, bit uint) {
	imgs, model := buildDegradedImages(t)
	rotten := copyImages(imgs)
	faultdev.FlipBitInImage(rotten[ShardHeapName("kv", 0)], off, bit)

	if _, err := OpenSet(storeFrom(t, rotten), "kv", testOptions(2)); err == nil {
		t.Fatal("strict OpenSet accepted the rotten shard")
	}

	set, err := OpenSet(storeFrom(t, rotten), "kv", degradedOptions())
	if err != nil {
		t.Fatalf("degraded OpenSet: %v", err)
	}
	defer set.Close()
	if q := set.Quarantined(); len(q) != 1 || q[0] != 0 {
		t.Fatalf("Quarantined() = %v, want [0]", q)
	}
	if set.QuarantineCause(0) == nil {
		t.Fatal("quarantined shard has no recorded cause")
	}
	if err := set.QuarantineCause(1); err != nil {
		t.Fatalf("healthy shard carries a quarantine cause: %v", err)
	}

	c := set.NewCtx()
	defer c.Release()
	served, fenced := 0, 0
	for k, want := range model {
		if set.ShardOf(k) == 0 {
			fenced++
			if _, _, err := c.Lookup(k); !errors.Is(err, ErrShardQuarantined) {
				t.Fatalf("Lookup(%d) on fenced shard: err = %v, want ErrShardQuarantined", k, err)
			}
			if _, ok := c.Get(k); ok {
				t.Fatalf("Get(%d) on fenced shard returned a value", k)
			}
			if _, err := c.Remove(k); !errors.Is(err, ErrShardQuarantined) {
				t.Fatalf("Remove(%d) on fenced shard: err = %v, want ErrShardQuarantined", k, err)
			}
		} else {
			served++
			got, ok := c.Get(k)
			if !ok || got != want {
				t.Fatalf("healthy Get(%d) = %d,%v, want %d", k, got, ok, want)
			}
		}
	}
	if served == 0 || fenced == 0 {
		t.Fatalf("degenerate split: %d served, %d fenced", served, fenced)
	}
	scanned := 0
	c.Scan(func(k, v int64) bool {
		if set.ShardOf(k) == 0 {
			t.Fatalf("Scan surfaced key %d from the quarantined shard", k)
		}
		if v != model[k] {
			t.Fatalf("Scan(%d) = %d, want %d", k, v, model[k])
		}
		scanned++
		return true
	})
	if scanned != served {
		t.Fatalf("Scan saw %d keys, want all %d healthy ones", scanned, served)
	}

	// The rot is permanent: retrying must not "heal" anything.
	if healed := set.RetryQuarantined(); len(healed) != 0 {
		t.Fatalf("RetryQuarantined healed %v against still-rotten media", healed)
	}
	if q := set.Quarantined(); len(q) != 1 || q[0] != 0 {
		t.Fatalf("Quarantined() = %v after failed retry, want [0]", q)
	}
}

// TestRetryQuarantinedHealsTransientFault fences shard 0 with a one-shot
// read error (the media heals after the first failed read), then checks
// that a manual RetryQuarantined reopens it and the whole committed set
// serves exactly.
func TestRetryQuarantinedHealsTransientFault(t *testing.T) {
	imgs, model := buildDegradedImages(t)
	store := storeFrom(t, imgs)
	dev, err := store.Open(ShardHeapName("kv", 0))
	if err != nil {
		t.Fatal(err)
	}
	in := faultdev.Install(dev, faultdev.Plan{Kind: faultdev.ReadError, Off: 0, N: 8, Budget: 1})
	defer in.Remove()

	opts := degradedOptions()
	opts.Telemetry = true
	set, err := OpenSet(store, "kv", opts)
	if err != nil {
		t.Fatalf("degraded OpenSet: %v", err)
	}
	defer set.Close()
	if q := set.Quarantined(); len(q) != 1 || q[0] != 0 {
		t.Fatalf("Quarantined() = %v, want [0]", q)
	}
	if got := set.Telemetry().Snapshot().Counters["shard.quarantined"]; got < 1 {
		t.Fatalf("shard.quarantined counter = %d, want >= 1", got)
	}

	healed := set.RetryQuarantined()
	if len(healed) != 1 || healed[0] != 0 {
		t.Fatalf("RetryQuarantined() = %v, want [0] (budget drained, media healed)", healed)
	}
	if q := set.Quarantined(); len(q) != 0 {
		t.Fatalf("Quarantined() = %v after heal, want empty", q)
	}
	verifySet(t, "after heal", set, model)
}

// TestBackgroundRetryLoopHeals runs the real backoff loop: a transient
// read fault quarantines shard 0 at open, shard 0's keys bounce while the
// loop waits out its first delay, and the background goroutine — no
// manual retry — must reopen it within its capped-exponential schedule.
func TestBackgroundRetryLoopHeals(t *testing.T) {
	imgs, model := buildDegradedImages(t)
	store := storeFrom(t, imgs)
	dev, err := store.Open(ShardHeapName("kv", 0))
	if err != nil {
		t.Fatal(err)
	}
	in := faultdev.Install(dev, faultdev.Plan{Kind: faultdev.ReadError, Off: 0, N: 8, Budget: 1})
	defer in.Remove()

	opts := testOptions(2)
	opts.Degraded = true
	opts.Telemetry = true
	opts.RetryBase = 50 * time.Millisecond
	opts.RetryCap = 200 * time.Millisecond
	set, err := OpenSet(store, "kv", opts)
	if err != nil {
		t.Fatalf("degraded OpenSet: %v", err)
	}
	defer set.Close()
	if q := set.Quarantined(); len(q) != 1 || q[0] != 0 {
		t.Fatalf("Quarantined() = %v, want [0]", q)
	}
	if got := set.Telemetry().Snapshot().Counters["shard.quarantined"]; got < 1 {
		t.Fatalf("shard.quarantined counter = %d, want >= 1", got)
	}
	// The first retry is RetryBase away: until then shard 0 is fenced.
	c := set.NewCtx()
	for k := range model {
		if set.ShardOf(k) == 0 {
			if _, _, err := c.Lookup(k); !errors.Is(err, ErrShardQuarantined) {
				t.Fatalf("Lookup(%d) while the loop waits: err = %v, want ErrShardQuarantined", k, err)
			}
			break
		}
	}
	c.Release()
	deadline := time.Now().Add(10 * time.Second)
	for len(set.Quarantined()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background retry loop never healed shard 0 (cause: %v)", set.QuarantineCause(0))
		}
		time.Sleep(time.Millisecond)
	}
	verifySet(t, "after background heal", set, model)
}
