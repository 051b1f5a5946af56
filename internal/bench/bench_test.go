package bench

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"espresso/internal/nvm"
)

func TestBreakdownPhases(t *testing.T) {
	b := NewBreakdown()
	stop := b.Phase("A")
	time.Sleep(2 * time.Millisecond)
	stop()
	stop = b.Phase("B")
	time.Sleep(time.Millisecond)
	stop()
	// How much longer than its duration a sleep lasts is the host's, so
	// only what the phases add up to is asserted.
	fr := b.Fractions()
	if fr["A"] <= 0 || fr["B"] <= 0 {
		t.Fatalf("fractions %v: a phase recorded nothing", fr)
	}
	sum := fr["A"] + fr["B"] + fr["Other"]
	if sum < 0.95 || sum > 1.05 {
		t.Fatalf("fractions sum to %v", sum)
	}
}

func TestNilBreakdownIsSafe(t *testing.T) {
	var b *Breakdown
	b.Phase("x")() // must not panic
	Start(nil, "x")()
}

// TestCounterCountsNothingOfItsOwn: an empty phase reads no allocation
// and no device op however often it opens — the counter's own reads fall
// outside its windows — and a phase that does work is charged for it.
func TestCounterCountsNothingOfItsOwn(t *testing.T) {
	dev := nvm.New(nvm.Config{Size: 1 << 16, Mode: nvm.Direct})
	c := NewCounter(dev)
	runtime.GC() // no collection may finish inside a window and publish older allocations
	for i := 0; i < 1000; i++ {
		c.Phase("empty")()
	}
	if got := c.Get("empty"); got.Allocs != 0 || got.Dev != (nvm.Stats{}) {
		t.Fatalf("empty phase counted %d allocations and %+v", got.Allocs, got.Dev)
	}
	var keep []*[64]byte
	stop := c.Phase("work")
	for i := 0; i < 10000; i++ {
		keep = append(keep, new([64]byte))
	}
	dev.WriteU64(0, 1)
	dev.Flush(0, 8)
	dev.Fence()
	stop()
	got := c.Get("work")
	// A size class's allocations show once its cached span is swapped
	// out: 10 000 objects fill many spans, so most of them must show.
	if got.Allocs < 9000 || got.Dev.Writes != 1 || got.Dev.FlushedLines != 1 || got.Dev.Fences != 1 {
		t.Fatalf("work phase counted %d allocations (made %d) and %+v", got.Allocs, len(keep), got.Dev)
	}
	if names := c.Phases(); len(names) != 2 || names[0].Name != "empty" || names[1].Name != "work" {
		t.Fatalf("phases %+v", names)
	}
}

func TestCounterRefusesNestedPhases(t *testing.T) {
	c := NewCounter(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("a phase opened inside another")
		}
	}()
	c.Phase("outer")
	c.Phase("inner")
}

func TestTablePrint(t *testing.T) {
	tb := &Table{Header: []string{"Col", "LongerColumn"}}
	tb.AddRow("a", "b")
	tb.AddRow("longvalue", "c")
	var sb strings.Builder
	tb.Print(&sb)
	out := sb.String()
	if !strings.Contains(out, "Col") || !strings.Contains(out, "longvalue") {
		t.Fatalf("table output:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 4 { // header, sep, 2 rows
		t.Fatalf("table lines:\n%s", out)
	}
}
