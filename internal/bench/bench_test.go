package bench

import (
	"strings"
	"testing"
	"time"
)

func TestBreakdownPhases(t *testing.T) {
	b := NewBreakdown()
	stop := b.Phase("A")
	time.Sleep(2 * time.Millisecond)
	stop()
	stop = b.Phase("B")
	time.Sleep(time.Millisecond)
	stop()
	if b.Get("A") < b.Get("B") {
		t.Fatalf("A=%v should exceed B=%v", b.Get("A"), b.Get("B"))
	}
	if got := b.Phases(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("Phases = %v", got)
	}
	fr := b.Fractions()
	sum := fr["A"] + fr["B"] + fr["Other"]
	if sum < 0.95 || sum > 1.05 {
		t.Fatalf("fractions sum to %v", sum)
	}
}

func TestBreakdownAddExtendsTotal(t *testing.T) {
	b := NewBreakdown()
	b.Add("NVM", 100*time.Millisecond)
	if b.Total() < 100*time.Millisecond {
		t.Fatalf("Total = %v, want ≥ 100ms", b.Total())
	}
	if fr := b.Fractions()["NVM"]; fr < 0.9 {
		t.Fatalf("NVM fraction = %v", fr)
	}
	b.Phase("NVM")()
	if got := b.Modeled("NVM"); got != 100*time.Millisecond {
		t.Fatalf("Modeled = %v, want exactly what Add charged", got)
	}
}

func TestNilBreakdownIsSafe(t *testing.T) {
	var b *Breakdown
	b.Phase("x")() // must not panic
	b.Add("x", time.Second)
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
