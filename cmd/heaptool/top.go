package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"espresso/internal/telemetry"
)

// runTop is the live-metrics mode: it polls a runtime's /vars endpoint
// (espresso.Options.TelemetryAddr) and renders per-interval rates, pool
// gauges, and the most recent GC/recovery spans — `top` for a persistent
// heap. iters 0 polls forever.
func runTop(addr string, interval time.Duration, iters int) error {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	url := strings.TrimSuffix(addr, "/") + "/vars"
	client := &http.Client{Timeout: interval}
	var prev telemetry.Snapshot
	var prevSeq uint64
	first := true
	for tick := 0; iters == 0 || tick < iters; tick++ {
		if tick > 0 {
			time.Sleep(interval)
		}
		snap, err := fetchSnapshot(client, url)
		if err != nil {
			return err
		}
		printFrame(snap, prev, prevSeq, first, interval)
		for _, sp := range snap.Spans {
			if sp.Seq >= prevSeq {
				prevSeq = sp.Seq + 1
			}
		}
		prev, first = snap, false
	}
	return nil
}

func fetchSnapshot(client *http.Client, url string) (telemetry.Snapshot, error) {
	var s telemetry.Snapshot
	resp, err := client.Get(url)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("top: %s: %s", url, resp.Status)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// printFrame renders one poll: totals on the first frame, then
// per-second rates for every counter that moved, gauges, and any spans
// recorded since the previous frame.
func printFrame(snap, prev telemetry.Snapshot, prevSeq uint64, first bool, interval time.Duration) {
	fmt.Printf("── %s ", time.Now().Format("15:04:05"))
	if first {
		fmt.Printf("(totals)\n")
	} else {
		fmt.Printf("(Δ/s over %v)\n", interval)
	}
	secs := interval.Seconds()
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	// Two rows carry a third column, a share of the frame's events (first
	// frame: of all so far): the index probes the volatile hint table
	// answered without a chain walk, and the deferred allocation headers a
	// caller's flush made durable at no line of their own.
	cols := map[string]string{
		"index.hint_hits":             share("hit", snap, prev, "index.hint_hits", "index.hint_hits", "index.hint_misses"),
		"alloc.headers_flush_covered": share("of deferred", snap, prev, "alloc.headers_flush_covered", "alloc.headers_deferred"),
	}
	for _, name := range names {
		v := snap.Counters[name]
		col := cols[name]
		if first {
			if v != 0 {
				fmt.Printf("  %-32s %d%s\n", name, v, col)
			}
			continue
		}
		if d := v - prev.Counters[name]; d != 0 {
			fmt.Printf("  %-32s %.0f/s%s\n", name, float64(d)/secs, col)
		}
	}
	gnames := make([]string, 0, len(snap.Gauges))
	for name := range snap.Gauges {
		gnames = append(gnames, name)
	}
	sort.Strings(gnames)
	for _, name := range gnames {
		fmt.Printf("  %-32s %d (gauge)\n", name, snap.Gauges[name])
	}
	for _, sp := range snap.Spans {
		if !first && sp.Seq < prevSeq {
			continue
		}
		loc := ""
		if sp.Shard >= 0 {
			loc += fmt.Sprintf(" shard=%d", sp.Shard)
		}
		if sp.Worker >= 0 {
			loc += fmt.Sprintf(" worker=%d", sp.Worker)
		}
		fmt.Printf("  span %-22s %12v%s\n", sp.Name, sp.Dur, loc)
	}
}

// share renders what counter num moved by between prev and snap as a
// percentage of what the counters dens moved by together, labelled; empty
// when they did not move.
func share(label string, snap, prev telemetry.Snapshot, num string, dens ...string) string {
	moved := func(name string) uint64 { return snap.Counters[name] - prev.Counters[name] }
	var den uint64
	for _, d := range dens {
		den += moved(d)
	}
	if den == 0 {
		return ""
	}
	return fmt.Sprintf("  %s %.1f%%", label, 100*float64(moved(num))/float64(den))
}
