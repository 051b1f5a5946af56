// Command heaptool inspects and verifies persistent-heap images:
//
//	heaptool -heap /path/img.pjh info      geometry, klasses, roots
//	heaptool -heap /path/img.pjh verify    parse the whole heap
//	heaptool -heap /path/img.pjh gc        run (or resume) a collection,
//	                                       print its flushed lines, fences
//	heaptool -heap /path/img.pjh inspect   format version, GC state (and
//	                                       mid-collection, the progress
//	                                       word),
//	                                       per-region top table: persisted
//	                                       top, parsed frontier, bytes
//	                                       validated above the top
//	heaptool -heap /path/img.pjh postmortem   decode the flight-recorder
//	                                       journal from a (possibly
//	                                       crashed) image: event timeline,
//	                                       GC cycle reconstruction,
//	                                       recovery narrative. -last N
//	                                       bounds the timeline, -json
//	                                       emits the raw decoded events.
//	heaptool -addr localhost:9180 top      live metrics: poll a running
//	                                       runtime's telemetry endpoint
//	heaptool -heap /path/img.pjh scrub     read-only integrity walk:
//	                                       verify metadata checksums
//	                                       (GC-phase word, redo batch,
//	                                       region-top table, global
//	                                       timestamp, compaction progress
//	                                       mid-collection, manifest)
//	                                       without repairing anything
//
// Pointing any command at a shard-set manifest (<base>-manifest.pjh)
// prints (or scrubs) the manifest — shard count, generation, hash-range
// table — instead of attempting a heap parse.
//
// Exit codes (scripts and CI key off these):
//
//	0  success; for scrub, every verifiable structure verified
//	1  runtime error (I/O, collection failure, telemetry endpoint down)
//	2  usage error (bad flags, unknown command)
//	3  image unreadable (bad magic, unsupported version, insane geometry)
//	4  image corrupt (readable, but integrity checks failed)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pgc"
	"espresso/internal/pheap"
	"espresso/internal/pshard"
)

// Exit codes: distinct classes so scripts can tell a broken image from a
// broken invocation (the table in the package doc is the contract).
const (
	exitErr        = 1 // runtime/tooling error
	exitUsage      = 2 // bad flags or command
	exitUnreadable = 3 // image cannot be interpreted at all
	exitCorrupt    = 4 // image readable, integrity checks failed
)

// fail reports an error and returns the exit code to leave with.
func fail(code int, format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "heaptool: "+format+"\n", args...)
	return code
}

func usage() int {
	fmt.Fprintln(os.Stderr, `usage: heaptool -heap <image.pjh> info|verify|gc|inspect|postmortem|scrub [-last N] [-json]
       heaptool -addr <host:port> [-interval 2s] [-n 0] top

exit codes:
  0  success (scrub: every verifiable structure verified)
  1  runtime error (I/O, collection failure, endpoint down)
  2  usage error (bad flags, unknown command)
  3  image unreadable (bad magic, unsupported version, insane geometry)
  4  image corrupt (readable, but integrity checks failed)`)
	return exitUsage
}

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole command: it parses args (the command line without
// the program name) and returns the exit code, so a test can classify
// images in-process.
func run(args []string) int {
	flags := flag.NewFlagSet("heaptool", flag.ContinueOnError)
	path := flags.String("heap", "", "heap image file (.pjh)")
	addr := flags.String("addr", "", "telemetry endpoint for `top` (host:port of Options.TelemetryAddr)")
	interval := flags.Duration("interval", 2*time.Second, "poll interval for `top`")
	iters := flags.Int("n", 0, "number of `top` polls (0 = forever)")
	lastN := flags.Int("last", 0, "`postmortem`: show only the last N timeline events (0 = all)")
	asJSON := flags.Bool("json", false, "`postmortem`: emit the decoded timeline as JSON instead of text")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return exitUsage
	}
	cmd := flags.Arg(0)
	if cmd == "top" {
		// Live mode talks to a running runtime over HTTP; no image needed.
		if *addr == "" {
			return usage()
		}
		if err := runTop(*addr, *interval, *iters); err != nil {
			return fail(exitErr, "%v", err)
		}
		return 0
	}
	if *path == "" || cmd == "" {
		return usage()
	}
	dev, err := nvm.LoadFile(*path, nvm.Config{Mode: nvm.Tracked})
	if err != nil {
		return fail(exitErr, "%v", err)
	}
	if pshard.IsManifest(dev) {
		// A shard-set manifest is not a heap: describe (or scrub) it and
		// point at the per-shard images instead of failing the pheap parse.
		m, err := pshard.ReadManifest(dev)
		if err != nil {
			// The magic matched, so the device *is* a manifest — a parse
			// failure past that point is corruption, not unreadability.
			return fail(exitCorrupt, "corrupt manifest: %v", err)
		}
		if cmd == "scrub" {
			fmt.Printf("manifest OK: %d shards, generation %d\n", m.Shards, m.Generation)
			return 0
		}
		fmt.Printf("shard manifest (not a heap image)\n")
		fmt.Printf("shards         %d\n", m.Shards)
		fmt.Printf("generation     %d\n", m.Generation)
		fmt.Printf("shard size     %d data bytes each\n", m.ShardDataSize)
		for i, b := range m.Bounds {
			hi := "max"
			if i+1 < len(m.Bounds) {
				hi = fmt.Sprintf("%#x", m.Bounds[i+1])
			}
			fmt.Printf("  shard %3d    hash range [%#x, %s)\n", i, b, hi)
		}
		fmt.Printf("inspect the per-shard heap images (<base>-s0.pjh ...) individually\n")
		return 0
	}
	if cmd == "postmortem" {
		// Post-mortem decodes straight off the raw device, before (and
		// without) pheap.Load: loading repairs a torn image in place —
		// finishing redo, plugging regions — which is exactly the
		// evidence a post-mortem wants intact.
		if err := runPostmortem(dev, *lastN, *asJSON); err != nil {
			return fail(exitErr, "%v", err)
		}
		return 0
	}
	if cmd == "scrub" {
		// Scrub, like postmortem, works on the raw device: Load would
		// replay redo and plug regions — mutations an image under
		// investigation must not suffer.
		rep, err := pheap.Scrub(dev)
		if err != nil {
			return fail(exitUnreadable, "unreadable image: %v", err)
		}
		fmt.Printf("format version %d\n", rep.FormatVersion)
		fmt.Printf("gc active      %v\n", rep.GCActive)
		fmt.Printf("redo pending   %v\n", rep.RedoPending)
		fmt.Printf("regions checked %d\n", rep.RegionsChecked)
		for _, f := range rep.Findings {
			fmt.Printf("CORRUPT: %s\n", f)
		}
		if rep.Corrupt() {
			return fail(exitCorrupt, "%d corruption finding(s)", len(rep.Findings))
		}
		fmt.Printf("OK: no corruption detected\n")
		return 0
	}
	h, err := pheap.Load(dev, klass.NewRegistry())
	if err != nil {
		// Load's errors carry their class: geometry/magic/version failures
		// say "unreadable", checksum and structural failures say "corrupt".
		code := exitUnreadable
		if strings.Contains(err.Error(), "corrupt") {
			code = exitCorrupt
		}
		return fail(code, "%v", err)
	}

	switch cmd {
	case "info":
		g := h.Geo()
		fmt.Printf("base address   %#x\n", uint64(h.Base()))
		fmt.Printf("device size    %d bytes\n", dev.Size())
		fmt.Printf("data area      %d bytes in %d regions\n", g.DataSize, g.Regions())
		fmt.Printf("used           %d bytes\n", h.UsedBytes())
		fmt.Printf("global ts      %d\n", h.GlobalTS())
		fmt.Printf("gc active      %v\n", h.GCActive())
		fmt.Printf("klasses        %d\n", h.KlassCount())
		for _, r := range h.Roots() {
			fmt.Printf("root %-24s → %#x\n", r.Name, uint64(r.Ref))
		}
	case "verify":
		objects, fillers, bytes := 0, 0, 0
		err := h.ForEachObject(func(off int, k *klass.Klass, size int) bool {
			if pheap.IsFiller(k) {
				fillers++
			} else {
				objects++
			}
			bytes += size
			return true
		})
		if err != nil {
			return fail(exitCorrupt, "heap does not parse: %v", err)
		}
		fmt.Printf("OK: %d objects, %d fillers, %d bytes parseable\n", objects, fillers, bytes)
	case "gc":
		res, _, err := pgc.RecoverIfNeeded(h)
		if err != nil {
			return fail(exitErr, "%v", err)
		}
		if res.Recovered {
			fmt.Printf("recovered interrupted collection: %d live objects, %d moved\n",
				res.LiveObjects, res.MovedObjects)
		} else {
			if res, err = pgc.Collect(h, pgc.NoRoots{}); err != nil {
				return fail(exitErr, "%v", err)
			}
			fmt.Printf("collected: %d live objects (%d bytes), %d moved, pause %v\n",
				res.LiveObjects, res.LiveBytes, res.MovedObjects, res.PauseTime)
		}
		fmt.Printf("device: %d lines flushed, %d fences\n", res.DeviceStats.FlushedLines, res.DeviceStats.Fences)
		if err := dev.Save(*path); err != nil {
			return fail(exitErr, "%v", err)
		}
	case "inspect":
		// The GC/allocation state in the image, surfaced: format
		// version, the collection flags, the PLAB allocator's per-region
		// persisted top table, and the remembered-set footprint of the
		// reference-store barrier.
		g := h.Geo()
		fmt.Printf("format version %d\n", h.FormatVersion())
		fmt.Printf("gc active      %v\n", h.GCActive())
		if h.GCActive() {
			// How far the interrupted compaction got: recovery redoes
			// the summary's moves from this index on.
			fmt.Printf("progress       %d moves durable\n", h.CompactProgress())
		}
		fmt.Printf("global ts      %d\n", h.GlobalTS())
		fmt.Printf("redo pending   %v\n", h.RedoPending())
		// Remembered-set footprint: slots whose persisted value points
		// outside this heap. On a single-heap image these are exactly the
		// slots the runtime's NVM→DRAM remembered set tracked (volatile
		// references die with their process); a multi-heap deployment's
		// image also counts legal cross-heap NVM references here, since
		// one image cannot tell a sibling heap's address from a dead DRAM
		// one — hence "candidates".
		outRefs := 0
		err := h.ForEachObject(func(off int, k *klass.Klass, size int) bool {
			if pheap.IsFiller(k) {
				return true
			}
			pheap.RefSlots(h.Device(), off, k, func(slotBoff int) {
				v := layout.UntagRef(layout.Ref(h.Device().ReadU64(off + slotBoff)))
				if v != layout.NullRef && !h.Contains(v) {
					outRefs++
				}
			})
			return true
		})
		if err != nil {
			return fail(exitErr, "remset scan: %v", err)
		}
		fmt.Printf("remset slots   %d candidate(s) (out-of-heap refs; includes cross-heap refs on multi-heap images)\n", outRefs)
		// Mark-bitmap view: what the last (or in-flight) collection knew.
		// The high-water mark is the device offset one past the highest
		// mark bit — on a mid-collection image it bounds how far marking
		// got; per-region live bytes decode the same begin/end bit pairs
		// the summary phase uses, so they are estimates only in the sense
		// that the bitmap may be stale on an idle image (a completed cycle
		// leaves the bits of its own mark, aged by any allocation since).
		liveByRegion := make([]int, g.DataRegions())
		highWater, markBits := -1, 0
		begin := -1
		usedBits := (h.Top() - g.DataOff) / layout.WordSize
		h.MarkBitmap().ForEachSetBelow(usedBits, func(b int) {
			markBits++
			if begin < 0 {
				begin = b
				return
			}
			src := g.DataOff + begin*layout.WordSize
			size := (b - begin + 1) * layout.WordSize
			highWater = src + size
			for r := (src - g.DataOff) / layout.RegionSize; r <= (src+size-1-g.DataOff)/layout.RegionSize; r++ {
				lo := g.DataOff + r*layout.RegionSize
				hi := lo + layout.RegionSize
				if src > lo {
					lo = src
				}
				if src+size < hi {
					hi = src + size
				}
				liveByRegion[r] += hi - lo
			}
			begin = -1
		})
		if begin >= 0 {
			fmt.Printf("mark bitmap    UNPAIRED begin bit (truncated mark)\n")
		}
		if highWater < 0 {
			fmt.Printf("mark bitmap    empty (no completed mark recorded)\n")
		} else {
			fmt.Printf("mark bitmap    %d bits set, high water +%#x\n", markBits, highWater)
		}
		fmt.Printf("region top table (%d data regions of %d KB, stride %d B):\n",
			g.DataRegions(), layout.RegionSize>>10, layout.RegionTopStride)
		// A persisted top is a lower bound (the bump path does not write
		// it): what this load found above each half-open region's, before
		// it sealed the region.
		recovered := map[int]pheap.RecoveredRegion{}
		for _, rr := range h.RecoveredRegions() {
			recovered[rr.Region] = rr
		}
		for r := 0; r < g.DataRegions(); r++ {
			start := g.DataOff + r*layout.RegionSize
			end := start + layout.RegionSize
			top := h.RegionTop(r)
			live := ""
			if liveByRegion[r] > 0 {
				live = fmt.Sprintf(", ~%d live bytes marked", liveByRegion[r])
			}
			rr, open := recovered[r]
			switch {
			case open && rr.Frontier == start:
				fmt.Printf("  region %3d  opened, empty (persisted top +%d)%s\n", r, rr.Top, live)
			case open:
				fmt.Printf("  region %3d  half-open: persisted top +%d, parsed frontier +%d, %d bytes validated above top; sealed by this load (%d/%d bytes used)%s\n",
					r, rr.Top, rr.Frontier, rr.Frontier-rr.Top, rr.Frontier-start, layout.RegionSize, live)
			case top == 0:
				fmt.Printf("  region %3d  untouched%s\n", r, live)
			case !pheap.IsRealTop(top):
				fmt.Printf("  region %3d  humongous interior%s\n", r, live)
			case top > end:
				fmt.Printf("  region %3d  humongous head, run parses to +%d (%d bytes)%s\n",
					r, top, top-start, live)
			case top == end:
				fmt.Printf("  region %3d  full (top +%d)%s\n", r, top, live)
			default:
				fmt.Printf("  region %3d  partial: top +%d (%d/%d bytes used)%s\n",
					r, top, top-start, layout.RegionSize, live)
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "heaptool: unknown command %q\n", cmd)
		return usage()
	}
	return 0
}
